#include "selftest/gen.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "ir/type.h"
#include "sim/machine.h"

namespace record::selftest {

namespace {

/// Evaluate a rule's pattern tree given leaf values -- the expected-response
/// oracle. Mirrors the golden-model semantics (wrap/saturating 32-bit).
class PatternEval {
 public:
  int64_t accIn = 0;
  std::vector<int64_t> slotVals;

  std::optional<int64_t> eval(const PatNode& p) const {
    switch (p.kind) {
      case PatNode::Kind::ConstLeaf:
        return p.cval;
      case PatNode::Kind::NtLeaf:
        if (p.nt == Nonterm::Acc) return accIn;
        if (p.slot >= 0 &&
            static_cast<size_t>(p.slot) < slotVals.size())
          return slotVals[static_cast<size_t>(p.slot)];
        return std::nullopt;
      case PatNode::Kind::OpNode: {
        if (p.op == Op::Store) return eval(p.kids[1]);
        std::vector<int64_t> k;
        for (const auto& kid : p.kids) {
          auto v = eval(kid);
          if (!v) return std::nullopt;
          k.push_back(*v);
        }
        switch (p.op) {
          case Op::Add: return wrap32(k[0] + k[1]);
          case Op::Sub: return wrap32(k[0] - k[1]);
          case Op::Mul: return wrap32(k[0] * k[1]);
          case Op::Neg: return wrap32(-k[0]);
          case Op::SatAdd: return sat32(k[0] + k[1]);
          case Op::SatSub: return sat32(k[0] - k[1]);
          case Op::Shl: return wrap32(k[0] << (k[1] & 31));
          case Op::Shr: return k[0] >> (k[1] & 31);
          case Op::Shru:
            return static_cast<int64_t>(
                (static_cast<uint64_t>(k[0]) & 0xffffffffull) >>
                (k[1] & 31));
          case Op::And: return k[0] & (k[1] & 0xffff);
          case Op::Or: return wrap32(k[0] | (k[1] & 0xffff));
          case Op::Xor: return wrap32(k[0] ^ (k[1] & 0xffff));
          default: return std::nullopt;
        }
      }
    }
    return std::nullopt;
  }
};

/// Nonterminal classes of the pattern's leaf slots (to pick legal values).
void collectSlotNts(const PatNode& p, std::map<int, Nonterm>& out) {
  if (p.kind == PatNode::Kind::NtLeaf && p.slot >= 0) out[p.slot] = p.nt;
  for (const auto& k : p.kids) collectSlotNts(k, out);
}

bool patternHasAccLeaf(const PatNode& p) {
  if (p.kind == PatNode::Kind::NtLeaf && p.nt == Nonterm::Acc) return true;
  for (const auto& k : p.kids)
    if (patternHasAccLeaf(k)) return true;
  return false;
}

/// Operand signature for fault pairing: substituting within a signature
/// keeps the program decodable and runnable.
std::string opSignature(Opcode op) {
  const OpInfo& i = opInfo(op);
  std::string s;
  s += static_cast<char>('0' + i.numOperands);
  s += i.aIsMem ? 'm' : '.';
  s += i.bIsMem ? 'm' : '.';
  s += i.isBranch ? 'b' : '.';
  s += opTakesArIndex(op) ? 'r' : '.';
  return s;
}

}  // namespace

SelfTest generateSelfTest(const RuleSet& rules, uint32_t seed) {
  SelfTest st;
  st.prog.config = rules.config;

  uint32_t rng = seed * 2654435761u + 17;
  // Odd values with overlapping low bits: a+b, a|b, a^b, a&b all differ,
  // so ALU-function substitution faults are observable.
  auto next = [&rng]() {
    rng = rng * 1664525u + 1013904223u;
    int64_t v = static_cast<int64_t>((rng >> 18) % 201) - 100;
    return v | 3;
  };

  int nextAddr = 0;
  auto newCell = [&](int16_t init) {
    int a = nextAddr++;
    st.prog.dataInit.emplace_back(a, init);
    return a;
  };

  auto emit = [&](Opcode op, Operand a = Operand::none(),
                  Operand b = Operand::none()) {
    Instr in;
    in.op = op;
    in.a = a;
    in.b = b;
    st.prog.code.push_back(in);
  };

  const TargetConfig& cfg = rules.config;

  // Warm-up: leave nonzero values in T and P so faults that substitute
  // P-consumers (e.g. ZAC -> PAC) are observable from the first block.
  if (cfg.hasMac) {
    int c3 = newCell(3);
    int c5 = newCell(5);
    emit(Opcode::LT, Operand::direct(c3));
    emit(Opcode::MPY, Operand::direct(c5));
  }

  for (const auto& r : rules.rules) {
    if (r.emit.empty()) {
      st.skippedRules.push_back(r.name);  // pure chain (imm widening)
      continue;
    }
    // The first child of a Store pattern is the write destination, not a
    // value source; it binds to the observable result cell.
    int destSlot = -1;
    if (r.pat.kind == PatNode::Kind::OpNode && r.pat.op == Op::Store &&
        !r.pat.kids.empty() &&
        r.pat.kids[0].kind == PatNode::Kind::NtLeaf)
      destSlot = r.pat.kids[0].slot;

    // Choose leaf values.
    std::map<int, Nonterm> slots;
    collectSlotNts(r.pat, slots);
    PatternEval ev;
    ev.accIn = next();
    if (r.pat.kind == PatNode::Kind::OpNode &&
        (r.pat.op == Op::And || r.pat.op == Op::Or || r.pat.op == Op::Xor))
      ev.accIn = 0x35a7;
    int maxSlot = -1;
    for (const auto& [s, nt] : slots) maxSlot = std::max(maxSlot, s);
    ev.slotVals.assign(static_cast<size_t>(maxSlot + 1), 0);
    // Saturating rules need stimuli that actually saturate the 32-bit
    // accumulator, or OVM faults stay invisible: a near-extreme ACC (built
    // by shifting a 16-bit seed left 16 places) plus extreme multiplier
    // operands pushes sums/differences past the 32-bit range.
    const bool satRule = r.mode.ovm == 1;
    const bool subtractive = r.pat.kind == PatNode::Kind::OpNode &&
                             r.pat.op == Op::SatSub;
    // Bitwise rules need deliberately mixed bit patterns: random values can
    // coincide (a&b == a when b covers a's bits), hiding AND/XOR decode
    // faults. 0x35a7 vs 0x5a5c differ under &, |, ^, + and -.
    const bool bitwiseRule =
        r.pat.kind == PatNode::Kind::OpNode &&
        (r.pat.op == Op::And || r.pat.op == Op::Or || r.pat.op == Op::Xor);

    std::map<int, Operand> slotOperand;
    for (const auto& [s, nt] : slots) {
      if (s == destSlot) continue;
      int64_t v = satRule ? 32767 : bitwiseRule ? 0x5a5c : next();
      switch (nt) {
        case Nonterm::Imm8:
          v = ((v % 100) + 100) % 100;  // 0..99 fits any imm8 use
          slotOperand[s] = Operand::imm(static_cast<int>(v));
          break;
        case Nonterm::Imm16:
          slotOperand[s] = Operand::imm(static_cast<int>(v));
          break;
        case Nonterm::Mem:
          slotOperand[s] =
              Operand::direct(newCell(static_cast<int16_t>(wrap16(v))));
          break;
        default:
          break;
      }
      ev.slotVals[static_cast<size_t>(s)] = v;
    }

    auto expected = ev.eval(r.pat);
    if (!expected) {
      st.skippedRules.push_back(r.name);
      continue;
    }

    // Justify the accumulator input if the pattern consumes one. (Done
    // before the mode switches so a mode opcode faulted into an
    // ACC-clobbering one is observable.)
    if (patternHasAccLeaf(r.pat)) {
      if (satRule) {
        // Big accumulator value: seed << 16 via the shifter.
        int64_t seed = subtractive ? -32768 : 32767;
        int cell = newCell(static_cast<int16_t>(seed));
        emit(Opcode::LAC, Operand::direct(cell));
        for (int i = 0; i < 16; ++i) emit(Opcode::SFL);
        ev.accIn = wrap32(seed << 16);
      } else {
        int cell = newCell(static_cast<int16_t>(wrap16(ev.accIn)));
        emit(Opcode::LAC, Operand::direct(cell));
        // The 16-bit cell truncates the chosen value; mirror that.
        ev.accIn = wrap16(ev.accIn);
      }
      expected = ev.eval(r.pat);
    }

    // Mode context: establish exactly what the rule requires (default 0).
    if (cfg.hasSat)
      emit(r.mode.ovm == 1 ? Opcode::SOVM : Opcode::ROVM);
    emit(r.mode.sxm == 1 ? Opcode::SSXM : Opcode::RSXM);

    // Destination for Stmt (store) rules and spill temps.
    int resultCell = newCell(0);
    if (destSlot >= 0) slotOperand[destSlot] = Operand::direct(resultCell);
    auto materialize = [&](const OperTemplate& ot) -> Operand {
      switch (ot.kind) {
        case OperTemplate::Kind::None: return Operand::none();
        case OperTemplate::Kind::Slot: {
          auto it = slotOperand.find(ot.slot);
          if (it != slotOperand.end()) return it->second;
          // Store rules bind slot 0 as the destination.
          return Operand::direct(resultCell);
        }
        case OperTemplate::Kind::FixedImm: return Operand::imm(ot.imm);
        case OperTemplate::Kind::Temp: return Operand::direct(resultCell);
      }
      return Operand::none();
    };
    for (const auto& tmpl : r.emit)
      emit(tmpl.op, materialize(tmpl.a), materialize(tmpl.b));

    // Propagate the result to the observable cell.
    if (r.lhs == Nonterm::Acc)
      emit(Opcode::SACL, Operand::direct(resultCell));
    // Mem-lhs rules already wrote resultCell via their Temp operand;
    // Stmt rules wrote it as their bound destination.

    st.checks.push_back(
        {resultCell, static_cast<int16_t>(wrap16(*expected)), r.name});
    st.coveredRules.push_back(r.name);
  }
  // Mode sentinels: catch faults on the mode instructions themselves.
  // OVM sentinel: SOVM then ROVM, then a wrapping overflow; if the ROVM was
  // lost (or became anything else), OVM is still 1 and the result
  // saturates instead of wrapping.
  if (cfg.hasSat && cfg.hasMac) {
    int big = newCell(32767);
    emit(Opcode::SOVM);
    emit(Opcode::ROVM);
    emit(Opcode::LAC, Operand::direct(big));
    for (int i = 0; i < 16; ++i) emit(Opcode::SFL);
    emit(Opcode::LT, Operand::direct(big));
    emit(Opcode::MPY, Operand::direct(big));
    emit(Opcode::APAC);
    int cell = newCell(0);
    emit(Opcode::SACL, Operand::direct(cell));
    int64_t wrapped = wrap32((32767LL << 16) + 32767LL * 32767LL);
    st.checks.push_back(
        {cell, static_cast<int16_t>(wrap16(wrapped)), "$ovm_sentinel"});
  }
  // SXM sentinels: arithmetic vs. logical right shift of a negative value
  // differ in the high accumulator word.
  {
    int neg = newCell(-8);
    emit(Opcode::SSXM);
    emit(Opcode::RSXM);
    emit(Opcode::LAC, Operand::direct(neg));
    emit(Opcode::SFR);
    int cell = newCell(0);
    emit(Opcode::SACH, Operand::direct(cell));
    // logical: 0xfffffff8 >> 1 = 0x7ffffffc, high word 0x7fff
    st.checks.push_back({cell, 0x7fff, "$rsxm_sentinel"});

    emit(Opcode::RSXM);
    emit(Opcode::SSXM);
    emit(Opcode::LAC, Operand::direct(neg));
    emit(Opcode::SFR);
    int cell2 = newCell(0);
    emit(Opcode::SACH, Operand::direct(cell2));
    // arithmetic: -8 >> 1 = -4, high word 0xffff
    st.checks.push_back({cell2, -1, "$ssxm_sentinel"});
  }

  emit(Opcode::HALT);
  if (nextAddr > cfg.dataWords)
    throw std::runtime_error("self-test exceeds data memory");
  return st;
}

SelfTestRun runSelfTest(const SelfTest& st,
                        const std::function<Opcode(Opcode)>& fault) {
  SelfTestRun out;
  Machine m(st.prog);
  if (fault) m.setDecodeFault(fault);
  auto rr = m.run(1'000'000);
  out.ran = rr.halted;
  if (!out.ran) return out;
  for (const auto& c : st.checks) {
    if (m.readData(c.addr) != c.expected) ++out.failedChecks;
  }
  out.pass = out.failedChecks == 0;
  return out;
}

FaultCampaign runFaultCampaign(const SelfTest& st) {
  FaultCampaign fc;
  // Opcodes the program uses, grouped by signature.
  std::set<Opcode> used;
  for (const auto& in : st.prog.code) used.insert(in.op);
  used.erase(Opcode::HALT);  // substituting HALT just hangs; not a decode
                             // fault we model

  for (Opcode from : used) {
    for (int j = 0; j < kNumOpcodes; ++j) {
      Opcode to = static_cast<Opcode>(j);
      if (to == from || to == Opcode::HALT) continue;
      if (!opcodeAvailable(to, st.prog.config)) continue;
      if (opSignature(from) != opSignature(to)) continue;
      auto run = runSelfTest(st, [from, to](Opcode op) {
        return op == from ? to : op;
      });
      FaultCampaign::Injected inj{from, to, !run.ran || !run.pass};
      if (inj.detected) ++fc.detected;
      fc.faults.push_back(inj);
    }
  }
  return fc;
}

}  // namespace record::selftest

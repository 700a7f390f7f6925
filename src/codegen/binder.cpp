#include "codegen/binder.h"

#include <cassert>
#include <stdexcept>

#include "ir/type.h"

namespace record {

namespace {

/// Constant value of a leaf that is a literal or a reference to a DFL
/// constant symbol; nullopt otherwise.
std::optional<int64_t> leafConstValue(const Expr& e) {
  if (e.op == Op::Const) return e.value;
  if (e.op == Op::Ref && e.sym->kind == SymKind::Const)
    return e.sym->constValue;
  return std::nullopt;
}

constexpr int kDynamicAccessCost = 4;  // LAR + ADRK + LAC + SACL (approx.)

}  // namespace

CodegenBinder::CodegenBinder(DataLayout& layout, const TargetConfig& cfg,
                             const ArFile& ars)
    : layout_(layout), cfg_(cfg), ars_(ars) {}

void CodegenBinder::addSyntheticAddr(const Symbol* s, int addr) {
  // Binding a brand-new symbol cannot change any cached leafCost() answer
  // (no expression node referring to it can predate the symbol), so the
  // label memo stays valid. Only a re-bind to a different address -- which
  // the pipeline never does -- would invalidate it.
  auto [it, inserted] = synthetic_.emplace(s, addr);
  if (!inserted && it->second != addr) {
    it->second = addr;
    ++sig_;
  }
}

void CodegenBinder::setStream(const Symbol* s, StreamInfo info) {
  streams_[s] = info;
  ++sig_;
}

void CodegenBinder::clearStream(const Symbol* s) {
  streams_.erase(s);
  ++sig_;
}

void CodegenBinder::beginStatement() { stmtTemps_.clear(); }

void CodegenBinder::endStatement() {
  for (int a : stmtTemps_) layout_.freeTemp(a);
  stmtTemps_.clear();
}

int CodegenBinder::addrFor(const Symbol* s) const {
  auto it = synthetic_.find(s);
  if (it != synthetic_.end()) return it->second;
  return layout_.addrOf(s);
}

std::optional<int> CodegenBinder::leafCost(const Expr& e, Nonterm nt) {
  auto cv = leafConstValue(e);
  switch (nt) {
    case Nonterm::Imm8:
      if (cv && *cv >= -128 && *cv <= 127) return 0;
      return std::nullopt;
    case Nonterm::Imm16:
      if (cv && *cv >= -32768 && *cv <= 32767) return 0;
      return std::nullopt;
    case Nonterm::Mem: {
      if (cv) return 1;  // constant pool: one data word; prefer immediates
      if (e.op == Op::Ref) {
        if (e.sym->kind == SymKind::Induction)
          return synthetic_.count(e.sym) ? std::optional<int>(0)
                                         : std::nullopt;
        return 0;  // scalar / delayed / stream / synthetic var
      }
      if (e.op == Op::ArrayRef) {
        const Expr& idx = *e.kids[0];
        if (leafConstValue(idx)) return 0;
        if (idx.op == Op::Ref &&
            (idx.sym->kind != SymKind::Induction ||
             synthetic_.count(idx.sym)))
          return kDynamicAccessCost;
        return std::nullopt;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

Operand CodegenBinder::bindDynamic(const Expr& e, std::vector<Instr>& out) {
  if (ars_.scratchLeased())
    throw std::runtime_error(
        "dynamic array access while the scratch AR is leased to a stream "
        "(pipeline invariant violated): " +
        e.str());
  const int scratch = ars_.scratch();
  // AR[scratch] = mem[idxVar]; AR[scratch] += base.
  const Expr& idx = *e.kids[0];
  assert(idx.op == Op::Ref);
  int idxAddr = addrFor(idx.sym);
  int base = addrFor(e.sym);
  Instr lar;
  lar.op = Opcode::LAR;
  lar.a = Operand::imm(scratch);
  lar.b = Operand::direct(idxAddr);
  out.push_back(lar);
  int remaining = base;
  while (remaining > 0) {
    int step = std::min(remaining, 255);
    Instr adrk;
    adrk.op = Opcode::ADRK;
    adrk.a = Operand::imm(scratch);
    adrk.b = Operand::imm(step);
    out.push_back(adrk);
    remaining -= step;
  }
  return Operand::indirect(scratch);
}

Operand CodegenBinder::bind(const Expr& e, Nonterm nt,
                            std::vector<Instr>& out, bool isStoreDest) {
  auto cv = leafConstValue(e);
  switch (nt) {
    case Nonterm::Imm8:
    case Nonterm::Imm16:
      assert(cv.has_value());
      return Operand::imm(static_cast<int>(*cv));
    case Nonterm::Mem: {
      if (cv)
        return Operand::direct(
            layout_.constAddr(static_cast<int16_t>(wrap16(*cv))));
      if (e.op == Op::Ref) {
        auto st = streams_.find(e.sym);
        if (st != streams_.end())
          return Operand::indirect(st->second.ar, st->second.post);
        return Operand::direct(addrFor(e.sym) + static_cast<int>(e.value));
      }
      if (e.op == Op::ArrayRef) {
        const Expr& idx = *e.kids[0];
        if (auto iv = leafConstValue(idx))
          return Operand::direct(addrFor(e.sym) + static_cast<int>(*iv));
        Operand ind = bindDynamic(e, out);
        if (isStoreDest) return ind;
        // Read access: route through a statement temp so later scratch-AR
        // reloads cannot clobber the address before use.
        Instr lac;
        lac.op = Opcode::LAC;
        lac.a = ind;
        out.push_back(lac);
        int temp = allocTemp();
        Instr sacl;
        sacl.op = Opcode::SACL;
        sacl.a = Operand::direct(temp);
        out.push_back(sacl);
        return Operand::direct(temp);
      }
      throw std::runtime_error("unbindable Mem leaf: " + e.str());
    }
    default:
      throw std::runtime_error("unbindable leaf nonterminal");
  }
}

int CodegenBinder::allocTemp() {
  int a = layout_.allocTemp();
  stmtTemps_.push_back(a);
  ++tempAllocs_;
  return a;
}

void CodegenBinder::freeTemp(int addr) { layout_.freeTemp(addr); }

}  // namespace record

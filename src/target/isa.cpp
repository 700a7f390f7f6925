#include "target/isa.h"

#include <atomic>

#include "target/config.h"

namespace record {

namespace {

// Mnemonics, indexed by Opcode. The only opcode-name table: every
// description's insn clauses are resolved against it.
constexpr const char* kOpcodeNames[] = {
#define RECORD_OPCODE_NAME(op) #op,
    RECORD_OPCODES(RECORD_OPCODE_NAME, RECORD_OPCODE_NAME)
#undef RECORD_OPCODE_NAME
};

std::atomic<const IsaTable*>& activeSlot() {
  static std::atomic<const IsaTable*> slot{nullptr};
  return slot;
}

}  // namespace

bool opInfoParseFlags(int numOperands, const std::string& flags, OpInfo* out) {
  *out = OpInfo{};
  out->numOperands = numOperands;
  for (char f : flags) {
    switch (f) {
      case 'a': out->aIsMem = true; break;
      case 'b': out->bIsMem = true; break;
      case 'B': out->isBranch = true; break;
      case 'c': out->readsAcc = true; break;
      case 'C': out->writesAcc = true; break;
      case 't': out->readsT = true; break;
      case 'T': out->writesT = true; break;
      case 'p': out->readsP = true; break;
      case 'P': out->writesP = true; break;
      case 'm': out->readsMem = true; break;
      case 'M': out->writesMem = true; break;
      case '-': break;  // explicit "no flags" placeholder
      default: return false;
    }
  }
  return true;
}

std::string opInfoFlags(const OpInfo& info) {
  std::string s;
  if (info.aIsMem) s += 'a';
  if (info.bIsMem) s += 'b';
  if (info.isBranch) s += 'B';
  if (info.readsAcc) s += 'c';
  if (info.writesAcc) s += 'C';
  if (info.readsT) s += 't';
  if (info.writesT) s += 'T';
  if (info.readsP) s += 'p';
  if (info.writesP) s += 'P';
  if (info.readsMem) s += 'm';
  if (info.writesMem) s += 'M';
  return s.empty() ? "-" : s;
}

uint8_t configFeatureMask(const TargetConfig& cfg) {
  uint8_t m = 0;
  if (cfg.hasMac) m |= kFeatMac;
  if (cfg.hasDualMul) m |= kFeatDualMul;
  if (cfg.hasSat) m |= kFeatSat;
  if (cfg.hasRpt) m |= kFeatRpt;
  if (cfg.hasDmov) m |= kFeatDmov;
  return m;
}

const IsaTable& activeIsaTable() {
  const IsaTable* t = activeSlot().load(std::memory_order_acquire);
  return t ? *t : defaultIsaTable();
}

const IsaTable* setActiveIsaTable(const IsaTable* t) {
  return activeSlot().exchange(t, std::memory_order_acq_rel);
}

const char* opcodeName(Opcode op) {
  int i = static_cast<int>(op);
  if (i < 0 || i >= kNumOpcodes) return "?";
  return kOpcodeNames[i];
}

bool opcodeFromName(const std::string& name, Opcode& out) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    if (name == kOpcodeNames[i]) {
      out = static_cast<Opcode>(i);
      return true;
    }
  }
  return false;
}

bool opcodeAvailable(Opcode op, const TargetConfig& cfg) {
  return (activeIsaTable().needs[static_cast<size_t>(op)] &
          ~configFeatureMask(cfg)) == 0;
}

bool opTakesArIndex(Opcode op) {
  return activeIsaTable().takesAr[static_cast<size_t>(op)];
}

const OpInfo& opInfo(Opcode op) {
  return activeIsaTable().info[static_cast<size_t>(op)];
}

OpClass opClassOf(Opcode op) {
  return activeIsaTable().cls[static_cast<size_t>(op)];
}

const char* opClassName(OpClass c) {
  switch (c) {
    case OpClass::Mac: return "mac";
    case OpClass::AccAlu: return "acc-alu";
    case OpClass::LoadStore: return "load-store";
    case OpClass::Agu: return "agu";
    case OpClass::Branch: return "branch";
    case OpClass::Mode: return "mode";
    case OpClass::Control: return "control";
  }
  return "?";
}

std::string Operand::str() const {
  switch (mode) {
    case AddrMode::None:
      return "";
    case AddrMode::Direct:
      return std::to_string(value);
    case AddrMode::Indirect: {
      std::string s = "*AR" + std::to_string(value);
      if (post == PostMod::Inc) s += "+";
      if (post == PostMod::Dec) s += "-";
      return s;
    }
    case AddrMode::Imm:
      return "#" + std::to_string(value);
  }
  return "";
}

std::string Instr::str() const {
  std::string s = opcodeName(op);
  bool wroteOperand = false;
  auto append = [&](const std::string& text) {
    if (text.empty()) return;
    s += wroteOperand ? ", " : " ";
    s += text;
    wroteOperand = true;
  };
  // AR-index operands print as register names regardless of operand mode.
  if (opTakesArIndex(op))
    append("AR" + std::to_string(a.value));
  else
    append(a.str());
  append(b.str());
  if (!targetLabel.empty()) append(targetLabel);
  return s;
}

}  // namespace record

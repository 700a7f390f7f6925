#include "sim/reference.h"

#include <stdexcept>

#include "ir/type.h"
#include "sim/profile.h"

namespace record {

ReferenceMachine::ReferenceMachine(const TargetProgram& prog)
    : prog_(prog),
      symbols_(prog),
      data_(static_cast<size_t>(prog.config.dataWords), 0),
      ar_(static_cast<size_t>(prog.config.numAddrRegs), 0) {
  branchTarget_.resize(prog.code.size(), -1);
  for (size_t i = 0; i < prog.code.size(); ++i) {
    const Instr& in = prog.code[i];
    if (opInfo(in.op).isBranch) {
      int idx = prog.labelIndex(in.targetLabel);
      if (idx < 0)
        throw std::runtime_error("unresolved label in program: " +
                                 in.targetLabel);
      branchTarget_[i] = idx;
    }
  }
  reset();
}

void ReferenceMachine::reset(bool clearData) {
  acc_ = t_ = p_ = 0;
  for (auto& a : ar_) a = 0;
  ovm_ = sxm_ = false;
  pc_ = 0;
  if (clearData) std::fill(data_.begin(), data_.end(), 0);
  for (const auto& [addr, val] : prog_.dataInit) writeData(addr, val);
}

void ReferenceMachine::writeData(int addr, int64_t v) {
  if (addr < 0 || static_cast<size_t>(addr) >= data_.size())
    throw std::runtime_error("data write out of range: " +
                             std::to_string(addr));
  if (activeProfile_) activeProfile_->noteAccess(addr);
  data_[static_cast<size_t>(addr)] = wrap16(v);
}

int64_t ReferenceMachine::readData(int addr) const {
  if (addr < 0 || static_cast<size_t>(addr) >= data_.size())
    throw std::runtime_error("data read out of range: " +
                             std::to_string(addr));
  if (activeProfile_) activeProfile_->noteAccess(addr);
  return data_[static_cast<size_t>(addr)];
}

void ReferenceMachine::writeSymbol(const std::string& sym, int offset,
                                   int64_t v) {
  writeData(symbols_.base(sym) + offset, v);
}

int64_t ReferenceMachine::readSymbol(const std::string& sym,
                                     int offset) const {
  return readData(symbols_.base(sym) + offset);
}

int& ReferenceMachine::arAt(int idx) {
  if (idx < 0 || static_cast<size_t>(idx) >= ar_.size())
    throw std::runtime_error("bad AR index");
  return ar_[static_cast<size_t>(idx)];
}

int ReferenceMachine::resolveAddr(const Operand& o) {
  if (o.mode == AddrMode::Direct) return o.value;
  if (o.mode == AddrMode::Indirect) {
    int addr = arAt(o.value);
    if (o.post == PostMod::Inc)
      ar_[static_cast<size_t>(o.value)] = (addr + 1) & 0xffff;
    else if (o.post == PostMod::Dec)
      ar_[static_cast<size_t>(o.value)] = (addr - 1) & 0xffff;
    return addr;
  }
  throw std::runtime_error("operand is not a memory reference");
}

int64_t ReferenceMachine::readOperand(const Operand& o) {
  if (o.mode == AddrMode::Imm) return o.value;
  return readData(resolveAddr(o));
}

int64_t ReferenceMachine::ovmAdd(int64_t a, int64_t b) const {
  return ovm_ ? sat32(a + b) : wrap32(a + b);
}

int64_t ReferenceMachine::ovmSub(int64_t a, int64_t b) const {
  return ovm_ ? sat32(a - b) : wrap32(a - b);
}

RunResult ReferenceMachine::run(int64_t maxCycles) {
  activeProfile_ = profile_;
  struct Deactivate {
    Profile** p;
    ~Deactivate() { *p = nullptr; }
  } deactivate{&activeProfile_};

  RunResult res;
  int rptCount = 0;  // pending repeats of the next instruction
  while (res.cycles < maxCycles) {
    if (pc_ < 0 || static_cast<size_t>(pc_) >= prog_.code.size()) {
      res.status = RunStatus::Trapped;
      res.trapped = true;
      res.trapReason = "PC out of range";
      return res;
    }
    const int pcThis = pc_;
    const Instr& raw = prog_.code[static_cast<size_t>(pc_)];
    Opcode op = decodeFault_ ? decodeFault_(raw.op) : raw.op;
    const Operand& a = raw.a;
    const Operand& b = raw.b;
    // The branch site stays keyed to the RAW instruction: a fault-remapped
    // branch has the original instruction's target (or none).
    const int tgt = branchTarget_[static_cast<size_t>(pcThis)];
    int repeats = 1 + rptCount;
    rptCount = 0;
    bool branched = false;
    int cyclesThis = 0;

    try {
      for (int rep = 0; rep < repeats; ++rep) {
        ++res.instructions;
        int cyc = 1;
        // `branched` is per repeat: a repeated conditional branch decides
        // taken/not-taken independently each time, and the final PC follows
        // the LAST repeat (see below).
        branched = false;
        switch (op) {
          case Opcode::LAC: acc_ = readOperand(a); break;
          case Opcode::LACK: acc_ = a.value; break;
          case Opcode::ZAC: acc_ = 0; break;
          case Opcode::ADD: acc_ = ovmAdd(acc_, readOperand(a)); break;
          case Opcode::ADDK: acc_ = ovmAdd(acc_, a.value); break;
          case Opcode::SUB: acc_ = ovmSub(acc_, readOperand(a)); break;
          case Opcode::SUBK: acc_ = ovmSub(acc_, a.value); break;
          case Opcode::SACL: writeData(resolveAddr(a), acc_); break;
          case Opcode::SACH:
            writeData(resolveAddr(a), (acc_ >> 16) & 0xffff);
            break;
          case Opcode::AND: acc_ = and16(acc_, readOperand(a)); break;
          case Opcode::ANDK: acc_ = and16(acc_, a.value); break;
          case Opcode::OR: acc_ = or16(acc_, readOperand(a)); break;
          case Opcode::XOR: acc_ = xor16(acc_, readOperand(a)); break;
          // Shifts go through the shared uint64-based helpers: `acc_ << 1`
          // on a negative accumulator is defined-but-subtle in C++20, UB in
          // earlier standards, and flagged by -fsanitize=shift either way.
          case Opcode::SFL: acc_ = wrapShl32(acc_, 1); break;
          case Opcode::SFR:
            // SXM selects arithmetic (sign-extending) vs. logical shift-in.
            acc_ = sxm_ ? asr32(acc_, 1) : lsr32(acc_, 1);
            break;
          case Opcode::NEG: acc_ = ovm_ ? sat32(-acc_) : wrap32(-acc_); break;
          case Opcode::LT: t_ = readOperand(a); break;
          case Opcode::MPY: p_ = mul16(t_, readOperand(a)); break;
          case Opcode::MPYK: p_ = mul16(t_, a.value); break;
          case Opcode::PAC: acc_ = p_; break;
          case Opcode::APAC: acc_ = ovmAdd(acc_, p_); break;
          case Opcode::SPAC: acc_ = ovmSub(acc_, p_); break;
          case Opcode::SPL: writeData(resolveAddr(a), p_); break;
          case Opcode::LTA: {
            acc_ = ovmAdd(acc_, p_);
            t_ = readOperand(a);
            break;
          }
          case Opcode::LTP: {
            acc_ = p_;
            t_ = readOperand(a);
            break;
          }
          case Opcode::LTD: {
            acc_ = ovmAdd(acc_, p_);
            int addr = resolveAddr(a);
            // One architectural read feeding both T and the delay-line
            // shift (one noteAccess, not two).
            int64_t v = readData(addr);
            t_ = v;
            writeData(addr + 1, v);
            break;
          }
          case Opcode::MPYXY: {
            int addrA = resolveAddr(a);
            int addrB = resolveAddr(b);
            p_ = mul16(readData(addrA), readData(addrB));
            cyc = (prog_.config.bankOf(addrA) != prog_.config.bankOf(addrB))
                      ? 1
                      : 2;
            if (cyc == 2 && activeProfile_) activeProfile_->noteConflict();
            break;
          }
          case Opcode::MACXY: {
            acc_ = ovmAdd(acc_, p_);
            int addrA = resolveAddr(a);
            int addrB = resolveAddr(b);
            p_ = mul16(readData(addrA), readData(addrB));
            cyc = (prog_.config.bankOf(addrA) != prog_.config.bankOf(addrB))
                      ? 1
                      : 2;
            if (cyc == 2 && activeProfile_) activeProfile_->noteConflict();
            break;
          }
          case Opcode::LARK: arAt(a.value) = b.value & 0xffff; break;
          case Opcode::LAR:
            arAt(a.value) = static_cast<int>(
                static_cast<uint64_t>(readOperand(b)) & 0xffff);
            break;
          case Opcode::SAR: writeData(resolveAddr(b), arAt(a.value)); break;
          case Opcode::ADRK: {
            int& reg = arAt(a.value);
            reg = (reg + b.value) & 0xffff;
            break;
          }
          case Opcode::SBRK: {
            int& reg = arAt(a.value);
            reg = (reg - b.value) & 0xffff;
            break;
          }
          case Opcode::B:
            if (tgt < 0)
              throw std::runtime_error("fault-injected branch without target");
            pc_ = tgt;
            branched = true;
            cyc = 2;
            break;
          case Opcode::BZ:
            if (tgt < 0)
              throw std::runtime_error("fault-injected branch without target");
            cyc = 2;
            if (acc_ == 0) {
              pc_ = tgt;
              branched = true;
            }
            break;
          case Opcode::BGEZ:
            if (tgt < 0)
              throw std::runtime_error("fault-injected branch without target");
            cyc = 2;
            if (acc_ >= 0) {
              pc_ = tgt;
              branched = true;
            }
            break;
          case Opcode::BANZ: {
            if (tgt < 0)
              throw std::runtime_error("fault-injected branch without target");
            cyc = 2;
            int& reg = arAt(a.value);
            if (reg != 0) {
              reg = (reg - 1) & 0xffff;
              pc_ = tgt;
              branched = true;
            }
            break;
          }
          case Opcode::RPT:
            // A negative count would make the repeat loop run zero times,
            // silently skipping the next instruction.
            if (a.value < 0)
              throw std::runtime_error("negative RPT count: " +
                                       std::to_string(a.value));
            rptCount = a.value;
            break;
          case Opcode::DMOV: {
            int addr = resolveAddr(a);
            writeData(addr + 1, readData(addr));
            break;
          }
          case Opcode::SOVM: ovm_ = true; break;
          case Opcode::ROVM: ovm_ = false; break;
          case Opcode::SSXM: sxm_ = true; break;
          case Opcode::RSXM: sxm_ = false; break;
          case Opcode::NOP: break;
          case Opcode::HALT:
            res.status = RunStatus::Halted;
            res.halted = true;
            res.cycles += cyclesThis + cyc;
            if (activeProfile_) activeProfile_->commit(pcThis, op, cyc, 1);
            return res;
        }
        cyclesThis += cyc;
        if (activeProfile_) {
          if (tgt >= 0) activeProfile_->noteBranch(pcThis, tgt, branched);
          activeProfile_->commit(pcThis, op, cyc, 1);
        }
      }
    } catch (const std::exception& e) {
      // The faulting repeat never retired: drop it from the instruction
      // count and charge only the completed repeats' cycles, keeping the
      // ledger (and any attached profile) consistent.
      --res.instructions;
      res.cycles += cyclesThis;
      if (activeProfile_) activeProfile_->abortPending();
      res.status = RunStatus::Trapped;
      res.trapped = true;
      res.trapReason = e.what();
      return res;
    }
    res.cycles += cyclesThis;
    // The final PC follows the last repeat: fall through to the successor
    // of THIS instruction (an earlier repeat may have moved pc_).
    if (!branched) pc_ = pcThis + 1;
  }
  res.status = RunStatus::Budget;
  res.trapReason = "cycle budget exhausted";
  return res;
}

}  // namespace record

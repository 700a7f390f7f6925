#include "sim/machine.h"

#include <stdexcept>

#include "ir/type.h"
#include "sim/profile.h"

namespace record {

namespace {

const char kNotMemRef[] = "operand is not a memory reference";
const char kBadArIndex[] = "bad AR index";

}  // namespace

const char* runStatusName(RunStatus s) {
  switch (s) {
    case RunStatus::Halted: return "halted";
    case RunStatus::Trapped: return "trapped";
    case RunStatus::Budget: return "budget";
  }
  return "?";
}

Machine::Machine(const TargetProgram& prog)
    : prog_(prog),
      symbols_(prog),
      data_(static_cast<size_t>(prog.config.dataWords), 0),
      ar_(static_cast<size_t>(prog.config.numAddrRegs), 0) {
  // Labels resolve exactly once, here; re-decodes (decode faults) reuse the
  // resolved indexes and never touch labelIndex again.
  rawTarget_.resize(prog.code.size(), -1);
  for (size_t i = 0; i < prog.code.size(); ++i) {
    const Instr& in = prog.code[i];
    if (opInfo(in.op).isBranch) {
      int idx = prog.labelIndex(in.targetLabel);
      if (idx < 0)
        throw std::runtime_error("unresolved label in program: " +
                                 in.targetLabel);
      rawTarget_[i] = idx;
    }
  }
  decodeAll();
  reset();
}

void Machine::reset(bool clearData) {
  acc_ = t_ = p_ = 0;
  for (auto& a : ar_) a = 0;
  ovm_ = sxm_ = false;
  pc_ = 0;
  if (clearData) std::fill(data_.begin(), data_.end(), 0);
  for (const auto& [addr, val] : prog_.dataInit) writeData(addr, val);
}

void Machine::writeData(int addr, int64_t v) {
  if (addr < 0 || static_cast<size_t>(addr) >= data_.size()) badWrite(addr);
  if (activeProfile_) activeProfile_->noteAccess(addr);
  data_[static_cast<size_t>(addr)] = wrap16(v);
}

int64_t Machine::readData(int addr) const {
  if (addr < 0 || static_cast<size_t>(addr) >= data_.size()) badRead(addr);
  if (activeProfile_) activeProfile_->noteAccess(addr);
  return data_[static_cast<size_t>(addr)];
}

void Machine::writeSymbol(const std::string& sym, int offset, int64_t v) {
  writeData(symbols_.base(sym) + offset, v);
}

int64_t Machine::readSymbol(const std::string& sym, int offset) const {
  return readData(symbols_.base(sym) + offset);
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

DecodedOp Machine::decodeTrap(Opcode eff, std::string why) {
  DecodedOp d;
  d.handler = kTrapHandler;
  d.op = eff;
  d.cyc = 1;
  d.a.val = static_cast<int32_t>(trapMsgs_.size());
  trapMsgs_.push_back(std::move(why));
  return d;
}

/// Lower a read-value operand (LAC/ADD/... sources): immediates stay
/// inline, memory references pre-split; a missing operand is the same
/// "not a memory reference" trap the pre-decode loop raised at runtime.
bool Machine::decodeRead(const Operand& o, DecOperand* out,
                         std::string* why) const {
  if (o.mode == AddrMode::Imm) {
    out->kind = 0;
    out->val = o.value;
    return true;
  }
  return decodeAddr(o, out, why);
}

/// Lower a memory-reference operand (stores, LTD/DMOV, XY sources).
bool Machine::decodeAddr(const Operand& o, DecOperand* out,
                         std::string* why) const {
  if (o.mode == AddrMode::Direct) {
    out->kind = 1;
    out->val = o.value;
    out->bank = static_cast<int8_t>(prog_.config.bankOf(o.value));
    return true;
  }
  if (o.mode == AddrMode::Indirect) {
    if (o.value < 0 || static_cast<size_t>(o.value) >= ar_.size()) {
      *why = kBadArIndex;
      return false;
    }
    out->kind = 2;
    out->val = o.value;
    out->post = o.post == PostMod::Inc ? 1 : o.post == PostMod::Dec ? -1 : 0;
    return true;
  }
  *why = kNotMemRef;
  return false;
}

DecodedOp Machine::decodeOne(const Instr& raw, int rawTarget) {
  const Opcode eff = decodeFault_ ? decodeFault_(raw.op) : raw.op;
  DecodedOp d;
  d.handler = static_cast<uint8_t>(eff);
  d.op = eff;
  // Cycle hint from the active ISA table (branches 2, rest 1 on the
  // built-in core); MPYXY/MACXY bank-conflict cycles stay dynamic in the
  // handlers.
  d.cyc = activeIsaTable().decodeCycles[static_cast<size_t>(eff)];
  // The branch target (and the profiler's branch-site flag) stays keyed to
  // the RAW instruction: a fault that remaps a branch to a non-branch still
  // profiles as a never-taken branch site, exactly like the pre-decode loop.
  d.target = rawTarget;
  std::string why;

  // AR-index operands are static, so a bad index is a decode trap here
  // instead of a std::out_of_range at execution time.
  auto arIndexOk = [this](int v) {
    return v >= 0 && static_cast<size_t>(v) < ar_.size();
  };

  switch (eff) {
    // readOperand(a)
    case Opcode::LAC:
    case Opcode::ADD:
    case Opcode::SUB:
    case Opcode::AND:
    case Opcode::OR:
    case Opcode::XOR:
    case Opcode::LT:
    case Opcode::MPY:
    case Opcode::LTA:
    case Opcode::LTP:
      if (!decodeRead(raw.a, &d.a, &why)) return decodeTrap(eff, why);
      break;
    // a.value as immediate
    case Opcode::LACK:
    case Opcode::ADDK:
    case Opcode::SUBK:
    case Opcode::ANDK:
    case Opcode::MPYK:
      d.a.val = raw.a.value;
      break;
    // resolveAddr(a)
    case Opcode::SACL:
    case Opcode::SACH:
    case Opcode::SPL:
    case Opcode::LTD:
    case Opcode::DMOV:
      if (!decodeAddr(raw.a, &d.a, &why)) return decodeTrap(eff, why);
      break;
    // resolveAddr(a) and resolveAddr(b); direct operands carry their bank
    case Opcode::MPYXY:
    case Opcode::MACXY:
      if (!decodeAddr(raw.a, &d.a, &why)) return decodeTrap(eff, why);
      if (!decodeAddr(raw.b, &d.b, &why)) return decodeTrap(eff, why);
      break;
    // AR-file ops: operand a is the AR index, b an immediate / memory ref
    case Opcode::LARK:
    case Opcode::ADRK:
    case Opcode::SBRK:
      if (!arIndexOk(raw.a.value)) return decodeTrap(eff, kBadArIndex);
      d.a.val = raw.a.value;
      d.b.val = raw.b.value;
      break;
    case Opcode::LAR:
      if (!arIndexOk(raw.a.value)) return decodeTrap(eff, kBadArIndex);
      d.a.val = raw.a.value;
      if (!decodeRead(raw.b, &d.b, &why)) return decodeTrap(eff, why);
      break;
    case Opcode::SAR:
      if (!arIndexOk(raw.a.value)) return decodeTrap(eff, kBadArIndex);
      d.a.val = raw.a.value;
      if (!decodeAddr(raw.b, &d.b, &why)) return decodeTrap(eff, why);
      break;
    // Branches: a fault-injected branch has no label to resolve, so it
    // traps immediately when reached instead of writing -1 into the PC and
    // reporting a misleading "PC out of range" one fetch later.
    case Opcode::B:
    case Opcode::BZ:
    case Opcode::BGEZ:
      if (rawTarget < 0)
        return decodeTrap(eff, "fault-injected branch without target");
      break;
    case Opcode::BANZ:
      if (rawTarget < 0)
        return decodeTrap(eff, "fault-injected branch without target");
      if (!arIndexOk(raw.a.value)) return decodeTrap(eff, kBadArIndex);
      d.a.val = raw.a.value;
      break;
    // A negative repeat count would make the repeat loop run zero times,
    // silently skipping the next instruction; trap with a clear reason.
    case Opcode::RPT:
      if (raw.a.value < 0)
        return decodeTrap(eff, "negative RPT count: " +
                                   std::to_string(raw.a.value));
      d.a.val = raw.a.value;
      break;
    case Opcode::ZAC:
    case Opcode::SFL:
    case Opcode::SFR:
    case Opcode::NEG:
    case Opcode::PAC:
    case Opcode::APAC:
    case Opcode::SPAC:
    case Opcode::SOVM:
    case Opcode::ROVM:
    case Opcode::SSXM:
    case Opcode::RSXM:
    case Opcode::NOP:
    case Opcode::HALT:
      break;
  }
  return d;
}

void Machine::decodeAll() {
  trapMsgs_.clear();
  decoded_.resize(prog_.code.size());
  for (size_t i = 0; i < prog_.code.size(); ++i)
    decoded_[i] = decodeOne(prog_.code[i], rawTarget_[i]);
  // Any re-decode (fault injection, clearDecodeFault) invalidates every
  // translation: blocks and promotion counters are rebuilt from scratch
  // against the new decode, re-forming RPT blocks statically.
  trans_.rebuild(decoded_);
}


// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Every handler ends by retiring and jumping straight to the next handler
// through its own indirect branch, so the BTB learns per-opcode successor
// patterns.
#define VM_CASE(n) L_##n:
#define VM_DISPATCH() goto* kLabels[d->handler]

// Fetch the instruction at pc and dispatch, honoring the cycle budget. The
// budget is checked per fetch, never per repeat: an RPT batch runs to
// completion even when it overshoots maxCycles (pre-decode loop behavior).
// The macro expands at every VM_NEXT site so each handler keeps its own
// fetch+dispatch indirect branch; under kTranslate it adds only the
// superblock lookup, with the heavyweight block execution out of line at
// vm_block.
#define VM_FETCH()                                               \
  do {                                                           \
    if (res.cycles >= maxCycles) goto budget_exhausted;          \
    if (static_cast<unsigned>(pc) >= codeSize) goto pc_range;    \
    if constexpr (kTranslate) {                                  \
      if (pendingRpt == 0 && blockMap[pc] >= 0)                  \
        goto vm_block;                                           \
    }                                                            \
    pcThis = pc;                                                 \
    d = ops + pc;                                                \
    repsLeft = 1 + pendingRpt;                                   \
    pendingRpt = 0;                                              \
    branched = false;                                            \
    cyc = d->cyc;                                                \
    VM_DISPATCH();                                               \
  } while (0)

// Retire the instruction just executed (cycle ledger + profiling hooks,
// compiled out when kProfile is false), then run the next repeat or fetch
// the successor. `branched` resets per repeat so a repeated conditional
// branch attributes each repeat's taken/not-taken decision correctly and
// the final PC follows the LAST repeat: fall through to pcThis+1, not a
// stale branch target.
#define VM_NEXT()                                                         \
  do {                                                                    \
    res.cycles += cyc;                                                    \
    ++res.instructions;                                                   \
    if constexpr (kProfile) {                                             \
      if (d->target >= 0)                                                 \
        activeProfile_->noteBranch(pcThis, d->target, branched);          \
      activeProfile_->commit(pcThis, d->op, cyc, 1);                      \
    }                                                                     \
    if (--repsLeft > 0) {                                                 \
      branched = false;                                                   \
      cyc = d->cyc;                                                       \
      VM_DISPATCH();                                                      \
    }                                                                     \
    if (!branched) pc = pcThis + 1;                                       \
    VM_FETCH();                                                           \
  } while (0)

// Take the decoded branch. A taken back-edge (target at or before the
// branch -- the same shape the profiler's BranchProfile::isBackEdge uses)
// feeds the loop-promotion counter under kTranslate; reaching the threshold
// forms a loop superblock entered at the very next fetch.
#define VM_TAKE_BRANCH()                                          \
  do {                                                            \
    pc = d->target;                                               \
    branched = true;                                              \
    if constexpr (kTranslate) {                                   \
      if (pc <= pcThis && trans_.noteBackEdge(pcThis))            \
        trans_.tryFormLoop(decoded_, pc, pcThis);                 \
    }                                                             \
  } while (0)

RunResult Machine::run(int64_t maxCycles) {
  // Pick the loop specialization once per run; the unprofiled loop carries
  // no profiling code at all, and a profiled run never consults the
  // translation set (superblocks would hide per-PC attribution).
  if (profile_) return runImpl<true, false>(maxCycles);
  return translateOn_ ? runImpl<false, true>(maxCycles)
                      : runImpl<false, false>(maxCycles);
}

template <bool kProfile, bool kTranslate>
RunResult Machine::runImpl(int64_t maxCycles) {
  static_assert(!(kProfile && kTranslate),
                "profiled runs bypass translation by construction");
  // Profiling hooks fire only between here and return, so data-memory
  // traffic from external setup (writeSymbol, reset) is never attributed
  // to the program.
  if constexpr (kProfile) activeProfile_ = profile_;
  struct Deactivate {
    Profile** p;
    ~Deactivate() { *p = nullptr; }
  } deactivate{&activeProfile_};

  RunResult res;
  const DecodedOp* const ops = decoded_.data();
  const unsigned codeSize = static_cast<unsigned>(decoded_.size());
  // Per-PC superblock map as a raw pointer: the fetch path consults it once
  // per instruction, so it must be a single load (stable across block
  // formation -- see TranslationSet::blockMap).
  [[maybe_unused]] const int16_t* const blockMap = trans_.blockMap();

  // Data access with the same bounds/trap semantics as writeData/readData;
  // only a profiled run observes the accesses.
  auto note = [&](int addr) {
    if constexpr (kProfile) activeProfile_->noteAccess(addr);
  };
  const SimMemory<decltype(note)> mem{
      data_.data(), static_cast<unsigned>(data_.size()), ar_.data(),
      &prog_.config, note};

  // Architectural state lives in locals for the duration of the run (the
  // members would force a load/store per instruction); every exit path
  // flushes below, including mid-instruction traps (locals keep their
  // values across the unwind into the catch).
  int64_t acc = acc_, tr = t_, pr = p_;
  bool ovm = ovm_, sxm = sxm_;
  int pc = pc_;

  const DecodedOp* d = nullptr;
  int pcThis = 0;
  int pendingRpt = 0;  // pending repeats of the next instruction
  int repsLeft = 0;
  int cyc = 0;
  bool branched = false;

  auto flush = [&] {
    acc_ = acc;
    t_ = tr;
    p_ = pr;
    ovm_ = ovm;
    sxm_ = sxm;
    pc_ = pc;
  };

  // This engine's XY hook: the conflict cycle is charged on the
  // instruction itself.
  auto xyConflict = [&](bool conflict) {
    cyc = conflict ? 2 : 1;
    if constexpr (kProfile) {
      if (conflict) activeProfile_->noteConflict();
    }
  };

  static const void* const kLabels[] = {
#define VM_LABEL(n) &&L_##n,
      RECORD_OPCODES(VM_LABEL, VM_LABEL)
#undef VM_LABEL
      &&L_TRAP,
  };

  // Hot run-entry regions: the straight-line prefix at the PC a run starts
  // from is a superblock candidate once the same entry recurs (tiny
  // straight-line kernels re-run per tick live entirely in such a block).
  if constexpr (kTranslate) {
    if (static_cast<unsigned>(pc) < codeSize && blockMap[pc] < 0 &&
        trans_.noteEntry(pc))
      trans_.tryFormEntry(decoded_, pc);
  }

  try {
    VM_FETCH();

    // Superblock execution, out of line from the per-handler fetch sites
    // (VM_FETCH jumps here when the pending-repeat-free fetch PC keys a
    // block; a pending repeat applies to the instruction about to be
    // fetched, and superblocks model single execution, so repeated entries
    // stay on the decoded path). The budget and PC-range checks already
    // passed at the jumping fetch site.
  vm_block:
    __attribute__((unused));  // label is unreferenced when !kTranslate
    if constexpr (kTranslate) {
      {
        Superblock& b = trans_.block(blockMap[pc]);
        if (b.kind == Superblock::Kind::Entry) {
          // Entry blocks (single straight-line pass, None/Halt close) are
          // walked right here, fully inlined: no out-of-line call, no state
          // marshalling. Tiny run-entry kernels execute one such block per
          // run and are dominated by fixed per-run cost, so this path is
          // what makes them faster than the decoded loop; the out-of-line
          // threaded executor keeps the multi-pass Loop/Rpt blocks, where
          // per-op dispatch quality dominates instead.
          if (res.cycles + b.maxCyclesPerPass > maxCycles) {
            ++trans_.counters().deopts;
            goto vm_block_stay;
          }
          ++trans_.counters().blockRuns;
          const TransOp* op = b.body.data();
          int sub = 0;
          int64_t extra = 0;
          // The block engine's XY hook (shadowing the decoded one): charge
          // the worst case up front, refund when the banks differ.
          auto xyConflict = [&](bool conflict) {
            if (!conflict) extra -= 1;
          };
          try {
            for (;; sub = 0, ++op) {
              switch (op->kind) {
#define VM_ENTRY_OP(k)             \
  case TK::k: {                    \
    RECORD_SEM_##k(op->a, op->b);  \
  } break;
                RECORD_TB_KINDS(VM_ENTRY_OP)
#undef VM_ENTRY_OP
                case TK::End:
                  goto vm_entry_close;
                default:
                  __builtin_unreachable();  // drops the jump-table range check
              }
            }
          vm_entry_close:
            // Pass done: fold the precomputed totals (worst-case cycles
            // corrected by the XY bank discounts) plus the close into the
            // run ledger, one update per counter.
            ++b.passes;
            if (b.close == Superblock::Close::Halt) {
              res.cycles += b.passCycles + extra + b.ctlCyc;
              res.instructions += b.passInsns + 1;
              trans_.counters().blockInstructions += b.passInsns + 1;
              pc = b.closePc;
              res.status = RunStatus::Halted;
              res.halted = true;
              flush();
              return res;
            }
            res.cycles += b.passCycles + extra;
            res.instructions += b.passInsns;
            trans_.counters().blockInstructions += b.passInsns;
            pc = b.exitPc;
          } catch (...) {
            // Mid-pass trap: reconstruct the exact decoded-loop ledger and
            // PC from the faulting op's worst-case prefix plus the retired
            // fused halves (same contract as runSuperblock's catch); the
            // outer catch then flushes the partial architectural state the
            // locals already hold.
            res.cycles += op->cPre + extra + sub;
            res.instructions += op->nPre + sub;
            trans_.counters().blockInstructions += op->nPre + sub;
            pc = b.entry + op->nPre + sub;
            throw;
          }
          VM_FETCH();
        }

        SimState st{acc, tr, pr, ovm, sxm, pc};
        BlockExit ex;
        try {
          ex = runSuperblock(b, prog_.config, mem.data, mem.size, mem.ar, st,
                             maxCycles, res.cycles, res.instructions,
                             trans_.counters());
        } catch (...) {
          // Trap inside the block: adopt the written-back state so the
          // outer catch flushes exactly what the decoded loop would have.
          acc = st.acc;
          tr = st.t;
          pr = st.p;
          ovm = st.ovm;
          sxm = st.sxm;
          pc = st.pc;
          throw;
        }
        acc = st.acc;
        tr = st.t;
        pr = st.p;
        ovm = st.ovm;
        sxm = st.sxm;
        pc = st.pc;
        if (ex == BlockExit::Flow) VM_FETCH();
      }
      // BlockExit::Stay (or the inline pre-check above bailing): a
      // worst-case pass might overrun the budget, so replay this iteration
      // from the block entry (pc == entry) on the decoded path, which
      // re-checks the budget per fetch. The budget must be re-tested first
      // -- a deopt can land exactly on exhaustion (completed passes consumed
      // the whole budget), where the decoded loop stops at this fetch. The
      // PC-range check already passed, and the block check is skipped on
      // purpose (re-running VM_FETCH would re-enter the block and spin).
    vm_block_stay:
      __attribute__((unused));
      if (res.cycles >= maxCycles) goto budget_exhausted;
      pcThis = pc;
      d = ops + pc;
      repsLeft = 1;  // blocks are only entered with no pending repeat
      pendingRpt = 0;
      branched = false;
      cyc = d->cyc;
      VM_DISPATCH();
    }

    // Straight-line opcodes: one handler per RECORD_SEM body.
#define VM_BODY(n)                 \
  VM_CASE(n) {                     \
    RECORD_SEM_##n(d->a, d->b);    \
  }                                \
  VM_NEXT();
    RECORD_OPCODES(VM_BODY, RECORD_SIM_NONE)
#undef VM_BODY

    VM_CASE(B) { VM_TAKE_BRANCH(); }
    VM_NEXT();
    VM_CASE(BZ) {
      if (acc == 0) VM_TAKE_BRANCH();
    }
    VM_NEXT();
    VM_CASE(BGEZ) {
      if (acc >= 0) VM_TAKE_BRANCH();
    }
    VM_NEXT();
    VM_CASE(BANZ) {
      int& reg = mem.ar[d->a.val];
      if (reg != 0) {
        reg = (reg - 1) & 0xffff;
        VM_TAKE_BRANCH();
      }
    }
    VM_NEXT();
    VM_CASE(RPT) { pendingRpt = d->a.val; }
    VM_NEXT();
    VM_CASE(HALT) {
      res.status = RunStatus::Halted;
      res.halted = true;
      res.cycles += cyc;
      ++res.instructions;
      if constexpr (kProfile) activeProfile_->commit(pcThis, d->op, cyc, 1);
      flush();
      return res;
    }
    // Decode-level trap sink (invalid operand for the effective opcode,
    // fault-injected branch without target, negative RPT count): the
    // faulting instruction never retires.
    VM_CASE(TRAP) {
      res.status = RunStatus::Trapped;
      res.trapped = true;
      res.trapReason = trapMsgs_[static_cast<size_t>(d->a.val)];
      flush();
      return res;
    }
  } catch (const std::exception& e) {
    // The faulting instruction never retired: its cycles were not charged,
    // so the ledger (and any attached profile) stays consistent. State is
    // flushed as-is -- a partially-executed instruction keeps its partial
    // effects, exactly like the pre-decode loop.
    if constexpr (kProfile) activeProfile_->abortPending();
    flush();
    res.status = RunStatus::Trapped;
    res.trapped = true;
    res.trapReason = e.what();
    return res;
  }

budget_exhausted:
  flush();
  res.status = RunStatus::Budget;
  res.trapReason = "cycle budget exhausted";
  return res;

pc_range:
  flush();
  res.status = RunStatus::Trapped;
  res.trapped = true;
  res.trapReason = "PC out of range";
  return res;
}

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_FETCH
#undef VM_NEXT
#undef VM_TAKE_BRANCH

}  // namespace record

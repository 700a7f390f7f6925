// Cycle-counting instruction-set simulator for tdsp programs. This is the
// measurement substrate for every experiment: code size comes from the
// TargetProgram, cycles from running here, and correctness from comparing
// memory/outputs against the IR golden-model interpreter.
//
// The core is a decode-once interpreter: at construction every Instr is
// lowered into a flat DecodedOp (resolved handler index, pre-split operand
// kind/value/post-modification, resolved branch target, static cycle hint,
// pre-computed bank ids for dual-operand XY ops), so the hot loop never
// re-touches opInfo, labelIndex, or Operand discriminants. Dispatch is
// computed-goto threaded (see DESIGN.md "Execution core"), and hot regions
// run as superblocks (sim/translate.h) unless setTranslate(false) turns
// translation off. Both paths expand the one definition of each
// instruction in sim/semantics.h. The pre-decode fetch/switch loop survives
// as ReferenceMachine (sim/reference.h), the independent oracle for
// differential pinning and the throughput baseline of bench/sim_throughput.
//
// Host I/O (readData/writeData, readSymbol/writeSymbol) is inline: a
// steady-state symbol access is the memo's name compare, a bounds check and
// a load or store, with no call. The program is fixed for the Machine's
// lifetime: decode, label resolution and the symbol memo all read it once.
//
// A Machine is single-threaded, const accessors included: readSymbol
// updates the symbol memo (sim/symbols.h), so one Machine must not be read
// from two threads at once. Separate Machines over one shared
// TargetProgram are independent.
//
// Fault injection (decode substitution) supports the §4.5 self-test
// experiments: a fault makes one opcode behave as another, and a good
// self-test program must detect it. Faults remap the decoded handler (the
// program is re-decoded on setDecodeFault/clearDecodeFault), not the raw
// opcode in the hot loop; a fault that turns a non-branch into a branch has
// no target to jump to and traps immediately when reached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/semantics.h"
#include "sim/symbols.h"
#include "sim/translate.h"
#include "target/isa.h"

namespace record {

class Profile;

/// How a run ended. Budget exhaustion is a normal (if suspicious) outcome
/// -- the program may simply not have reached HALT yet -- while a trap means
/// the program itself did something illegal.
enum class RunStatus : uint8_t {
  Halted,   // reached HALT
  Trapped,  // illegal data access / bad AR index / PC out of range
  Budget,   // cycle budget exhausted before HALT
};

const char* runStatusName(RunStatus s);

struct RunResult {
  RunStatus status = RunStatus::Budget;
  bool halted = false;       // status == Halted (kept for terse call sites)
  bool trapped = false;      // status == Trapped
  std::string trapReason;
  int64_t cycles = 0;
  int64_t instructions = 0;
};

class Machine {
 public:
  explicit Machine(const TargetProgram& prog);

  /// Reset registers/PC and re-apply the program's data initializers.
  /// Leaves other data memory intact unless `clearData` is set.
  void reset(bool clearData = true);

  // Data-memory access. Words are 16-bit: writeData canonicalizes through
  // wrap16, so storage always holds the sign-extended value of the low 16
  // bits and readData returns it without further extension. The throws
  // are out of line (badRead/badWrite, sim/semantics.h). run() never goes
  // through these host accessors, so an attached profiler never sees them.
  void writeData(int addr, int64_t v) {
    if (static_cast<unsigned>(addr) >= data_.size()) badWrite(addr);
    data_[static_cast<size_t>(addr)] = wrap16(v);
  }
  int64_t readData(int addr) const {
    if (static_cast<unsigned>(addr) >= data_.size()) badRead(addr);
    return data_[static_cast<size_t>(addr)];
  }
  /// Symbol-relative access via the program's layout, resolved through a
  /// per-machine one-entry memo (sim/symbols.h): consecutive words of one
  /// symbol cost an inline name compare, not a symbol-table scan. Throws
  /// "unknown symbol: X" before any range check.
  void writeSymbol(const std::string& sym, int offset, int64_t v) {
    writeData(symbols_.base(sym) + offset, v);
  }
  int64_t readSymbol(const std::string& sym, int offset = 0) const {
    return readData(symbols_.base(sym) + offset);
  }

  RunResult run(int64_t maxCycles = 10'000'000);

  // Architectural state (tests and self-test evaluation).
  int64_t acc() const { return acc_; }
  int64_t treg() const { return t_; }
  int64_t preg() const { return p_; }
  int ar(int i) const { return ar_[static_cast<size_t>(i)]; }
  bool ovm() const { return ovm_; }
  bool sxm() const { return sxm_; }
  int pc() const { return pc_; }

  /// Decode-level fault: every instruction's opcode is remapped through `f`
  /// and the program is re-decoded under the substitution. `f` must be a
  /// pure function of the opcode (every caller's is): it is applied once
  /// per instruction at decode time, not per fetch.
  void setDecodeFault(std::function<Opcode(Opcode)> f) {
    decodeFault_ = std::move(f);
    decodeAll();
  }
  void clearDecodeFault() {
    decodeFault_ = nullptr;
    decodeAll();
  }

  /// Attach an execution profiler (nullptr detaches). The profile must
  /// outlive the run and be built against the same TargetProgram. Profiling
  /// observes only: architectural state and RunResult are bit-identical
  /// with a profile attached or not. The profiled/unprofiled choice is made
  /// once per run() (two specializations of the interpreter loop), so the
  /// disabled path carries zero per-instruction profiling checks -- strictly
  /// cheaper than the historical one-null-check-per-retired-instruction
  /// contract.
  void attachProfile(Profile* p) { profile_ = p; }

  /// Turn hot-region translation on (the default) or off for this
  /// machine. Translation is semantics-neutral (superblocks deopt to the
  /// decoded loop at the exact architectural instant -- see
  /// sim/translate.h); profiled runs always bypass it so per-PC attribution
  /// stays exact.
  void setTranslate(bool on) { translateOn_ = on; }
  bool translateOn() const { return translateOn_; }
  /// Formation/execution counters of this machine's translation set
  /// (reset whenever the program is re-decoded, e.g. by fault injection).
  TranslateStats translateStats() const { return trans_.stats(); }

 private:
  /// The interpreter loop, specialized on whether a profiler is attached
  /// (kProfile false drops every profiling hook at compile time) and on
  /// whether hot-region translation is active (kTranslate false carries no
  /// block checks or promotion counters). Profiling and translation are
  /// mutually exclusive by construction.
  template <bool kProfile, bool kTranslate>
  RunResult runImpl(int64_t maxCycles);

  void decodeAll();
  DecodedOp decodeOne(const Instr& raw, int rawTarget);
  DecodedOp decodeTrap(Opcode eff, std::string why);
  bool decodeRead(const Operand& o, DecOperand* out, std::string* why) const;
  bool decodeAddr(const Operand& o, DecOperand* out, std::string* why) const;

  const TargetProgram& prog_;
  SymbolResolver symbols_;  // writeSymbol/readSymbol name -> base address
  std::function<Opcode(Opcode)> decodeFault_;
  Profile* profile_ = nullptr;  // attached collector (may be null)
  std::vector<int> rawTarget_;  // per instruction, label-resolved at
                                // construction; -1 if not a branch
  std::vector<DecodedOp> decoded_;
  TranslationSet trans_;     // superblocks over decoded_; rebuilt on decode
  bool translateOn_ = true;  // runtime switch (setTranslate)
  std::vector<std::string> trapMsgs_;  // decode-trap reasons, by a.val
  std::vector<int64_t> data_;
  int64_t acc_ = 0, t_ = 0, p_ = 0;
  std::vector<int> ar_;
  bool ovm_ = false, sxm_ = false;
  int pc_ = 0;
};

}  // namespace record

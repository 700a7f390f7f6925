// Pre-decode reference simulator: the original fetch/decode/switch loop
// that Machine (sim/machine.h) replaced with a decode-once core. It is
// kept, bit-identical in architectural semantics, for two jobs:
//
//   1. Differential pinning -- sim_test and the difftest oracle run every
//      program on both engines and require identical RunResult and
//      architectural state (compareSimEngines in dspstone/harness.h).
//   2. The throughput baseline -- bench/sim_throughput measures decoded
//      instructions/sec against this loop and asserts the speedup.
//
// It re-resolves opInfo, labels, and operand discriminants on every fetch
// (that is the point: it IS the cost model being beaten), but carries the
// same interpreter-loop semantics as Machine, including the fixes for
// negative RPT counts, per-repeat `branched` reset, the LTD single
// architectural read, and the immediate trap for fault-injected branches
// without a target.
//
// Symbol I/O is not part of that cost model: writeSymbol/readSymbol share
// Machine's per-engine memoized SymbolResolver (sim/symbols.h), so a
// ReferenceMachine is single-threaded in the same way, const accessors
// included.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/symbols.h"
#include "target/isa.h"

namespace record {

class Profile;

class ReferenceMachine {
 public:
  explicit ReferenceMachine(const TargetProgram& prog);

  /// Reset registers/PC and re-apply the program's data initializers.
  /// Leaves other data memory intact unless `clearData` is set.
  void reset(bool clearData = true);

  // Data-memory access. Words are 16-bit: writeData canonicalizes through
  // wrap16, so storage always holds the sign-extended value of the low 16
  // bits and readData returns it without further extension.
  void writeData(int addr, int64_t v);
  int64_t readData(int addr) const;
  void writeSymbol(const std::string& sym, int offset, int64_t v);
  int64_t readSymbol(const std::string& sym, int offset = 0) const;

  RunResult run(int64_t maxCycles = 10'000'000);

  int64_t acc() const { return acc_; }
  int64_t treg() const { return t_; }
  int64_t preg() const { return p_; }
  int ar(int i) const { return ar_[static_cast<size_t>(i)]; }
  bool ovm() const { return ovm_; }
  bool sxm() const { return sxm_; }
  int pc() const { return pc_; }

  /// Decode-level fault: every fetched opcode is remapped through `f`.
  /// Unlike Machine, the remap is applied per fetch (no decoded program to
  /// rebuild) -- observable behavior is the same for pure `f`.
  void setDecodeFault(std::function<Opcode(Opcode)> f) {
    decodeFault_ = std::move(f);
  }
  void clearDecodeFault() { decodeFault_ = nullptr; }

  /// Attach an execution profiler (nullptr detaches). Same contract as
  /// Machine::attachProfile.
  void attachProfile(Profile* p) { profile_ = p; }

 private:
  int resolveAddr(const Operand& o);  // applies post-modification
  int64_t readOperand(const Operand& o);
  int& arAt(int idx);
  int64_t ovmAdd(int64_t a, int64_t b) const;
  int64_t ovmSub(int64_t a, int64_t b) const;

  const TargetProgram& prog_;
  SymbolResolver symbols_;  // writeSymbol/readSymbol name -> base address
  std::function<Opcode(Opcode)> decodeFault_;
  Profile* profile_ = nullptr;
  Profile* activeProfile_ = nullptr;
  std::vector<int> branchTarget_;  // per instruction, -1 if not a branch
  std::vector<int64_t> data_;
  int64_t acc_ = 0, t_ = 0, p_ = 0;
  std::vector<int> ar_;
  bool ovm_ = false, sxm_ = false;
  int pc_ = 0;
};

}  // namespace record

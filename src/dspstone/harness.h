// Measurement & verification harness shared by tests and benches: runs a
// compiled (or hand-written) tdsp program against the IR golden-model
// interpreter on the same stimulus and reports size/cycles plus any
// mismatch. This is how every Table-1 number in the benches is validated
// before being reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.h"
#include "target/isa.h"

namespace record {

class Machine;
class Profile;
class ReferenceMachine;
struct RunResult;

struct Stimulus {
  // Array inputs (and initial var contents), by symbol name.
  std::map<std::string, std::vector<int64_t>> arrays;
  // Scalar input streams: element t is the value at tick t. A single-element
  // vector acts as a constant input.
  std::map<std::string, std::vector<int64_t>> scalars;
  int ticks = 1;
};

struct Measurement {
  bool ok = false;          // simulated outputs match the golden model
  std::string error;        // first mismatch / trap description
  int sizeWords = 0;        // program-memory words
  int64_t cycles = 0;       // total simulator cycles over all ticks
  int64_t instructions = 0;
};

/// Run `tp` against the golden model of `prog` on `stim`. The target
/// program must lay out every program symbol by name (compiled programs and
/// the in-tree reference assemblies both do). When `profile` is non-null it
/// is attached to the simulator for every tick, accumulating an execution
/// profile across the whole stimulus (it must be built against `tp`).
Measurement runAndCompare(const TargetProgram& tp, const Program& prog,
                          const Stimulus& stim, Profile* profile = nullptr);

/// Deterministic pseudo-random stimulus for a program: fills every input
/// with small values (safe against 16-bit accumulation overflow) derived
/// from `seed`.
Stimulus defaultStimulus(const Program& prog, uint32_t seed = 1,
                         int ticks = 4);

/// Run `tp` on `stim` under all three simulator engines -- the decode-once
/// Machine with superblock translation forced on, the same Machine with
/// translation forced off, and the pre-decode ReferenceMachine -- and
/// require bit-identical behavior: same RunResult (status, trap reason,
/// cycles, instructions), same architectural state (ACC/T/P/ARs/OVM/SXM/PC),
/// and same full data memory after every tick. Returns "" when identical,
/// else a description of the first divergence. Used by sim_test,
/// translate_test, the difftest oracle, and bench/sim_throughput's
/// verification pass; this is what keeps translation honest (see
/// sim/translate.h's deopt contract).
std::string compareSimEngines(const TargetProgram& tp, const Stimulus& stim);

/// The check compareSimEngines makes after each tick, for one run of `m`
/// against one of `ref` (both over `tp`): same RunResult, architectural
/// state and full data memory. "" when identical, else the first
/// divergence.
std::string compareWithReference(Machine& m, const RunResult& rm,
                                 ReferenceMachine& ref, const RunResult& rr,
                                 const TargetProgram& tp);

}  // namespace record

// Execution profiler for the tdsp simulator: attributes every retired cycle
// to the instruction (PC) that spent it and rolls the totals up three ways --
// per opcode class (MAC pipeline / accumulator ALU / memory movement / AGU /
// branch / mode / control), per memory bank (access and same-bank-conflict
// counts), and per originating DFL source line via the debug info the code
// generator stamps on every emitted instruction (Instr::srcLine). It also
// detects hot back-edges (taken branches to a lower PC) and estimates loop
// trip counts from their taken/fall-through ratios.
//
// This is the DSPStone methodology applied to our own generated code: the
// paper's headline numbers (2-8x naive overhead, Table 1 ratios) are cycle
// measurements, and the profiler answers *where* those cycles go -- "78% of
// cycles: fir:12" -- instead of leaving only the aggregate RunResult.
//
// Design constraints (mirroring src/trace for compilation observability):
//
//   * Zero cost when disabled. The Machine picks a profiling-free
//     specialization of its interpreter loop once per run() when no profiler
//     is attached, so the disabled path carries no per-instruction profiling
//     checks at all (bounded by bench/overhead_cycles.cpp); RunResult and
//     all architectural state are bit-identical with profiling on or off
//     (asserted by tests/profile_test.cpp).
//
//   * Exact accounting. Per-PC cycle totals sum to RunResult::cycles, per
//     opcode class and per source line likewise (line 0 collects compiler
//     scaffolding with no source attribution). The Machine commits an
//     instruction's cycles to the profile at the same point it adds them to
//     RunResult, so trapped and budget-exhausted runs balance too.
//
//   * Observation only. The profiler never feeds back into simulation.
//
// Three sinks render a finished profile: text() for humans (hot-spot table),
// statsJson() for the bench artifacts, and chromeJson() for
// chrome://tracing / Perfetto (one 'X' span per retired instruction on a
// cycle-accurate timeline, capped by ProfileOptions::timelineLimit and
// schema-checked by validateChromeTrace).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "target/isa.h"

namespace record {

struct ProfileOptions {
  /// Maximum spans kept for the Chrome timeline (the histograms are always
  /// complete). 0 disables timeline recording. When the timeline fills,
  /// repeated loop iterations are collapsed into aggregated spans
  /// (iteration count + summed cycles) instead of truncating; only when
  /// collapsing cannot shrink the timeline (straight-line code) does
  /// recording saturate at the limit.
  int timelineLimit = 4096;
};

/// One branch instruction's runtime behaviour. A back-edge (target <= pc)
/// closes a loop; `taken / max(1, executed - taken)` then estimates the
/// average trip count per loop entry.
struct BranchProfile {
  int pc = 0;
  int target = 0;
  int64_t executed = 0;  // times the branch instruction retired
  int64_t taken = 0;     // times it actually branched

  bool isBackEdge() const { return target <= pc; }
};

/// One span on the cycle timeline: a single retired instruction
/// (iterations == 1), or -- after the timeline fills and loop collapsing
/// kicks in -- an aggregate of `iterations` repeats of the PC range
/// [pc, endPc] (cycles and instructions summed over every repeat).
struct TimelineEvent {
  int pc = 0;
  int endPc = 0;  // == pc for a single instruction
  Opcode op = Opcode::NOP;
  int64_t startCycle = 0;
  int64_t cycles = 0;
  int64_t iterations = 1;    // loop repeats aggregated into this span
  int64_t instructions = 1;  // retired instructions covered

  bool isAggregate() const { return iterations > 1; }
};

class Machine;

class Profile {
 public:
  explicit Profile(const TargetProgram& prog, ProfileOptions opt = {});

  // ---- Machine hooks ------------------------------------------------------
  // Bank accesses and conflicts accumulate into a pending buffer that
  // commit() folds into the totals together with the instruction's cycles;
  // abortPending() drops it when an instruction traps mid-execution (its
  // cycles never reach RunResult, so they must not reach the profile).
  void noteAccess(int addr);
  void noteConflict();
  void noteBranch(int pc, int target, bool taken);
  void commit(int pc, Opcode op, int64_t cycles, int64_t instructions);
  void abortPending();

  // ---- totals -------------------------------------------------------------
  int64_t totalCycles() const { return totalCycles_; }
  int64_t totalInstructions() const { return totalInstructions_; }

  const std::vector<int64_t>& pcCycles() const { return pcCycles_; }
  const std::vector<int64_t>& pcCounts() const { return pcCounts_; }

  int64_t classCycles(OpClass c) const {
    return classCycles_[static_cast<size_t>(c)];
  }
  int64_t classCounts(OpClass c) const {
    return classCounts_[static_cast<size_t>(c)];
  }

  int banks() const { return static_cast<int>(bankAccesses_.size()); }
  int64_t bankAccesses(int bank) const {
    return bankAccesses_[static_cast<size_t>(bank)];
  }
  int64_t bankConflicts() const { return bankConflicts_; }

  /// Cycles by DFL source line (key 0 = unattributed compiler scaffolding).
  /// Values always sum to totalCycles().
  std::map<int, int64_t> lineCycles() const;

  /// All branch PCs that executed at least once, by PC.
  std::vector<BranchProfile> branchProfiles() const;
  const std::vector<TimelineEvent>& timeline() const { return timeline_; }

  /// "source:line" attribution of one instruction, "" when unknown.
  std::string locOf(int pc) const;

  // ---- sinks --------------------------------------------------------------
  /// Human-readable hot-spot report: totals, per-source-line and per-PC
  /// cycle tables (top `topN`), opcode-class and bank histograms, hot
  /// back-edges with trip-count estimates.
  std::string text(int topN = 10) const;
  /// Flat stats object for the bench artifacts.
  std::string statsJson() const;
  /// Chrome trace_event JSON array: one 'X' complete event per retired
  /// instruction (1 cycle = 1 us), capped at ProfileOptions::timelineLimit,
  /// plus one 'C' counter event per opcode class. Valid input for
  /// chrome://tracing, Perfetto, and validateChromeTrace().
  std::string chromeJson() const;

 private:
  const TargetProgram& prog_;
  ProfileOptions opt_;

  std::vector<int64_t> pcCycles_;
  std::vector<int64_t> pcCounts_;
  int64_t classCycles_[kNumOpClasses] = {};
  int64_t classCounts_[kNumOpClasses] = {};
  std::vector<int64_t> bankAccesses_;
  int64_t bankConflicts_ = 0;
  int64_t totalCycles_ = 0;
  int64_t totalInstructions_ = 0;

  // Pending (uncommitted) counts of the instruction currently executing.
  std::vector<int64_t> pendingBank_;
  int64_t pendingConflicts_ = 0;

  struct BranchCounts {
    int target = 0;
    int64_t executed = 0;
    int64_t taken = 0;
  };
  std::map<int, BranchCounts> branches_;

  /// Collapse repeated loop iterations in the full timeline into aggregate
  /// spans (see ProfileOptions::timelineLimit). Called by commit() when the
  /// timeline reaches the limit.
  void collapseTimeline();

  std::vector<TimelineEvent> timeline_;
  bool timelineSaturated_ = false;  // collapsing stopped shrinking
};

}  // namespace record

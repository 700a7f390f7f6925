// E7 -- compile-throughput trajectory: the fast path (hash-consed IR +
// BURS label memo + branch-and-bound + parallel variant search) against the
// flags-off sequential search, over the ten DSPStone kernels and the
// retargeting sweep, at the paper's full rewriteBudget = 48.
//
// Every number is verified before it is timed: each kernel is compiled once
// on both paths, checked against the golden model, and the two programs are
// required to be byte-identical (the fast path is an optimization of the
// search, never of the answer).
//
// Run `./compile_throughput` to print the headline speedup and the Google
// Benchmark table; JSON lands in BENCH_compile_throughput.json (override
// with --benchmark_out=...).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "benchutil.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/kernels.h"

namespace record {
namespace {

CodegenOptions slowOptions() {
  CodegenOptions o;
  o.rewriteBudget = 48;
  o.internExprs = false;
  o.memoLabels = false;
  o.pruneSearch = false;
  o.cacheRules = false;
  o.searchThreads = 1;
  return o;
}

CodegenOptions fastOptions() {
  CodegenOptions o;
  o.rewriteBudget = 48;
  o.internExprs = true;
  o.memoLabels = true;
  o.pruneSearch = true;
  o.cacheRules = true;
  o.searchThreads = 0;  // one per hardware thread
  return o;
}

const std::vector<Program>& suitePrograms() {
  static const std::vector<Program>* progs = [] {
    auto* v = new std::vector<Program>();
    for (const Kernel& k : dspstoneKernels())
      v->push_back(dfl::parseDflOrDie(k.dfl));
    return v;
  }();
  return *progs;
}

/// The retarget sweep's core variants (a subset of bench/retarget_sweep.cpp
/// large enough to dominate on search cost).
std::vector<TargetConfig> sweepConfigs() {
  TargetConfig base;
  TargetConfig dual;
  dual.hasDualMul = true;
  dual.memBanks = 2;
  TargetConfig nosat;
  nosat.hasSat = false;
  TargetConfig lean;
  lean.hasRpt = false;
  lean.hasDmov = false;
  lean.numAddrRegs = 2;
  return {base, dual, nosat, lean};
}

/// One sustained-compilation pass: the whole DSPStone suite through one
/// long-lived compiler (the architecture-exploration scenario -- the same
/// kernels are recompiled over and over, so the fast path's cross-compile
/// caches are allowed to do their job; the flags-off path has none).
void compileSuite(const RecordCompiler& rc) {
  for (const Program& p : suitePrograms()) {
    auto res = rc.compile(p);
    benchmark::DoNotOptimize(res.prog.code.data());
  }
}

void verifyOnce() {
  TargetConfig cfg;
  const auto& ks = dspstoneKernels();
  const auto& progs = suitePrograms();
  for (size_t i = 0; i < ks.size(); ++i) {
    auto fast = RecordCompiler(cfg, fastOptions()).compile(progs[i]);
    auto slow = RecordCompiler(cfg, slowOptions()).compile(progs[i]);
    if (fast.prog.listing() != slow.prog.listing()) {
      std::fprintf(stderr, "FATAL: fast path diverged on %s\n",
                   ks[i].name.c_str());
      std::exit(1);
    }
    auto m = runAndCompare(fast.prog, progs[i],
                           defaultStimulus(progs[i], 1, ks[i].ticks));
    if (!m.ok) {
      std::fprintf(stderr, "FATAL: %s failed verification: %s\n",
                   ks[i].name.c_str(), m.error.c_str());
      std::exit(1);
    }
  }
}

/// Fold one compile's stats into a suite total: every field
/// bench::recordCompileStats reports.
void accumulate(CompileStats& total, const CompileStats& s) {
  total.sizeWords += s.sizeWords;
  total.statements += s.statements;
  total.variantsTried += s.variantsTried;
  total.variantsPruned += s.variantsPruned;
  total.patternsUsed += s.patternsUsed;
  total.memoHits += s.memoHits;
  total.memoMisses += s.memoMisses;
  total.msRewrite += s.msRewrite;
  total.msSearch += s.msSearch;
  total.msReduce += s.msReduce;
  total.msLate += s.msLate;
}

bench::DualTimes timesOf(const std::function<void()>& fn, int reps) {
  bench::DualTimer t;
  for (int i = 0; i < reps; ++i) fn();
  return t.elapsed();
}

void printHeadline() {
  TargetConfig cfg;
  const int reps = 20;
  RecordCompiler fastRc(cfg, fastOptions());
  RecordCompiler slowRc(cfg, slowOptions());
  // Warm up (fast-path caches, thread pool, first-touch allocations).
  compileSuite(fastRc);
  compileSuite(slowRc);
  auto slowT = timesOf([&] { compileSuite(slowRc); }, reps);
  auto fastT = timesOf([&] { compileSuite(fastRc); }, reps);
  double slow = slowT.steadySec;
  double fast = fastT.steadySec;
  bench::hr();
  std::printf(
      "DSPStone suite compile x%d @ rewriteBudget=48: "
      "flags-off %.3fs, fast path %.3fs  ->  %.2fx speedup "
      "(wall %.3fs / %.3fs)\n",
      reps, slow, fast, slow / fast, slowT.wallSec, fastT.wallSec);
  auto& g = bench::globalStats();
  g.set("headline", "reps", reps);
  g.set("headline", "slow_steady_sec", slow);
  g.set("headline", "fast_steady_sec", fast);
  g.set("headline", "slow_wall_sec", slowT.wallSec);
  g.set("headline", "fast_wall_sec", fastT.wallSec);
  g.set("headline", "speedup", slow / fast);

  // Where the time went (one warm compile of the whole suite, per path).
  CompileStats total;
  CompileStats slowTotal;
  for (const Program& p : suitePrograms()) {
    accumulate(total, fastRc.compile(p).stats);
    accumulate(slowTotal, slowRc.compile(p).stats);
  }
  std::printf(
      "phase ms (fast): rewrite %.2f search %.2f reduce %.2f late %.2f\n",
      total.msRewrite, total.msSearch, total.msReduce, total.msLate);
  std::printf(
      "phase ms (slow): rewrite %.2f search %.2f reduce %.2f late %.2f\n",
      slowTotal.msRewrite, slowTotal.msSearch, slowTotal.msReduce,
      slowTotal.msLate);
  bench::recordCompileStats("suite_fast", total);
  bench::recordCompileStats("suite_slow", slowTotal);
  bench::hr();
}

/// The search work of one cold pass over the suite per path, the numbers
/// EXPERIMENTS.md pins. The fast path searches on one thread here: each
/// parallel search worker keeps its own label memo, so the memo counts of
/// the parallel search depend on the host's thread count.
void printWork() {
  using bench::cell;
  CodegenOptions seq = fastOptions();
  seq.searchThreads = 1;
  bench::MdTable t({"DSPStone suite, budget 48", "code words",
                    "variants tried", "pruned", "memo hits", "memo misses"});
  for (const auto& [path, opt] :
       {std::pair<const char*, CodegenOptions>{"flags-off", slowOptions()},
        {"fast path, 1 search thread", seq}}) {
    RecordCompiler rc(TargetConfig{}, opt);
    CompileStats s;
    for (const Program& p : suitePrograms()) accumulate(s, rc.compile(p).stats);
    t.add({path, cell("%d", s.sizeWords), cell("%d", s.variantsTried),
           cell("%d", s.variantsPruned),
           cell("%lld", static_cast<long long>(s.memoHits)),
           cell("%lld", static_cast<long long>(s.memoMisses))});
  }
  t.print();
}

void BM_CompileSuite(benchmark::State& state, const CodegenOptions& opt) {
  TargetConfig cfg;
  RecordCompiler rc(cfg, opt);
  for (auto _ : state) compileSuite(rc);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(suitePrograms().size()));
}

/// Exploration scenario: every iteration retargets to each core variant
/// with a fresh compiler (cold caches per config; warm across the ten
/// kernels within one config).
void BM_RetargetSweep(benchmark::State& state, const CodegenOptions& opt) {
  auto cfgs = sweepConfigs();
  for (auto _ : state)
    for (const TargetConfig& cfg : cfgs) {
      RecordCompiler rc(cfg, opt);
      compileSuite(rc);
    }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(cfgs.size() * suitePrograms().size()));
}

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::verifyOnce();
  record::printHeadline();
  record::printWork();

  benchmark::RegisterBenchmark("dspstone_suite/flags_off", [](auto& st) {
    record::BM_CompileSuite(st, record::slowOptions());
  });
  benchmark::RegisterBenchmark("dspstone_suite/fast_path", [](auto& st) {
    record::BM_CompileSuite(st, record::fastOptions());
  });
  benchmark::RegisterBenchmark("retarget_sweep/flags_off", [](auto& st) {
    record::BM_RetargetSweep(st, record::slowOptions());
  });
  benchmark::RegisterBenchmark("retarget_sweep/fast_path", [](auto& st) {
    record::BM_RetargetSweep(st, record::fastOptions());
  });

  // Default the JSON artifact unless the caller picked their own output.
  std::vector<char*> args(argv, argv + argc);
  std::string outFlag = "--benchmark_out=BENCH_compile_throughput.json";
  std::string fmtFlag = "--benchmark_out_format=json";
  bool hasOut = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) hasOut = true;
  if (!hasOut) {
    args.push_back(outFlag.data());
    args.push_back(fmtFlag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("compile_throughput");
  return 0;
}

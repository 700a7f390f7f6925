// A2 -- code compaction ablation (§3.3: combining sequential operations into
// the parallel LTA/LTP/LTD/MACXY instructions; Leupers/Timmer/Strik):
// kernel code size with compaction disabled, greedy adjacent-pair merging
// ("list"), and the optimal branch-and-bound reordering.
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

void printTable() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Compaction ablation: code size in words (RECORD pipeline)\n\n");
  MdTable t({"program", "none", "list", "optimal", "merges"});
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    CodegenOptions none = recordOptions();
    none.compaction = CompactMode::None;
    CodegenOptions list = recordOptions();
    list.compaction = CompactMode::List;
    CodegenOptions opt = recordOptions();
    opt.compaction = CompactMode::Optimal;
    auto mn =
        measureCompiled(prog, cfg, none, k.ticks, k.name.c_str());
    auto ml =
        measureCompiled(prog, cfg, list, k.ticks, k.name.c_str());
    auto mo =
        measureCompiled(prog, cfg, opt, k.ticks, k.name.c_str());
    auto stats = RecordCompiler(cfg, opt).compile(prog).stats;
    t.add({k.name, cell("%d", mn.size), cell("%d", ml.size),
           cell("%d", mo.size), cell("%d", stats.compacted.merges)});
  }
  t.print();
  std::printf(
      "\nNot taking advantage of instruction-level parallelism \"means\n"
      "loosing a factor of two in the performance\" (§3.3) -- here it\n"
      "shows as the none-vs-optimal gap on MAC-heavy kernels.\n\n");
}

void BM_CompactList(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  CodegenOptions o = recordOptions();
  o.compaction = CompactMode::List;
  RecordCompiler rc(cfg, o);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_CompactList)->Arg(1)->Arg(4)->Arg(6);

void BM_CompactOptimal(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  CodegenOptions o = recordOptions();
  o.compaction = CompactMode::Optimal;
  RecordCompiler rc(cfg, o);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_CompactOptimal)->Arg(1)->Arg(4)->Arg(6);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("ablation_compaction");
  return 0;
}

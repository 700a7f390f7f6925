// A6 -- cost-model ablation: §3.2 demands both "extremely compact" and
// "extremely fast" code; the BURS matcher and the loop transforms take the
// objective as a parameter. Optimizing for cycles buys speed (MAC rotation,
// pipelined loops) at a small size cost -- the classic embedded trade-off.
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

void printTable() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Cost-model ablation: optimize for size vs. cycles (RECORD "
      "pipeline)\n\n");
  MdTable t({"program", "size-opt words", "cycles", "cycle-opt words",
             "cycles"});
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    CodegenOptions sizeOpt = recordOptions();
    sizeOpt.cost = CostKind::Size;
    CodegenOptions cycOpt = recordOptions();
    cycOpt.cost = CostKind::Cycles;
    auto ms = measureCompiled(prog, cfg, sizeOpt, k.ticks, k.name.c_str());
    auto mc = measureCompiled(prog, cfg, cycOpt, k.ticks, k.name.c_str());
    t.add({k.name, cell("%d", ms.size),
           cell("%lld", static_cast<long long>(ms.cycles)),
           cell("%d", mc.size),
           cell("%lld", static_cast<long long>(mc.cycles))});
  }
  t.print();
  std::printf(
      "\n\"The need for generating extremely fast code should have priority\n"
      "over the desire for short compilation times\" (§3.2) -- and the\n"
      "objective itself is a compiler parameter here.\n\n");
}

void BM_SizeVsCycles(benchmark::State& state) {
  const Kernel& k = kernelByName("convolution");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  CodegenOptions o = recordOptions();
  o.cost = state.range(0) ? CostKind::Cycles : CostKind::Size;
  RecordCompiler rc(cfg, o);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(state.range(0) ? "cycles" : "size");
}
BENCHMARK(BM_SizeVsCycles)->Arg(0)->Arg(1);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("ablation_costmodel");
  return 0;
}

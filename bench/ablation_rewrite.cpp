// A5 -- the rewrite loop of §4.3.3: "RECORD uses algebraic rules for
// transforming the original data flow tree into equivalent ones and calls
// the iburg-matcher with each tree." Sweeping the variant budget shows how
// much the enumeration of the algebraic neighbourhood buys over matching
// only the canonical tree (budget 1).
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

const int kBudgets[] = {1, 2, 4, 8, 16, 32, 64, 128};

// Programs whose parse tree is NOT the cheapest cover -- the cases §4.3.3's
// transformation loop exists for. The pipeline's normalizeSums pass already
// rebuilds +/- chains left-leaning (and a + (-b) as a - b) before the loop
// runs, so the sums among them cover cheaply at budget 1. (The DSPStone
// kernels below are written accumulator-style and parse left-leaning, so
// BURS finds the best cover at budget 1 there too: an honest finding.)
struct Showcase {
  const char* name;
  const char* src;
};
const Showcase kShowcases[] = {
    {"right_leaning_sum",
     "program s1; input a : fix; input b : fix; input c : fix; "
     "input d : fix; output y : fix; begin y := a + (b + (c + d)); end"},
    {"commuted_mac",
     "program s2; input a : fix; input b : fix; input c : fix; "
     "output y : fix; begin y := a*b + c; end"},
    {"mul_by_pow2",
     "program s3; input a : fix; output y : fix; "
     "begin y := a * 4; end"},
    {"factorable",
     "program s4; input a : fix; input b : fix; input c : fix; "
     "output y : fix; begin y := a*c + b*c; end"},
    {"add_of_neg",
     "program s5; input a : fix; input b : fix; output y : fix; "
     "begin y := a + (-b); end"},
};

/// One row: `prog`'s code words at every budget of kBudgets.
std::vector<std::string> sweepRow(const char* name, const Program& prog,
                                  int ticks) {
  TargetConfig cfg;
  std::vector<std::string> row = {name};
  for (int b : kBudgets) {
    CodegenOptions o = recordOptions();
    o.rewriteBudget = b;
    row.push_back(
        bench::cell("%d", bench::measureCompiled(prog, cfg, o, ticks, name)
                              .size));
  }
  return row;
}

void printTable() {
  using namespace record::bench;
  std::vector<std::string> header = {"program"};
  for (int b : kBudgets) header.push_back(cell("%d", b));
  std::printf(
      "Rewrite-budget sweep on transformation-sensitive programs "
      "(code words)\n\n");
  MdTable showcases(header);
  for (const auto& sc : kShowcases)
    showcases.add(sweepRow(sc.name, dfl::parseDflOrDie(sc.src), 2));
  showcases.print();
  std::printf(
      "\nRewrite-budget sweep: code size in words per kernel (RECORD)\n\n");
  MdTable kernels(header);
  for (const auto& k : dspstoneKernels())
    kernels.add(sweepRow(k.name.c_str(), dfl::parseDflOrDie(k.dfl), k.ticks));
  kernels.print();
  std::printf(
      "\nThis works \"due to the high speed of iburg-based matchers\" "
      "(§4.3.3);\nsee the timing benchmarks below.\n\n");
}

void BM_RewriteBudget(benchmark::State& state) {
  const Kernel& k = kernelByName("iir_biquad_one_section");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  CodegenOptions o = recordOptions();
  o.rewriteBudget = static_cast<int>(state.range(0));
  RecordCompiler rc(cfg, o);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.variantsTried);
  }
}
BENCHMARK(BM_RewriteBudget)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("ablation_rewrite");
  return 0;
}

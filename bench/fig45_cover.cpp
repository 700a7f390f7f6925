// E4 -- Figs. 4/5: covering a data-flow tree with instruction patterns.
// Shows the BURS cover chosen for a Fig.-4-style expression (refs, constants,
// adds and multiplies), the pattern count of the cover, and what algebraic
// rewriting (§4.3.3) adds on top of the pipeline's own sum normalization.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "mdtable.h"

namespace record {
namespace {

// A DFG in the spirit of Fig. 4: constants feeding multiplies and adds over
// memory operands.
const char* kFig4Program = R"(
program fig4;
input a : fix;
input b : fix;
input c : fix;
output y : fix;
begin
  y := 5 + c * (a * 7 + b * 9);
end
)";

// A right-leaning sum: covered as parsed, it would spill through memory
// temps on an accumulator machine. The pipeline's normalizeSums pass
// rebuilds every +/- chain left-leaning before the rewrite loop runs, so
// the cover is already Fig. 5's "tree requiring the smallest number of
// covering patterns" at budget 1.
const char* kChainProgram = R"(
program chain;
input a : fix;
input b : fix;
input c : fix;
input d : fix;
output y : fix;
begin
  y := a + (b + (c + d));
end
)";

/// Compile `src` at rewrite `budget`, verify it, print its listing, and
/// add its cover counts to `t`.
void showCover(bench::MdTable& t, const char* tree, const char* src,
               int budget) {
  TargetConfig cfg;
  CodegenOptions opt = recordOptions();
  opt.rewriteBudget = budget;
  auto prog = dfl::parseDflOrDie(src);
  auto res = RecordCompiler(cfg, opt).compile(prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, 2));
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: %s: %s\n", tree, m.error.c_str());
    std::exit(1);
  }
  std::printf("%s, rewrite budget %d:\n%s\n", tree, budget,
              res.prog.listing().c_str());
  t.add({tree, bench::cell("%d", budget),
         bench::cell("%d", res.stats.patternsUsed),
         bench::cell("%d", res.stats.sizeWords),
         bench::cell("%d", res.stats.variantsTried)});
}

void printTables() {
  std::printf(
      "Figs. 4/5: covering data-flow trees with instruction patterns\n\n");
  std::printf("Fig. 4 style DFG: %s\n",
              dfl::parseDflOrDie(kFig4Program).body[0].rhs->str().c_str());
  std::printf("Right-leaning chain: %s\n\n",
              dfl::parseDflOrDie(kChainProgram).body[0].rhs->str().c_str());
  bench::MdTable t({"tree", "rewrite budget", "patterns", "code words",
                    "variants tried"});
  for (int budget : {1, 64}) showCover(t, "Fig. 4 DFG", kFig4Program, budget);
  for (int budget : {1, 64})
    showCover(t, "right-leaning chain", kChainProgram, budget);
  t.print();
  std::printf("\n");
}

void BM_CoverFig4(benchmark::State& state) {
  TargetConfig cfg;
  CodegenOptions opt = recordOptions();
  opt.rewriteBudget = static_cast<int>(state.range(0));
  auto prog = dfl::parseDflOrDie(kFig4Program);
  RecordCompiler rc(cfg, opt);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
}
BENCHMARK(BM_CoverFig4)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// A4 -- mode-change minimization (§3.3, Liao): programs mixing saturating
// and wrap-around arithmetic (and both shift flavours) need OVM/SXM mode
// switches; the optimized dataflow placement inserts far fewer than the
// naive switch-before-every-use policy.
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

// Alternating saturating / wrapping arithmetic: worst case for naive mode
// handling, best case for the dataflow optimizer (runs of equal modes).
const char* kMixedProgram = R"(
program mixed_modes;
input a : fix;
input b : fix;
input c : fix;
output y1 : fix;
output y2 : fix;
output y3 : fix;
output y4 : fix;
begin
  y1 := (a +| b) +| c;
  y2 := (a + b) + c;
  y3 := ((a +| b) -| c) +| b;
  y4 := (a >> 1) + (b >>> 1) + (c >> 2);
end
)";

// A saturated accumulation loop: one mode region.
const char* kSatLoop = R"(
program sat_loop;
const N = 16;
input x[N] : fix;
input g : fix;
output y : fix;
var acc : fix;
begin
  acc := 0;
  for i := 0 to N-1 do
    acc := acc +| x[i]*g;
  endfor
  y := acc;
end
)";

void printTable() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Mode-change minimization: inserted SOVM/ROVM/SSXM/RSXM "
      "instructions\n\n");
  MdTable t({"program", "naive switches", "optimized switches",
             "naive words", "optimized words"});
  for (auto [name, src] :
       {std::pair<const char*, const char*>{"mixed_modes", kMixedProgram},
        {"sat_loop", kSatLoop}}) {
    auto prog = dfl::parseDflOrDie(src);
    CodegenOptions naive = recordOptions();
    naive.modeOpt = false;
    CodegenOptions opt = recordOptions();
    opt.modeOpt = true;
    auto mn = measureCompiled(prog, cfg, naive, 2, name);
    auto mo = measureCompiled(prog, cfg, opt, 2, name);
    auto sn = RecordCompiler(cfg, naive).compile(prog).stats;
    auto so = RecordCompiler(cfg, opt).compile(prog).stats;
    t.add({name, cell("%d", sn.modes.switchesInserted),
           cell("%d", so.modes.switchesInserted), cell("%d", mn.size),
           cell("%d", mo.size)});
  }
  t.print();
  std::printf(
      "\n\"The issue for compilers is to minimize the number of "
      "mode-changing\ninstructions\" (§3.3).\n\n");
}

void BM_ModeOptCompile(benchmark::State& state) {
  auto prog = dfl::parseDflOrDie(kMixedProgram);
  TargetConfig cfg;
  CodegenOptions o = recordOptions();
  o.modeOpt = state.range(0) != 0;
  RecordCompiler rc(cfg, o);
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.modes.switchesInserted);
  }
  state.SetLabel(state.range(0) ? "optimized" : "naive");
}
BENCHMARK(BM_ModeOptCompile)->Arg(0)->Arg(1);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("ablation_modeopt");
  return 0;
}

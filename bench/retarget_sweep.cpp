// E5 -- the processor cube (Fig. 1) / retargetability argument (§4.2): the
// same compiler retargeted across ASIP variants by changing only the generic
// parameters. The sweep shows how each architectural feature (MAC datapath,
// dual-operand multiplier + banks, hardware loops, AR file size) buys code
// size and cycles -- the design-space exploration the paper motivates for
// hardware/software codesign.
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

struct Variant {
  const char* label;
  TargetConfig cfg;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  {
    TargetConfig c;
    out.push_back({"full (mac, rpt, 8 ARs)", c});
  }
  {
    TargetConfig c;
    c.hasDualMul = true;
    c.memBanks = 2;
    out.push_back({"+ dual-mul, 2 banks", c});
  }
  {
    TargetConfig c;
    c.hasRpt = false;
    c.hasDmov = false;
    out.push_back({"no hardware loops / DMOV", c});
  }
  {
    TargetConfig c;
    c.numAddrRegs = 4;
    out.push_back({"4 address registers", c});
  }
  {
    TargetConfig c;
    c.numAddrRegs = 2;
    out.push_back({"2 address registers", c});
  }
  {
    TargetConfig c;
    c.numAddrRegs = 1;
    out.push_back({"1 address register", c});
  }
  {
    TargetConfig c;
    c.hasMac = false;
    out.push_back({"no multiplier (softmul)", c});
  }
  return out;
}

// A reduction kernel whose inner loop collapses to a single repeatable
// instruction -- the case where the RPT hardware loop pays off directly.
const char* kVecSum = R"(
program vec_sum;
const N = 32;
input x[N] : fix;
output y : fix;
var s : fix;
begin
  s := 0;
  for i := 0 to N-1 do
    s := s + x[i];
  endfor
  y := s;
end
)";

/// "words w / cycles c" for one compiled-and-verified kernel.
std::string measureCell(const char* src, const TargetConfig& cfg, int ticks,
                        const char* row) {
  auto m = bench::measureCompiled(dfl::parseDflOrDie(src), cfg,
                                  recordOptions(), ticks, row);
  return bench::cell("%3d w / %5lld c", m.size,
                     static_cast<long long>(m.cycles));
}

void printTable() {
  using namespace record::bench;
  const char* kernels[] = {"fir", "n_real_updates", "convolution",
                           "iir_biquad_n_sections"};
  std::printf(
      "Retargeting sweep over tdsp ASIP variants (RECORD configuration)\n");
  std::printf("words / cycles per kernel; same compiler, different "
              "generic parameters\n\n");
  MdTable t({"variant", "vec_sum(32)", "fir", "n_real_updates",
             "convolution", "iir_n"});
  for (const auto& v : variants()) {
    std::vector<std::string> row = {v.label,
                                    measureCell(kVecSum, v.cfg, 1, v.label)};
    for (const char* kn : kernels) {
      const Kernel& k = kernelByName(kn);
      row.push_back(measureCell(k.dfl.c_str(), v.cfg, k.ticks, v.label));
    }
    t.add(std::move(row));
  }
  t.print();
  std::printf(
      "\nEvery row is the same retargetable compiler; only the processor\n"
      "description changed (the paper's core argument for retargetable\n"
      "compilation of ASIP cores).\n\n");
}

void BM_RetargetCompile(benchmark::State& state) {
  auto vs = variants();
  const auto& v = vs[static_cast<size_t>(state.range(0))];
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  RecordCompiler rc(v.cfg, recordOptions());
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(v.label);
}
BENCHMARK(BM_RetargetCompile)->DenseRange(0, 6);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("retarget_sweep");
  return 0;
}

// A1 -- offset assignment (§3.3: Bartley'92, Liao'95, Leupers'96): cost of
// walking variable access sequences with the AGU under different memory
// layouts, and general offset assignment across multiple address registers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "mdtable.h"
#include "opt/agulower.h"
#include "opt/offset.h"

namespace record {
namespace {

AccessSeq randomSeq(int vars, int len, uint32_t seed, double locality) {
  AccessSeq s;
  s.numVars = vars;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0, 1);
  std::uniform_int_distribution<int> pick(0, vars - 1);
  int cur = 0;
  for (int i = 0; i < len; ++i) {
    // With probability `locality`, revisit a neighbour of the previous
    // variable (models expression locality in real code).
    if (u(rng) < locality)
      cur = (cur + (u(rng) < 0.5 ? 1 : vars - 1)) % vars;
    else
      cur = pick(rng);
    s.seq.push_back(cur);
  }
  return s;
}

// An access sequence shaped like the iir biquad inner computation.
AccessSeq kernelSeq() {
  // vars: 0=x 1=a1 2=w1 3=a2 4=w2 5=w 6=b0 7=b1 8=b2 9=y
  AccessSeq s;
  s.numVars = 10;
  s.seq = {0, 1, 2, 3, 4, 5, 6, 5, 7, 2, 8, 4, 9, 2, 4, 5, 2};
  return s;
}

void printTable() {
  using bench::cell;
  std::printf(
      "Offset assignment: address-arithmetic instructions per access "
      "sequence\n\n");
  bench::MdTable soa(
      {"sequence", "naive", "Liao", "Leupers", "optimal*", "accesses"});
  auto row = [&](const char* name, const AccessSeq& s, bool exact) {
    soa.add({name, cell("%lld", static_cast<long long>(soaNaive(s).cost)),
             cell("%lld", static_cast<long long>(soaLiao(s).cost)),
             cell("%lld", static_cast<long long>(soaLeupers(s).cost)),
             exact ? cell("%lld",
                          static_cast<long long>(soaExhaustive(s).cost))
                   : "-",
             cell("%zu", s.seq.size())});
  };
  row("iir-biquad shaped", kernelSeq(), false);
  row("random 8v/40a local", randomSeq(8, 40, 1, 0.6), true);
  row("random 8v/40a uniform", randomSeq(8, 40, 2, 0.0), true);
  row("random 12v/80a local", randomSeq(12, 80, 3, 0.6), false);
  row("random 16v/120a local", randomSeq(16, 120, 4, 0.6), false);
  row("random 16v/120a uniform", randomSeq(16, 120, 5, 0.0), false);
  soa.print();
  std::printf("(*optimal by exhaustive permutation, <=8 variables)\n\n");

  // ---- compiled-kernel experiment: AGU lowering --------------------------
  std::printf(
      "AGU lowering of compiled scalar kernels (AR-walk addressing, as on\n"
      "DSPs without direct addressing): inserted address instructions and\n"
      "verified cycle counts per layout\n\n");
  bench::MdTable agu({"kernel", "naive", "Liao", "Leupers"});
  {
    TargetConfig cfg;
    cfg.hasDmov = false;
    cfg.hasRpt = false;
    CodegenOptions opt = recordOptions();
    opt.useStreams = false;
    opt.arLoopCounters = false;
    opt.loopTransforms = false;
    opt.peephole = false;
    for (const char* kn : {"real_update", "complex_multiply",
                           "complex_update", "iir_biquad_one_section"}) {
      const Kernel& k = kernelByName(kn);
      auto prog = dfl::parseDflOrDie(k.dfl);
      auto compiled = RecordCompiler(cfg, opt).compile(prog);
      std::vector<std::string> cells = {kn};
      for (SoaKind kind :
           {SoaKind::Naive, SoaKind::Liao, SoaKind::Leupers}) {
        auto low = lowerToAgu(compiled.prog, 1, kind);
        if (!low) {
          cells.push_back("n/a");
          continue;
        }
        auto m = runAndCompare(low->prog, prog,
                               defaultStimulus(prog, 1, k.ticks));
        if (!m.ok) {
          std::fprintf(stderr, "FATAL: %s AGU verification: %s\n", kn,
                       m.error.c_str());
          std::exit(1);
        }
        cells.push_back(cell("%d ai / %3lld c", low->addressInstrs,
                             static_cast<long long>(m.cycles)));
      }
      agu.add(std::move(cells));
    }
  }
  agu.print();

  std::printf("\nGeneral offset assignment: cost vs. number of ARs (k)\n\n");
  bench::MdTable goaTable({"sequence", "k=1", "k=2", "k=3", "k=4"});
  for (uint32_t seed : {1u, 3u, 5u}) {
    auto s = randomSeq(12, 80, seed, 0.4);
    std::vector<std::string> cells = {cell("random 12v/80a seed=%u", seed)};
    for (int k = 1; k <= 4; ++k)
      cells.push_back(cell("%lld", static_cast<long long>(goa(s, k).cost)));
    goaTable.add(std::move(cells));
  }
  goaTable.print();
  std::printf("\n");
}

void BM_SoaLiao(benchmark::State& state) {
  auto s = randomSeq(static_cast<int>(state.range(0)), 200, 7, 0.5);
  for (auto _ : state) {
    auto r = soaLiao(s);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_SoaLiao)->Arg(8)->Arg(16)->Arg(32);

void BM_SoaLeupers(benchmark::State& state) {
  auto s = randomSeq(static_cast<int>(state.range(0)), 200, 7, 0.5);
  for (auto _ : state) {
    auto r = soaLeupers(s);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_SoaLeupers)->Arg(8)->Arg(16)->Arg(32);

void BM_Goa(benchmark::State& state) {
  auto s = randomSeq(12, 80, 7, 0.5);
  for (auto _ : state) {
    auto r = goa(s, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_Goa)->DenseRange(1, 4);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

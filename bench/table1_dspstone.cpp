// E1 -- Table 1 of the paper: "Size of compiled programs in relation to
// assembly code (%)" over the ten DSPStone kernels, target-specific baseline
// compiler (the TI-C-compiler role) vs. the RECORD configuration.
//
// Every number is verified against the golden model before being printed.
// The paper's original percentages are shown alongside for shape comparison.
#include <benchmark/benchmark.h>

#include "benchutil.h"

namespace record {
namespace {

struct PaperRow {
  const char* name;
  int paperTi;
  int paperRecord;
};

const PaperRow kPaper[] = {
    {"real_update", 60, 60},
    {"complex_multiply", 84, 79},
    {"complex_update", 148, 86},
    {"n_real_updates", 180, 100},
    {"n_complex_updates", 182, 118},
    {"fir", 700, 200},
    {"iir_biquad_one_section", 130, 145},
    {"iir_biquad_n_sections", 300, 258},
    {"dot_product", 120, 120},
    {"convolution", 500, 600},
};

void printTable() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Table 1: size of compiled programs in relation to assembly code "
      "(%%)\n");
  std::printf("target: %s\n\n", cfg.describe().c_str());
  MdTable t({"program", "asm (words)", "baseline", "RECORD", "paper: TI",
             "paper: RECORD"});
  int recordWins = 0, ties = 0;
  for (const auto& row : kPaper) {
    const Kernel& k = kernelByName(row.name);
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto ref = measureReference(k, prog, cfg);
    auto bas = measureCompiled(prog, cfg, baselineOptions(), k.ticks,
                               row.name);
    auto rec = measureCompiled(prog, cfg, recordOptions(), k.ticks,
                               row.name);
    // Per-kernel execution profile of the RECORD configuration -- recorded
    // as the "<name>.profile" stats row so the artifact explains where the
    // cycles went, not just how many there were.
    measureProfiled(prog, cfg, recordOptions(), k.ticks, row.name);
    t.add({row.name, cell("%d", ref.size),
           cell("%.0f%%", 100.0 * bas.size / ref.size),
           cell("%.0f%%", 100.0 * rec.size / ref.size),
           cell("%d%%", row.paperTi), cell("%d%%", row.paperRecord)});
    if (rec.size < bas.size) ++recordWins;
    if (rec.size == bas.size) ++ties;
  }
  t.print();
  std::printf(
      "\nRECORD smaller than the target-specific baseline on %d/10 kernels "
      "(%d ties).\n",
      recordWins, ties);
  std::printf(
      "Paper: RECORD outperforms the TI compiler in 6/10 cases.\n\n");
}

void BM_CompileRecord(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  RecordCompiler rc(cfg, recordOptions());
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_CompileRecord)->DenseRange(0, 9);

void BM_CompileBaseline(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  RecordCompiler rc(cfg, baselineOptions());
  for (auto _ : state) {
    auto res = rc.compile(prog);
    benchmark::DoNotOptimize(res.stats.sizeWords);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_CompileBaseline)->DenseRange(0, 9);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("table1_dspstone");
  return 0;
}

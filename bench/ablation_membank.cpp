// A3 -- memory bank assignment (§3.3, Sudarsanam/Malik): on the dual-bank
// dual-multiplier variant, MPYXY/MACXY run in one cycle when their operands
// straddle the X/Y banks. The optimization is a max-cut over the multiply
// pair graph; the ablation compares all-in-one-bank, the greedy+hill-climb
// heuristic, and the exhaustive optimum (small graphs).
#include <benchmark/benchmark.h>

#include <random>

#include "benchutil.h"
#include "opt/membank.h"

namespace record {
namespace {

TargetConfig dualCfg() {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  cfg.memBanks = 2;
  return cfg;
}

void printKernelTable() {
  using namespace record::bench;
  auto cfg = dualCfg();
  std::printf(
      "Memory-bank assignment on the dual-multiplier tdsp: cycles\n\n");
  MdTable t({"program", "one-bank", "optimized", "saved"});
  for (const char* kn : {"n_real_updates", "n_complex_updates",
                         "dot_product", "convolution", "fir",
                         "complex_multiply"}) {
    const Kernel& k = kernelByName(kn);
    auto prog = dfl::parseDflOrDie(k.dfl);
    CodegenOptions off = recordOptions();
    off.memBankOpt = false;
    CodegenOptions on = recordOptions();
    on.memBankOpt = true;
    auto moff = measureCompiled(prog, cfg, off, k.ticks, kn);
    auto mon = measureCompiled(prog, cfg, on, k.ticks, kn);
    t.add({kn, cell("%lld", static_cast<long long>(moff.cycles)),
           cell("%lld", static_cast<long long>(mon.cycles)),
           cell("%.1f%%", 100.0 * (moff.cycles - mon.cycles) / moff.cycles)});
  }
  t.print();
}

void printGraphTable() {
  using bench::cell;
  std::printf(
      "\nMax-cut quality on random multiply-pair graphs "
      "(cut weight; higher is better)\n\n");
  bench::MdTable t({"graph", "naive", "greedy", "exhaustive"});
  std::mt19937 rng(99);
  for (int n : {6, 10, 14}) {
    // Build a random pair graph over n pseudo-symbols.
    static std::vector<std::unique_ptr<Symbol>> owned;
    std::vector<Symbol*> syms;
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<Symbol>());
      owned.back()->name = "v" + std::to_string(owned.size());
      syms.push_back(owned.back().get());
    }
    std::uniform_int_distribution<int> pick(0, n - 1);
    std::uniform_int_distribution<int> w(1, 9);
    std::vector<BankPair> pairs;
    for (int e = 0; e < 2 * n; ++e) {
      int a = pick(rng), b = pick(rng);
      if (a == b) continue;
      pairs.push_back({syms[static_cast<size_t>(a)],
                       syms[static_cast<size_t>(b)], w(rng)});
    }
    t.add({cell("random n=%d", n),
           cell("%lld", static_cast<long long>(
                            assignBanksNaive(pairs).cutWeight)),
           cell("%lld", static_cast<long long>(assignBanks(pairs).cutWeight)),
           cell("%lld", static_cast<long long>(
                            assignBanksExhaustive(pairs).cutWeight))});
  }
  t.print();
  std::printf("\n");
}

void BM_AssignBanks(benchmark::State& state) {
  std::mt19937 rng(7);
  int n = static_cast<int>(state.range(0));
  static std::vector<std::unique_ptr<Symbol>> owned;
  std::vector<Symbol*> syms;
  for (int i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<Symbol>());
    syms.push_back(owned.back().get());
  }
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::vector<BankPair> pairs;
  for (int e = 0; e < 3 * n; ++e) {
    int a = pick(rng), b = pick(rng);
    if (a != b)
      pairs.push_back({syms[static_cast<size_t>(a)],
                       syms[static_cast<size_t>(b)], 1 + e % 7});
  }
  for (auto _ : state) {
    auto r = assignBanks(pairs);
    benchmark::DoNotOptimize(r.cutWeight);
  }
}
BENCHMARK(BM_AssignBanks)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printKernelTable();
  record::printGraphTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("ablation_membank");
  return 0;
}

// E6 -- §4.5: generation of self-test programs with retargetable compilers.
// For each core variant, the self-test generator derives a test program from
// the instruction-set description, a fault-free core passes it, and a
// decode-fault campaign measures detection coverage.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "selftest/gen.h"
#include "target/tdsp.h"

namespace record {
namespace {

std::vector<std::pair<const char*, TargetConfig>> configs() {
  std::vector<std::pair<const char*, TargetConfig>> out;
  {
    TargetConfig c;
    out.push_back({"full core", c});
  }
  {
    TargetConfig c;
    c.hasDualMul = true;
    c.memBanks = 2;
    out.push_back({"dual-mul core", c});
  }
  {
    TargetConfig c;
    c.hasMac = false;
    out.push_back({"no-MAC core", c});
  }
  {
    TargetConfig c;
    c.hasSat = false;
    out.push_back({"no-saturation core", c});
  }
  return out;
}

void printTable() {
  using namespace record::selftest;
  std::printf(
      "Self-test program generation from the processor description "
      "(§4.5)\n");
  std::printf(
      "--------------------------------------------------------------------"
      "-----\n");
  std::printf("%-20s %6s %7s %9s %10s %10s %9s\n", "core", "rules",
              "checks", "words", "rule-cov", "faults", "detected");
  std::printf(
      "--------------------------------------------------------------------"
      "-----\n");
  for (const auto& [label, cfg] : configs()) {
    auto rules = rulesFor(tdspDesc(), cfg);
    auto st = generateSelfTest(rules, 42);
    auto clean = runSelfTest(st);
    if (!clean.pass) {
      std::fprintf(stderr, "FATAL: fault-free %s failed its self-test\n",
                   label);
      std::exit(1);
    }
    auto fc = runFaultCampaign(st);
    std::printf("%-20s %6zu %7zu %9d %9.0f%% %10zu %7d (%.0f%%)\n", label,
                rules.rules.size(), st.checks.size(), st.prog.sizeWords(),
                100.0 * st.ruleCoverage(), fc.faults.size(), fc.detected,
                100.0 * fc.coverage());
  }
  std::printf(
      "--------------------------------------------------------------------"
      "-----\n");
  std::printf(
      "Undetected faults on the full core (fault-equivalent or "
      "mode-shadowed):\n");
  {
    TargetConfig cfg;
    auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 42);
    auto fc = runFaultCampaign(st);
    for (const auto& f : fc.faults) {
      if (!f.detected)
        std::printf("  %s -> %s\n", opcodeName(f.from), opcodeName(f.to));
    }
  }
  std::printf("\n");
}

void BM_GenerateSelfTest(benchmark::State& state) {
  TargetConfig cfg;
  auto rules = rulesFor(tdspDesc(), cfg);
  for (auto _ : state) {
    auto st = record::selftest::generateSelfTest(rules, 42);
    benchmark::DoNotOptimize(st.checks.size());
  }
}
BENCHMARK(BM_GenerateSelfTest);

void BM_FaultCampaign(benchmark::State& state) {
  TargetConfig cfg;
  auto st = record::selftest::generateSelfTest(rulesFor(tdspDesc(), cfg), 42);
  for (auto _ : state) {
    auto fc = record::selftest::runFaultCampaign(st);
    benchmark::DoNotOptimize(fc.detected);
  }
}
BENCHMARK(BM_FaultCampaign);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

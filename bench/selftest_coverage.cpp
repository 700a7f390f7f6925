// E6 -- §4.5: generation of self-test programs with retargetable compilers.
// For each core variant, the self-test generator derives a test program from
// the instruction-set description, a fault-free core passes it, and a
// decode-fault campaign measures detection coverage.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "mdtable.h"
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
  using bench::cell;
  std::printf(
      "Self-test program generation from the processor description "
      "(§4.5)\n\n");
  bench::MdTable t({"core", "ISD rules", "checks", "test words",
                    "rule coverage", "decode faults", "detected"});
  std::string undetected;
  bool fullCore = true;  // configs() lists the full core first
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
    t.add({label, cell("%zu", rules.rules.size()),
           cell("%zu", st.checks.size()), cell("%d", st.prog.sizeWords()),
           cell("%.0f%%", 100.0 * st.ruleCoverage()),
           cell("%zu", fc.faults.size()),
           cell("%d (%.0f%%)", fc.detected, 100.0 * fc.coverage())});
    for (const auto& f : fc.faults)
      if (fullCore && !f.detected)
        undetected += cell("  %s -> %s\n", opcodeName(f.from),
                           opcodeName(f.to));
    fullCore = false;
  }
  t.print();
  std::printf(
      "\nUndetected faults on the full core (fault-equivalent or "
      "mode-shadowed): %s\n%s\n",
      undetected.empty() ? "none" : "", undetected.c_str());
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

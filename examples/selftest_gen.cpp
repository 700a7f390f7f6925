// Self-test generation demo (§4.5): derive a self-test program from the
// processor description, show that a healthy core passes it, then injure the
// core's decoder and watch the test catch the fault.
//
//   $ ./examples/selftest_gen
#include <cstdio>

#include "selftest/gen.h"
#include "target/tdsp.h"

int main() {
  using namespace record;
  using namespace record::selftest;

  TargetConfig cfg;
  auto rules = rulesFor(tdspDesc(), cfg);
  auto st = generateSelfTest(rules, 2026);

  std::printf("self-test for %s: %d words, %zu checks, %.0f%% of %zu "
              "instruction rules covered\n\n",
              cfg.describe().c_str(), st.prog.sizeWords(),
              st.checks.size(), 100.0 * st.ruleCoverage(),
              rules.rules.size());

  std::printf("first lines of the generated test program:\n");
  int shown = 0;
  for (const auto& in : st.prog.code) {
    std::printf("    %s\n", in.str().c_str());
    if (++shown >= 12) break;
  }
  std::printf("    ... (%d more words)\n\n",
              st.prog.sizeWords() - shown);

  auto healthy = runSelfTest(st);
  std::printf("healthy core: %s (%d failed checks)\n",
              healthy.pass ? "PASS" : "FAIL", healthy.failedChecks);

  auto faulty = runSelfTest(st, [](Opcode op) {
    return op == Opcode::APAC ? Opcode::SPAC : op;  // broken accumulate
  });
  std::printf("core with APAC->SPAC decode fault: %s (%d failed checks)\n",
              faulty.pass ? "PASS" : "FAIL", faulty.failedChecks);

  auto fc = runFaultCampaign(st);
  std::printf("\nfull decode-fault campaign: %d/%zu faults detected "
              "(%.1f%%)\n",
              fc.detected, fc.faults.size(), 100.0 * fc.coverage());
  return healthy.pass && !faulty.pass ? 0 : 1;
}

#include <gtest/gtest.h>

#include "selftest/gen.h"
#include "target/tdsp.h"

namespace record {
namespace {

using namespace record::selftest;

class SelfTestAllConfigs : public ::testing::TestWithParam<int> {
 protected:
  TargetConfig makeConfig() const {
    TargetConfig cfg;
    switch (GetParam()) {
      case 0: break;  // default
      case 1: cfg.hasSat = false; break;
      case 2: cfg.hasMac = false; break;
      case 3: cfg.hasDualMul = true; cfg.memBanks = 2; break;
      case 4:
        cfg.hasMac = false;
        cfg.hasSat = false;
        cfg.hasDmov = false;
        cfg.hasRpt = false;
        break;
      default: break;
    }
    return cfg;
  }
};

TEST_P(SelfTestAllConfigs, FaultFreeMachinePasses) {
  auto cfg = makeConfig();
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 42);
  EXPECT_FALSE(st.checks.empty());
  auto run = runSelfTest(st);
  EXPECT_TRUE(run.ran);
  EXPECT_TRUE(run.pass) << run.failedChecks << " checks failed on a "
                        << "fault-free " << cfg.describe();
}

TEST_P(SelfTestAllConfigs, HighRuleCoverage) {
  auto cfg = makeConfig();
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 42);
  // Every rule that emits code must be covered; only pure chain rules
  // (imm widening) may be skipped.
  EXPECT_GE(st.ruleCoverage(), 0.9) << "skipped:" << st.skippedRules.size();
  for (const auto& s : st.skippedRules) EXPECT_EQ(s, "imm8to16");
}

INSTANTIATE_TEST_SUITE_P(Configs, SelfTestAllConfigs,
                         ::testing::Range(0, 5));

TEST(SelfTest, SeedsProduceDifferentStimulus) {
  TargetConfig cfg;
  auto a = generateSelfTest(rulesFor(tdspDesc(), cfg), 1);
  auto b = generateSelfTest(rulesFor(tdspDesc(), cfg), 2);
  ASSERT_EQ(a.checks.size(), b.checks.size());
  bool anyDifferent = false;
  for (size_t i = 0; i < a.checks.size(); ++i)
    if (a.checks[i].expected != b.checks[i].expected) anyDifferent = true;
  EXPECT_TRUE(anyDifferent);
}

TEST(SelfTest, DetectsInjectedAddSubFault) {
  TargetConfig cfg;
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 7);
  auto run = runSelfTest(st, [](Opcode op) {
    return op == Opcode::ADD ? Opcode::SUB : op;
  });
  EXPECT_TRUE(!run.ran || !run.pass);
}

TEST(SelfTest, DetectsMultiplierFault) {
  TargetConfig cfg;
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 7);
  auto run = runSelfTest(st, [](Opcode op) {
    return op == Opcode::MPY ? Opcode::LT : op;
  });
  EXPECT_TRUE(!run.ran || !run.pass);
}

TEST(SelfTest, FaultCampaignFindsMostFaults) {
  TargetConfig cfg;
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 11);
  auto fc = runFaultCampaign(st);
  EXPECT_GT(fc.faults.size(), 20u);
  // The generated test must catch the overwhelming majority of decode
  // substitutions; a few fault-equivalent pairs (e.g. ROVM->NOP in a
  // program that never relies on OVM being cleared) may survive.
  EXPECT_GE(fc.coverage(), 0.8)
      << fc.detected << "/" << fc.faults.size() << " detected";
}

TEST(SelfTest, CampaignListsUndetectedFaults) {
  TargetConfig cfg;
  auto st = generateSelfTest(rulesFor(tdspDesc(), cfg), 11);
  auto fc = runFaultCampaign(st);
  for (const auto& f : fc.faults) {
    if (!f.detected) {
      // Undetected faults must at least not involve the core datapath ops.
      EXPECT_NE(f.from, Opcode::ADD);
      EXPECT_NE(f.from, Opcode::MPY);
      EXPECT_NE(f.from, Opcode::SACL);
    }
  }
}

}  // namespace
}  // namespace record

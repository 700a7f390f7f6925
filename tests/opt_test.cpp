// Unit tests for the §3.3 optimization passes: mode-change minimization,
// compaction, loop transformations, peephole, and accumulator promotion.
#include <gtest/gtest.h>

#include "opt/accpromote.h"
#include "opt/compact.h"
#include "opt/looptrans.h"
#include "opt/modeopt.h"
#include "opt/peephole.h"

namespace record {
namespace {

Instr ins(Opcode op, Operand a = Operand::none(),
          Operand b = Operand::none(), std::string label = {},
          std::string target = {}) {
  Instr i;
  i.op = op;
  i.a = a;
  i.b = b;
  i.label = std::move(label);
  i.targetLabel = std::move(target);
  return i;
}

/// An instruction carrying a mode need.
Instr mi(Opcode op, Operand a = Operand::none(),
         Operand b = Operand::none(), ModeReq need = {},
         std::string label = {}, std::string target = {}) {
  Instr i = ins(op, a, b, std::move(label), std::move(target));
  i.need = need;
  return i;
}

int countOp(const std::vector<Instr>& code, Opcode op) {
  int n = 0;
  for (const auto& in : code)
    if (in.op == op) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Mode optimization
// ---------------------------------------------------------------------------

TEST(ModeOpt, NaiveSwitchesBeforeEveryUse) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      mi(Opcode::ADD, Operand::direct(0), {}, {1, -1}),
      mi(Opcode::ADD, Operand::direct(1), {}, {1, -1}),
      mi(Opcode::HALT),
  };
  ModeOptStats stats;
  auto out = code;
  resolveModes(out, cfg, /*optimize=*/false, &stats);
  EXPECT_EQ(stats.switchesInserted, 2);
  EXPECT_EQ(countOp(out, Opcode::SOVM), 2);
}

TEST(ModeOpt, OptimizedSwitchesOncePerRun) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      mi(Opcode::ADD, Operand::direct(0), {}, {1, -1}),
      mi(Opcode::ADD, Operand::direct(1), {}, {1, -1}),
      mi(Opcode::ADD, Operand::direct(2), {}, {0, -1}),
      mi(Opcode::HALT),
  };
  ModeOptStats stats;
  auto out = code;
  resolveModes(out, cfg, /*optimize=*/true, &stats);
  EXPECT_EQ(stats.switchesInserted, 2);  // one SOVM, one ROVM
  EXPECT_EQ(countOp(out, Opcode::SOVM), 1);
  EXPECT_EQ(countOp(out, Opcode::ROVM), 1);
}

TEST(ModeOpt, ResetStateIsKnownZero) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      mi(Opcode::ADD, Operand::direct(0), {}, {0, -1}),  // wrap = reset
      mi(Opcode::HALT),
  };
  ModeOptStats stats;
  auto out = code;
  resolveModes(out, cfg, true, &stats);
  EXPECT_EQ(stats.switchesInserted, 0);
  EXPECT_EQ(out.size(), 2u);
}

TEST(ModeOpt, LoopBodySwitchHoistedByDataflow) {
  TargetConfig cfg;
  // Preheader requirement sets OVM=1; the loop body requires OVM=1 too.
  // The dataflow meet over (preheader, backedge) keeps state One, so no
  // switch is needed inside the loop.
  std::vector<Instr> code = {
      mi(Opcode::ADD, Operand::direct(0), {}, {1, -1}),
      mi(Opcode::ADD, Operand::direct(1), {}, {1, -1}, "top"),
      mi(Opcode::BANZ, Operand::imm(0), {}, {}, "", "top"),
      mi(Opcode::HALT),
  };
  ModeOptStats stats;
  auto out = code;
  resolveModes(out, cfg, true, &stats);
  EXPECT_EQ(stats.switchesInserted, 1);  // only the preheader SOVM
  // The loop-body instruction must not be preceded by a switch.
  int topIdx = -1;
  for (size_t i = 0; i < out.size(); ++i)
    if (out[i].label == "top") topIdx = static_cast<int>(i);
  ASSERT_GE(topIdx, 0);
  EXPECT_EQ(out[static_cast<size_t>(topIdx)].op, Opcode::ADD);
}

TEST(ModeOpt, SxmHandledIndependently) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      mi(Opcode::SFR, {}, {}, {-1, 1}),
      mi(Opcode::SFR, {}, {}, {-1, 0}),
      mi(Opcode::SFR, {}, {}, {-1, 1}),
      mi(Opcode::HALT),
  };
  ModeOptStats stats;
  auto out = code;
  resolveModes(out, cfg, true, &stats);
  EXPECT_EQ(stats.switchesInserted, 3);  // SSXM, RSXM, SSXM
  EXPECT_EQ(countOp(out, Opcode::SSXM), 2);
  EXPECT_EQ(countOp(out, Opcode::RSXM), 1);
}

TEST(ModeOpt, LabelMigratesToInsertedSwitch) {
  TargetConfig cfg;
  for (bool optimize : {false, true}) {
    std::vector<Instr> code = {
        mi(Opcode::B, {}, {}, {}, "", "sat"),
        mi(Opcode::ADD, Operand::direct(0), {}, {1, 1}, "sat"),
        mi(Opcode::HALT),
    };
    resolveModes(code, cfg, optimize, nullptr);
    // The branch target must now be the first switch, or the branch would
    // skip it: B; sat: SOVM; SSXM; ADD; HALT in both modes.
    ASSERT_EQ(code.size(), 5u) << "optimize=" << optimize;
    EXPECT_EQ(code[1].label, "sat");
    EXPECT_EQ(code[1].op, Opcode::SOVM);
    EXPECT_EQ(code[2].op, Opcode::SSXM);
    EXPECT_TRUE(code[2].label.empty());
    EXPECT_TRUE(code[3].label.empty());
    EXPECT_EQ(code[3].op, Opcode::ADD);
  }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

TEST(Compact, MergesApacLtIntoLta) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::LT, Operand::direct(3)),
      ins(Opcode::HALT),
  };
  CompactStats stats;
  auto out = code;
  compact(out, cfg, CompactMode::List, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, Opcode::LTA);
  EXPECT_EQ(out[0].a, Operand::direct(3));
  EXPECT_EQ(stats.merges, 1);
}

TEST(Compact, MergesPacLtIntoLtp) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LT, Operand::direct(7)),
      ins(Opcode::PAC),
      ins(Opcode::HALT),
  };
  auto out = code;
  compact(out, cfg, CompactMode::List, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, Opcode::LTP);
}

TEST(Compact, CascadesIntoLtd) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::LT, Operand::direct(4)),
      ins(Opcode::DMOV, Operand::direct(4)),
      ins(Opcode::HALT),
  };
  CompactStats stats;
  auto out = code;
  compact(out, cfg, CompactMode::List, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, Opcode::LTD);
  EXPECT_EQ(stats.merges, 2);
}

TEST(Compact, MergesApacMpyxyIntoMacxy) {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::MPYXY, Operand::indirect(0, PostMod::Inc),
          Operand::indirect(1, PostMod::Inc)),
      ins(Opcode::HALT),
  };
  auto out = code;
  compact(out, cfg, CompactMode::List, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, Opcode::MACXY);
}

TEST(Compact, MpyxyThenApacDoesNotMerge) {
  // MPYXY;APAC accumulates the NEW product; MACXY accumulates the OLD one.
  TargetConfig cfg;
  cfg.hasDualMul = true;
  std::vector<Instr> code = {
      ins(Opcode::MPYXY, Operand::direct(0), Operand::direct(1)),
      ins(Opcode::APAC),
      ins(Opcode::HALT),
  };
  auto out = code;
  compact(out, cfg, CompactMode::List, nullptr);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Compact, RespectsFeatureGates) {
  TargetConfig cfg;
  cfg.hasMac = false;
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::LT, Operand::direct(3)),
  };
  auto out = code;
  compact(out, cfg, CompactMode::List, nullptr);
  EXPECT_EQ(out.size(), 2u);  // no LTA without the MAC datapath
}

TEST(Compact, DoesNotMergeAcrossLabels) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::LT, Operand::direct(3), {}, "L"),
      ins(Opcode::HALT),
  };
  auto out = code;
  compact(out, cfg, CompactMode::List, nullptr);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Compact, OptimalReordersToEnableMerge) {
  TargetConfig cfg;
  // APAC / SACL / LT: the greedy scan can't merge (SACL sits between);
  // reordering APAC after SACL is illegal (SACL reads ACC), but moving
  // LT before SACL is fine: APAC ; LT -> LTA, then SACL.
  std::vector<Instr> code = {
      ins(Opcode::APAC),
      ins(Opcode::SACL, Operand::direct(9)),
      ins(Opcode::LT, Operand::direct(3)),
      ins(Opcode::HALT),
  };
  auto greedy = code;
  compact(greedy, cfg, CompactMode::List, nullptr);
  EXPECT_EQ(greedy.size(), 4u);
  auto optimal = code;
  compact(optimal, cfg, CompactMode::Optimal, nullptr);
  ASSERT_EQ(optimal.size(), 3u);
  EXPECT_EQ(optimal[0].op, Opcode::LTA);
  EXPECT_EQ(optimal[1].op, Opcode::SACL);
}

TEST(Compact, IndependenceRules) {
  EXPECT_TRUE(independentInstrs(ins(Opcode::LT, Operand::direct(1)),
                                ins(Opcode::SACL, Operand::direct(2))));
  EXPECT_FALSE(independentInstrs(ins(Opcode::LAC, Operand::direct(1)),
                                 ins(Opcode::SACL, Operand::direct(1))));
  EXPECT_FALSE(independentInstrs(ins(Opcode::APAC),
                                 ins(Opcode::SACL, Operand::direct(2))));
  // AR conflicts: post-increment writes the AR.
  EXPECT_FALSE(independentInstrs(
      ins(Opcode::LT, Operand::indirect(0, PostMod::Inc)),
      ins(Opcode::MPY, Operand::indirect(0, PostMod::None))));
  // Even with disjoint ARs, LT -> MPY is ordered by the T register.
  EXPECT_FALSE(independentInstrs(
      ins(Opcode::LT, Operand::indirect(0, PostMod::Inc)),
      ins(Opcode::MPY, Operand::indirect(1, PostMod::Inc))));
  // Disjoint AR loads commute freely.
  EXPECT_TRUE(
      independentInstrs(ins(Opcode::LARK, Operand::imm(0), Operand::imm(3)),
                        ins(Opcode::LARK, Operand::imm(1), Operand::imm(4))));
}

// ---------------------------------------------------------------------------
// Loop transformations
// ---------------------------------------------------------------------------

TEST(LoopTrans, ConvertsSingleInstructionLoopToRpt) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      ins(Opcode::ADD, Operand::indirect(0, PostMod::Inc), {}, "L"),
      ins(Opcode::BANZ, Operand::imm(2), {}, "", "L"),
      ins(Opcode::HALT),
  };
  LoopTransStats stats;
  auto out = code;
  applyLoopTransforms(out, cfg, false, &stats);
  EXPECT_EQ(stats.rptConversions, 1);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].op, Opcode::RPT);
  EXPECT_EQ(out[0].a, Operand::imm(7));
  EXPECT_EQ(out[1].op, Opcode::ADD);
}

TEST(LoopTrans, NoRptWithoutHardwareSupport) {
  TargetConfig cfg;
  cfg.hasRpt = false;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      ins(Opcode::ADD, Operand::indirect(0, PostMod::Inc), {}, "L"),
      ins(Opcode::BANZ, Operand::imm(2), {}, "", "L"),
  };
  LoopTransStats stats;
  auto out = code;
  applyLoopTransforms(out, cfg, false, &stats);
  EXPECT_EQ(stats.rptConversions, 0);
  EXPECT_EQ(out.size(), 3u);
}

TEST(LoopTrans, PipelinesMpyxyApacLoop) {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(3), Operand::imm(15)),
      ins(Opcode::MPYXY, Operand::indirect(0, PostMod::Inc),
          Operand::indirect(1, PostMod::Inc), "L"),
      ins(Opcode::APAC),
      ins(Opcode::BANZ, Operand::imm(3), {}, "", "L"),
      ins(Opcode::HALT),
  };
  LoopTransStats stats;
  auto out = code;
  applyLoopTransforms(out, cfg, false, &stats);
  EXPECT_EQ(stats.macPipelined, 1);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].op, Opcode::MPYK);  // clear P
  EXPECT_EQ(out[1].op, Opcode::RPT);
  EXPECT_EQ(out[2].op, Opcode::MACXY);
  EXPECT_EQ(out[3].op, Opcode::APAC);  // drain
}

TEST(LoopTrans, RotationOnlyWhenFavoringCycles) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(2), Operand::imm(15)),
      ins(Opcode::LT, Operand::indirect(0, PostMod::Inc), {}, "L"),
      ins(Opcode::MPY, Operand::indirect(1, PostMod::Inc)),
      ins(Opcode::APAC),
      ins(Opcode::BANZ, Operand::imm(2), {}, "", "L"),
      ins(Opcode::HALT),
  };
  LoopTransStats sizeStats;
  auto sizeOut = code;
  applyLoopTransforms(sizeOut, cfg, false, &sizeStats);
  EXPECT_EQ(sizeStats.macRotations, 0);
  EXPECT_EQ(sizeOut.size(), code.size());
  LoopTransStats cycStats;
  auto cycOut = code;
  applyLoopTransforms(cycOut, cfg, true, &cycStats);
  EXPECT_EQ(cycStats.macRotations, 1);
  // LARK, MPYK, LTA, MPY, BANZ, APAC, HALT
  ASSERT_EQ(cycOut.size(), 7u);
  EXPECT_EQ(cycOut[2].op, Opcode::LTA);
}

TEST(LoopTrans, SkipsLoopsWithCounterUseInBody) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      ins(Opcode::ADD, Operand::indirect(2, PostMod::None), {}, "L"),
      ins(Opcode::BANZ, Operand::imm(2), {}, "", "L"),
  };
  LoopTransStats stats;
  applyLoopTransforms(code, cfg, false, &stats);
  EXPECT_EQ(stats.rptConversions, 0);
}

// ---------------------------------------------------------------------------
// Peephole
// ---------------------------------------------------------------------------

TEST(Peephole, RemovesRedundantLoadAfterStore) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::SACL, Operand::direct(5)),
      ins(Opcode::LAC, Operand::direct(5)),
      ins(Opcode::ADD, Operand::direct(6)),
  };
  PeepholeStats stats;
  auto out = code;
  peephole(out, cfg, &stats);
  EXPECT_EQ(stats.removedLoads, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].op, Opcode::ADD);
}

TEST(Peephole, KeepsLoadFromDifferentAddress) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::SACL, Operand::direct(5)),
      ins(Opcode::LAC, Operand::direct(6)),
  };
  auto out = code;
  peephole(out, cfg, nullptr);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Peephole, FusesDelayMoveWhenAccDead) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LAC, Operand::direct(8)),
      ins(Opcode::SACL, Operand::direct(9)),
      ins(Opcode::LAC, Operand::direct(0)),  // ACC redefined: dead before
  };
  PeepholeStats stats;
  auto out = code;
  peephole(out, cfg, &stats);
  EXPECT_EQ(stats.dmovFusions, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, Opcode::DMOV);
}

TEST(Peephole, NoDmovFusionWhenAccLive) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LAC, Operand::direct(8)),
      ins(Opcode::SACL, Operand::direct(9)),
      ins(Opcode::ADD, Operand::direct(0)),  // reads ACC: still live
  };
  auto out = code;
  peephole(out, cfg, nullptr);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Peephole, NoDmovFusionWithoutHardware) {
  TargetConfig cfg;
  cfg.hasDmov = false;
  std::vector<Instr> code = {
      ins(Opcode::LAC, Operand::direct(8)),
      ins(Opcode::SACL, Operand::direct(9)),
      ins(Opcode::LAC, Operand::direct(0)),
  };
  auto out = code;
  peephole(out, cfg, nullptr);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Peephole, DropsDeadArLoad) {
  TargetConfig cfg;
  std::vector<Instr> code = {
      ins(Opcode::LARK, Operand::imm(1), Operand::imm(10)),
      ins(Opcode::LARK, Operand::imm(1), Operand::imm(20)),
      ins(Opcode::LARK, Operand::imm(2), Operand::imm(30)),
  };
  PeepholeStats stats;
  auto out = code;
  peephole(out, cfg, &stats);
  EXPECT_EQ(stats.deadArLoads, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].b, Operand::imm(20));
}

// ---------------------------------------------------------------------------
// Accumulator promotion
// ---------------------------------------------------------------------------

std::function<bool(int)> noArrays() {
  return [](int) { return false; };
}

TEST(AccPromote, HoistsLoadAndStoreOutOfLoop) {
  std::vector<Instr> code = {
      mi(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      mi(Opcode::LAC, Operand::direct(40), {}, {}, "L"),
      mi(Opcode::LT, Operand::indirect(0, PostMod::Inc)),
      mi(Opcode::MPY, Operand::indirect(1, PostMod::Inc)),
      mi(Opcode::APAC, {}, {}, {0, -1}),
      mi(Opcode::SACL, Operand::direct(40)),
      mi(Opcode::BANZ, Operand::imm(2), {}, {}, "", "L"),
      mi(Opcode::HALT),
  };
  AccPromoteStats stats;
  auto out = code;
  promoteAccumulators(out, &stats, noArrays());
  EXPECT_EQ(stats.promotions, 1);
  // LAC before the loop, SACL after the BANZ.
  ASSERT_EQ(out.size(), code.size());
  EXPECT_EQ(out[1].op, Opcode::LAC);
  EXPECT_TRUE(out[1].label.empty());
  EXPECT_EQ(out[2].label, "L");
  EXPECT_EQ(out[2].op, Opcode::LT);
  EXPECT_EQ(out[5].op, Opcode::BANZ);
  EXPECT_EQ(out[6].op, Opcode::SACL);
  EXPECT_EQ(out[7].op, Opcode::HALT);
}

TEST(AccPromote, BlockedWhenVariableTouchedElsewhere) {
  std::vector<Instr> code = {
      mi(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      mi(Opcode::LAC, Operand::direct(40), {}, {}, "L"),
      mi(Opcode::ADD, Operand::direct(40)),  // second access to 40
      mi(Opcode::SACL, Operand::direct(40)),
      mi(Opcode::BANZ, Operand::imm(2), {}, {}, "", "L"),
  };
  AccPromoteStats stats;
  promoteAccumulators(code, &stats, noArrays());
  EXPECT_EQ(stats.promotions, 0);
}

TEST(AccPromote, BlockedByConservativeIndirectAliasing) {
  std::vector<Instr> code = {
      mi(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      mi(Opcode::LAC, Operand::direct(40), {}, {}, "L"),
      mi(Opcode::ADD, Operand::indirect(0, PostMod::Inc)),
      mi(Opcode::SACL, Operand::direct(40)),
      mi(Opcode::BANZ, Operand::imm(2), {}, {}, "", "L"),
  };
  AccPromoteStats def;
  promoteAccumulators(code, &def);  // default: indirect may alias anything
  EXPECT_EQ(def.promotions, 0);
  AccPromoteStats known;
  promoteAccumulators(code, &known, noArrays());
  EXPECT_EQ(known.promotions, 1);
}

TEST(AccPromote, BlockedWhenAccUsedAfterStore) {
  std::vector<Instr> code = {
      mi(Opcode::LARK, Operand::imm(2), Operand::imm(7)),
      mi(Opcode::LAC, Operand::direct(40), {}, {}, "L"),
      mi(Opcode::ADD, Operand::direct(41)),
      mi(Opcode::SACL, Operand::direct(40)),
      mi(Opcode::SACL, Operand::direct(42)),  // reads ACC after the store
      mi(Opcode::BANZ, Operand::imm(2), {}, {}, "", "L"),
  };
  AccPromoteStats stats;
  promoteAccumulators(code, &stats, noArrays());
  EXPECT_EQ(stats.promotions, 0);
}

}  // namespace
}  // namespace record

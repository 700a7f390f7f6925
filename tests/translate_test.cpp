// Hot-region translation (sim/translate.h): block formation pins, the
// deopt contract (budget, traps, fault injection, profiling), and a
// randomized per-tick equivalence sweep of the translated engine against
// the pre-decode reference. Every test sets translation on or off per
// Machine explicitly instead of relying on the default.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "sim/machine.h"
#include "sim/reference.h"
#include "target/asmtext.h"

namespace record {
namespace {

TargetProgram asmProg(const std::string& src, TargetConfig cfg = {}) {
  return assembleOrDie(src, cfg);
}

// ---------------------------------------------------------------------------
// Formation pins
// ---------------------------------------------------------------------------

// RPT bodies are translated statically: the block exists after decode,
// before any run, and the first run already executes inside it.
TEST(Translate, RptBodyFormsAtDecode) {
  auto tp = asmProg(R"(
      .sym v 8
      .sym s 1
      LARK AR0, #0
      ZAC
      RPT #7
      ADD *AR0+
      SACL s
      HALT
  )");
  Machine m(tp);
  m.setTranslate(true);
  EXPECT_EQ(m.translateStats().rptBlocks, 1);
  EXPECT_EQ(m.translateStats().blockRuns, 0);
  auto rr = m.run();
  ASSERT_TRUE(rr.halted);
  EXPECT_GE(m.translateStats().blockRuns, 1);
  // RPT + 8 repeats retire inside the block.
  EXPECT_GE(m.translateStats().blockInstructions, 9);
  ReferenceMachine ref(tp);
  auto r2 = ref.run();
  EXPECT_EQ(rr.cycles, r2.cycles);
  EXPECT_EQ(rr.instructions, r2.instructions);
}

// A backward branch promotes its region into a loop block exactly when its
// taken count crosses kBackEdgeThreshold -- within a single run when the
// loop is hot enough, never for a short loop.
TEST(Translate, BackEdgePromotionCrossesThreshold) {
  auto loopProg = [](int count) {
    return asmProg(
        "      .sym s 1\n"
        "      LARK AR0, #" + std::to_string(count) + "\n"
        "      ZAC\n"
        " top: ADDK #1\n"
        "      BANZ AR0, top\n"
        "      SACL s\n"
        "      HALT\n");
  };
  {
    Machine hot(loopProg(2 * kBackEdgeThreshold));
    hot.setTranslate(true);
    ASSERT_TRUE(hot.run().halted);
    EXPECT_EQ(hot.translateStats().loopBlocks, 1);
    EXPECT_GE(hot.translateStats().blockRuns, 1);
  }
  {
    Machine cold(loopProg(kBackEdgeThreshold / 2));
    cold.setTranslate(true);
    ASSERT_TRUE(cold.run().halted);
    EXPECT_EQ(cold.translateStats().loopBlocks, 0);
    EXPECT_EQ(cold.translateStats().blockRuns, 0);
  }
}

// The straight-line region at a recurring run entry is promoted on the
// kEntryThreshold-th run() from that PC.
TEST(Translate, EntryPromotionCrossesThreshold) {
  auto tp = asmProg(R"(
      .sym a 1
      .sym b 1
      .sym r 1
      LAC a
      ADD b
      SACL r
      HALT
  )");
  Machine m(tp);
  m.setTranslate(true);
  for (int run = 1; run < kEntryThreshold; ++run) {
    ASSERT_TRUE(m.run().halted);
    EXPECT_EQ(m.translateStats().entryBlocks, 0) << "run " << run;
    m.reset(false);
  }
  ASSERT_TRUE(m.run().halted);
  EXPECT_EQ(m.translateStats().entryBlocks, 1);
  EXPECT_GE(m.translateStats().blockRuns, 1);
  // The whole kernel (HALT close included) retires inside the block.
  EXPECT_GE(m.translateStats().blockInstructions, 4);
}

// Each promotion counter reports its threshold exactly once and then stops
// counting, so a hot branch whose loop can never form a block (an outer
// loop around an inner one) cannot overflow it.
TEST(Translate, PromotionCountersFireOnce) {
  TranslationSet ts;
  ts.rebuild(std::vector<DecodedOp>(4));
  std::vector<int> backEdgeFires, entryFires;
  for (int i = 1; i <= 10 * kBackEdgeThreshold; ++i)
    if (ts.noteBackEdge(3)) backEdgeFires.push_back(i);
  for (int i = 1; i <= 10 * kEntryThreshold; ++i)
    if (ts.noteEntry(0)) entryFires.push_back(i);
  EXPECT_EQ(backEdgeFires, std::vector<int>{kBackEdgeThreshold});
  EXPECT_EQ(entryFires, std::vector<int>{kEntryThreshold});
}

// ---------------------------------------------------------------------------
// Deopt contract: budget
// ---------------------------------------------------------------------------

// Sweep every cycle budget across a promoted loop: the translated machine
// must stop at the exact architectural instant the reference does, even
// when the budget expires mid-superblock (the executor's worst-case
// pre-check deopts to the decoded loop for the final partial pass).
TEST(Translate, BudgetSweepMatchesReferenceMidBlock) {
  auto tp = asmProg(R"(
      .sym s 1
      LARK AR0, #19
      ZAC
 top: ADDK #1
      BANZ AR0, top
      SACL s
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  auto full = tra.run();
  ASSERT_TRUE(full.halted);
  ASSERT_EQ(tra.translateStats().loopBlocks, 1);  // promoted and hot

  for (int64_t budget = 0; budget <= full.cycles + 2; ++budget) {
    tra.reset(false);
    ReferenceMachine ref(tp);
    auto rt = tra.run(budget);
    auto rr = ref.run(budget);
    ASSERT_EQ(rt.status, rr.status) << "budget " << budget;
    EXPECT_EQ(rt.cycles, rr.cycles) << "budget " << budget;
    EXPECT_EQ(rt.instructions, rr.instructions) << "budget " << budget;
    EXPECT_EQ(tra.pc(), ref.pc()) << "budget " << budget;
    EXPECT_EQ(tra.acc(), ref.acc()) << "budget " << budget;
    EXPECT_EQ(tra.ar(0), ref.ar(0)) << "budget " << budget;
  }
}

// Same sweep for an entry block (the inline straight-line walk): its budget
// pre-check must fall back to the decoded loop for exact per-fetch budget
// semantics.
TEST(Translate, BudgetSweepMatchesReferenceInEntryBlock) {
  auto tp = asmProg(R"(
      .sym a 1
      .sym b 1
      .sym r 1
      LAC a
      ADD b
      ADD b
      SACL r
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  int64_t total = 0;
  for (int i = 0; i < kEntryThreshold; ++i) {
    auto rr = tra.run();
    ASSERT_TRUE(rr.halted);
    total = rr.cycles;
    tra.reset(false);
  }
  ASSERT_EQ(tra.translateStats().entryBlocks, 1);

  for (int64_t budget = 0; budget <= total + 1; ++budget) {
    tra.reset(false);
    ReferenceMachine ref(tp);
    auto rt = tra.run(budget);
    auto rr = ref.run(budget);
    ASSERT_EQ(rt.status, rr.status) << "budget " << budget;
    EXPECT_EQ(rt.cycles, rr.cycles) << "budget " << budget;
    EXPECT_EQ(rt.instructions, rr.instructions) << "budget " << budget;
    EXPECT_EQ(tra.pc(), ref.pc()) << "budget " << budget;
    EXPECT_EQ(tra.acc(), ref.acc()) << "budget " << budget;
  }
}

// ---------------------------------------------------------------------------
// Deopt contract: traps
// ---------------------------------------------------------------------------

// A trap raised mid-pass inside a promoted loop block -- here a store that
// walks off the end of data memory, in the middle of a fused LT;MPY;APAC
// idiom's neighborhood -- must report the identical reason at the identical
// retired-instruction count as both the decoded loop and the reference.
TEST(Translate, TrapInsideLoopBlockIsBitIdentical) {
  // AR1 starts at 2000 (eight ADRK #250 from 0); the loop stores upward and
  // runs long enough (200 iterations requested) that the block is promoted
  // well before the write to address 2048 traps.
  auto tp = asmProg(R"(
      .sym s 1
      LARK AR0, #200
      LARK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      ADRK AR1, #250
      LAC s
 top: ADDK #1
      SACL *AR1+
      BANZ AR0, top
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  Machine dec(tp);
  dec.setTranslate(false);
  ReferenceMachine ref(tp);
  auto rt = tra.run();
  auto rd = dec.run();
  auto rr = ref.run();
  ASSERT_TRUE(rt.trapped);
  EXPECT_GE(tra.translateStats().loopBlocks, 1);
  EXPECT_GE(tra.translateStats().blockRuns, 1);
  EXPECT_EQ(rt.trapReason, "data write out of range: 2048");
  EXPECT_EQ(rt.trapReason, rd.trapReason);
  EXPECT_EQ(rt.trapReason, rr.trapReason);
  EXPECT_EQ(rt.instructions, rr.instructions);
  EXPECT_EQ(rt.cycles, rr.cycles);
  EXPECT_EQ(rd.instructions, rr.instructions);
  EXPECT_EQ(tra.pc(), ref.pc());
  EXPECT_EQ(tra.ar(1), ref.ar(1));
  EXPECT_EQ(tra.acc(), ref.acc());
}

// Trap in the middle of an RPT batch: the statically-formed RPT block's
// per-repeat ledger must stop at the same partial count as the reference.
TEST(Translate, TrapInsideRptBlockIsBitIdentical) {
  auto tp = asmProg(R"(
      .sym s 1
      LARK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      ADRK AR0, #255
      LAC s
      RPT #20
      SACL *AR0+
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  ASSERT_EQ(tra.translateStats().rptBlocks, 1);
  ReferenceMachine ref(tp);
  auto rt = tra.run();
  auto rr = ref.run();
  ASSERT_TRUE(rt.trapped);
  EXPECT_EQ(rt.trapReason, "data write out of range: 2048");
  EXPECT_EQ(rt.trapReason, rr.trapReason);
  EXPECT_EQ(rt.instructions, rr.instructions);
  EXPECT_EQ(rt.cycles, rr.cycles);
  EXPECT_EQ(tra.pc(), ref.pc());
  EXPECT_EQ(tra.ar(0), ref.ar(0));
}

// A trap in the second half of every fused idiom (the MPY of LT;MPY;APAC)
// inside a promoted loop block: the loop walks *AR1+ off the end of data
// memory, and the translated engine must stop with the decoded loop and the
// reference on the same reason, ledger, PC and registers. A formation pin
// per idiom proves the loop body really fuses into that kind.
TEST(Translate, TrapMidIdiomIsBitIdenticalForEveryFusedKind) {
  struct Idiom {
    TK kind;
    std::vector<Opcode> ops;  // the fused instructions, in order
    const char* body;         // the same instructions as loop-body text
    const char* reason;
  };
  const char* kRead = "data read out of range: 256";
  const char* kWrite = "data write out of range: 256";
  const Idiom idioms[] = {
      {TK::LtMpy, {Opcode::LT, Opcode::MPY}, "LT s\n MPY *AR1+", kRead},
      {TK::LtaMpy, {Opcode::LTA, Opcode::MPY}, "LTA s\n MPY *AR1+", kRead},
      {TK::LtpMpy, {Opcode::LTP, Opcode::MPY}, "LTP s\n MPY *AR1+", kRead},
      {TK::LacSacl, {Opcode::LAC, Opcode::SACL}, "LAC s\n SACL *AR1+",
       kWrite},
      {TK::PacAdd, {Opcode::PAC, Opcode::ADD}, "PAC\n ADD *AR1+", kRead},
      {TK::ApacSacl, {Opcode::APAC, Opcode::SACL}, "APAC\n SACL *AR1+",
       kWrite},
      {TK::SpacSacl, {Opcode::SPAC, Opcode::SACL}, "SPAC\n SACL *AR1+",
       kWrite},
      {TK::LtMpyApac, {Opcode::LT, Opcode::MPY, Opcode::APAC},
       "LT s\n MPY *AR1+\n APAC", kRead},
  };
  TargetConfig cfg;
  cfg.dataWords = 256;
  for (const Idiom& idiom : idioms) {
    SCOPED_TRACE(idiom.body);
    // Formation pin: the body followed by its closing BANZ fuses into one
    // micro-op of the idiom's kind.
    std::vector<DecodedOp> ops;
    for (Opcode op : idiom.ops) {
      DecodedOp d;
      d.handler = static_cast<uint8_t>(op);
      d.op = op;
      d.cyc = 1;
      ops.push_back(d);
    }
    DecodedOp banz;
    banz.handler = static_cast<uint8_t>(Opcode::BANZ);
    banz.op = Opcode::BANZ;
    banz.cyc = 2;
    banz.target = 0;
    ops.push_back(banz);
    TranslationSet ts;
    ts.rebuild(ops);
    ts.tryFormLoop(ops, 0, static_cast<int>(ops.size()) - 1);
    ASSERT_EQ(ts.stats().loopBlocks, 1);
    EXPECT_EQ(ts.block(0).body.front().kind, idiom.kind);

    // AR1 reaches dataWords on the 57th pass, long after promotion.
    auto tp = asmProg(std::string(R"(
      .sym s 1
      LACK #3
      SACL s
      LT s
      MPYK #5
      LACK #7
      LARK AR0, #100
      LARK AR1, #200
 top: )") + idiom.body + R"(
      BANZ AR0, top
      HALT
  )", cfg);
    Machine tra(tp);
    tra.setTranslate(true);
    Machine dec(tp);
    dec.setTranslate(false);
    ReferenceMachine ref(tp);
    auto rt = tra.run();
    auto rd = dec.run();
    auto rr = ref.run();
    ASSERT_TRUE(rt.trapped);
    EXPECT_EQ(tra.translateStats().loopBlocks, 1);
    EXPECT_GE(tra.translateStats().blockRuns, 1);
    EXPECT_EQ(rt.trapReason, idiom.reason);
    for (const auto& [name, r, m] :
         {std::tuple{"translated", rt, &tra}, std::tuple{"decoded", rd, &dec}}) {
      SCOPED_TRACE(name);
      EXPECT_EQ(r.trapReason, rr.trapReason);
      EXPECT_EQ(r.instructions, rr.instructions);
      EXPECT_EQ(r.cycles, rr.cycles);
      EXPECT_EQ(m->pc(), ref.pc());
      EXPECT_EQ(m->acc(), ref.acc());
      EXPECT_EQ(m->treg(), ref.treg());
      EXPECT_EQ(m->preg(), ref.preg());
      EXPECT_EQ(m->ar(0), ref.ar(0));
      EXPECT_EQ(m->ar(1), ref.ar(1));
    }
  }
}

// ---------------------------------------------------------------------------
// Deopt contract: decode-fault injection and recovery
// ---------------------------------------------------------------------------

// Injecting a fault that turns a translated region's instruction into a
// trap sink must invalidate the block (the re-decode rebuilds the
// translation set and refuses the now-illegal body) and trap with the same
// reason at the same retired count as the translation-off machine;
// clearDecodeFault re-decodes and restores the original translation.
TEST(Translate, DecodeFaultInvalidatesAndClearRestores) {
  auto tp = asmProg(R"(
      .sym v 8
      .sym s 1
      LARK AR0, #0
      ZAC
      RPT #7
      ADD *AR0+
      SACL s
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  ASSERT_EQ(tra.translateStats().rptBlocks, 1);
  ASSERT_TRUE(tra.run().halted);
  ASSERT_GE(tra.translateStats().blockRuns, 1);

  // Fault: the RPT body's ADD decodes as a branch with no target -- a trap
  // sink, so the RPT region is refused and the program runs decoded.
  auto fault = [](Opcode op) { return op == Opcode::ADD ? Opcode::B : op; };
  tra.setDecodeFault(fault);
  EXPECT_EQ(tra.translateStats().rptBlocks, 0);
  Machine dec(tp);
  dec.setTranslate(false);
  dec.setDecodeFault(fault);
  tra.reset(false);
  auto rt = tra.run();
  auto rd = dec.run();
  ASSERT_TRUE(rt.trapped);
  EXPECT_EQ(rt.trapReason, rd.trapReason);
  EXPECT_EQ(rt.instructions, rd.instructions);
  EXPECT_EQ(rt.cycles, rd.cycles);
  EXPECT_EQ(tra.translateStats().blockRuns, 0);  // stats reset by rebuild

  // Clearing the fault re-decodes: the RPT block re-forms and the next run
  // executes translated again, bit-identical to the reference.
  tra.clearDecodeFault();
  EXPECT_EQ(tra.translateStats().rptBlocks, 1);
  tra.reset(false);
  auto r2 = tra.run();
  ASSERT_TRUE(r2.halted);
  EXPECT_GE(tra.translateStats().blockRuns, 1);
  ReferenceMachine ref(tp);
  auto rr = ref.run();
  EXPECT_EQ(r2.cycles, rr.cycles);
  EXPECT_EQ(r2.instructions, rr.instructions);
}

// ---------------------------------------------------------------------------
// Affine counted loops
// ---------------------------------------------------------------------------

// `.init` lines filling `words` words of symbol `sym` with a small
// deterministic pattern.
std::string initLines(const std::string& sym, int words) {
  std::string out;
  for (int i = 0; i < words; ++i)
    out += "      .init " + sym + " " + std::to_string(i) + " " +
           std::to_string((i * 37) % 19 - 9) + "\n";
  return out;
}

// Every budget from 0 to total+2 over an affine MAC loop: the translated
// machine matches the reference on status, ledger, PC, ACC/T/P, every AR
// and full data memory. The affine path runs exactly when the whole
// remaining loop fits the budget (it charges no XY cycle, so the worst case
// is the real ledger: budgets from the loop's exit cycle on); every smaller
// budget takes the exact walk and its deopt.
TEST(Translate, AffineBudgetSweepMatchesReference) {
  auto tp = asmProg(R"(
      .sym x 40
      .sym h 40
      .sym y 1
)" + initLines("x", 40) + initLines("h", 40) + R"(
      LARK AR0, #0
      LARK AR1, #40
      LARK AR2, #39
      ZAC
 top: LT *AR0+
      MPY *AR1+
      APAC
      BANZ AR2, top
      SACL y
      HALT
  )");
  Machine tra(tp);
  tra.setTranslate(true);
  ASSERT_TRUE(tra.run().halted);  // promotes the loop mid-run
  ASSERT_EQ(tra.translateStats().loopBlocks, 1);
  tra.reset();
  const auto full = tra.run();
  ASSERT_TRUE(full.halted);
  const int64_t loopExit = full.cycles - 2;  // before SACL y; HALT

  for (int64_t budget = 0; budget <= full.cycles + 2; ++budget) {
    tra.reset();
    ReferenceMachine ref(tp);
    const int64_t before = tra.translateStats().affineRuns;
    auto rt = tra.run(budget);
    auto rr = ref.run(budget);
    EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "")
        << "budget " << budget;
    EXPECT_EQ(tra.translateStats().affineRuns - before,
              budget >= loopExit ? 1 : 0)
        << "budget " << budget;
  }
}

// A stream whose last pass touches one word past data memory: the affine
// path is refused at block entry and the exact walk traps exactly where the
// decoded loop and the reference do. One word earlier the same loop stays
// inside memory and runs affine. The DMOV stream's span counts: its last
// pass writes one word past the word it reads.
TEST(Translate, AffineRefusedWhenStreamLeavesMemory) {
  TargetConfig cfg;
  cfg.dataWords = 256;
  struct Stream {
    const char* op;   // the access that walks toward the end of memory
    int span;         // words it touches from its address
    const char* trap;
  };
  for (const Stream& sm :
       {Stream{"MPY *AR1+", 1, "data read out of range: 256"},
        Stream{"DMOV *AR1+", 2, "data write out of range: 256"}}) {
    for (int over : {1, 0}) {
      // 40 passes walk *AR1+ up from `start`; the last touches start + 39
      // and, for DMOV, the word after it.
      const int start = cfg.dataWords - 39 - sm.span + over;
      SCOPED_TRACE(std::string(sm.op) + " from " + std::to_string(start));
      auto tp = asmProg(R"(
      .sym y 1
      LARK AR0, #100
      LARK AR1, #)" + std::to_string(start) + R"(
      LARK AR2, #39
      ZAC
 top: LT *AR0+
      )" + sm.op + R"(
      APAC
      SACL y
      BANZ AR2, top
      HALT
  )", cfg);
      Machine tra(tp);
      tra.setTranslate(true);
      ReferenceMachine ref(tp);
      auto rt = tra.run();
      auto rr = ref.run();
      EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "");
      EXPECT_EQ(tra.translateStats().loopBlocks, 1);
      EXPECT_GE(tra.translateStats().blockRuns, 1);
      if (over) {
        EXPECT_EQ(rt.trapReason, sm.trap);
        EXPECT_EQ(tra.translateStats().affineRuns, 0);
      } else {
        EXPECT_TRUE(rt.halted);
        EXPECT_EQ(tra.translateStats().affineRuns, 1);
      }
      Stimulus stim;
      stim.ticks = 2;
      EXPECT_EQ(compareSimEngines(tp, stim), "");
    }
  }
}

// MACXY loops on the dual-bank sweep config: the XY conflict cycle is
// charged per pass only when both streams hit the same bank, and the affine
// path's folded ledger must carry exactly the refunds the per-pass walk
// does -- with both streams in one bank, in different banks, and with one
// stream crossing the bank boundary mid-loop. The body only reads, so the
// column walk runs it: its refunds are the ones checked.
TEST(Translate, AffineMacxyLedgerMatchesOnDualBanks) {
  TargetConfig cfg;
  for (const auto& pt : difftest::defaultSweep())
    if (pt.name == std::string("dual-mul")) cfg = pt.cfg;
  ASSERT_TRUE(cfg.hasDualMul);
  ASSERT_EQ(cfg.memBanks, 2);
  const int bankSize = cfg.dataWords / cfg.memBanks;
  struct Streams {
    const char* name;
    int x, y;  // stream start addresses
  };
  for (const Streams& st :
       {Streams{"same bank", 0, 100}, Streams{"cross bank", 0, bankSize + 8},
        Streams{"crosses the boundary", 0, bankSize - 20}}) {
    SCOPED_TRACE(st.name);
    auto tp = asmProg(R"(
      .sym d )" + std::to_string(cfg.dataWords - 1) + R"(
      .sym y 1
)" + initLines("d", 120) + R"(
      LARK AR0, #)" + std::to_string(st.x) + R"(
      LARK AR1, #)" + std::to_string(st.y) + R"(
      LARK AR2, #39
      ZAC
      MPYK #0
 top: MACXY *AR0+, *AR1+
      BANZ AR2, top
      APAC
      SACL y
      HALT
  )", cfg);
    Stimulus stim;
    stim.ticks = 3;
    EXPECT_EQ(compareSimEngines(tp, stim), "");
    Machine tra(tp);
    tra.setTranslate(true);
    ReferenceMachine ref(tp);
    for (int tick = 0; tick < 2; ++tick) {
      auto rt = tra.run();
      auto rr = ref.run();
      EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "") << tick;
      tra.reset(false);
      ref.reset(false);
    }
    EXPECT_EQ(tra.translateStats().affineRuns, 2);
    EXPECT_EQ(tra.translateStats().columnRuns, 2);
  }
}

// Mixed steps: post-decrement, post-increment, post-zero, ADRK and SBRK on
// one pass, the two-word DMOV/LTD accesses, and a fused LT;MPY whose halves
// step one AR back and forth (T holds the first read), with loads and
// stores overlapping across passes.
TEST(Translate, AffineMixedStepsMatchReference) {
  auto tp = asmProg(R"(
      .sym d 600
)" + initLines("d", 600) + R"(
      LARK AR0, #200
      LARK AR1, #100
      LARK AR2, #500
      LARK AR3, #29
      ZAC
 top: ADD *AR0-
      SACL *AR1+
      ADRK AR1, #2
      LAC *AR2
      SBRK AR2, #3
      DMOV *AR1-
      LT *AR1-
      MPY *AR1+
      APAC
      LTD *AR0-
      MPY *AR2+
      SPAC
      BANZ AR3, top
      SACL *AR1
      HALT
  )");
  Stimulus stim;
  stim.ticks = 3;
  EXPECT_EQ(compareSimEngines(tp, stim), "");
  Machine tra(tp);
  tra.setTranslate(true);
  ReferenceMachine ref(tp);
  for (int tick = 0; tick < 2; ++tick) {
    auto rt = tra.run();
    auto rr = ref.run();
    EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "") << tick;
    tra.reset(false);
    ref.reset(false);
  }
  EXPECT_EQ(tra.translateStats().affineRuns, 2);
}

// A body that moves the counter AR, or loads or stores an AR, has no
// constant per-pass step: the loop still forms a block, but only the exact
// walk runs it.
TEST(Translate, CounterWritesAndArLoadsAreNotAffine) {
  const char* bodies[] = {
      "ADDK #1\n SBRK AR2, #1",  // moves the counter
      "ADD *AR2",                // re-stores the counter (post 0)
      "LAR AR1, s\n ADD *AR1",   // loads an AR from memory
      "SAR AR1, s\n ADD *AR1+",  // stores an AR to memory
      "LARK AR1, #7\n ADD *AR1", // loads an AR with a constant
  };
  for (const char* body : bodies) {
    SCOPED_TRACE(body);
    auto tp = asmProg(std::string(R"(
      .sym s 1
      .sym d 64
      .init s 0 5
      LARK AR1, #3
      LARK AR2, #40
      ZAC
 top: )") + body + R"(
      BANZ AR2, top
      HALT
  )");
    Machine tra(tp);
    tra.setTranslate(true);
    ReferenceMachine ref(tp);
    auto rt = tra.run();
    auto rr = ref.run();
    EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "");
    EXPECT_EQ(tra.translateStats().loopBlocks, 1);
    EXPECT_GE(tra.translateStats().blockRuns, 1);
    EXPECT_EQ(tra.translateStats().affineRuns, 0);
    Stimulus stim;
    stim.ticks = 3;
    EXPECT_EQ(compareSimEngines(tp, stim), "");
  }
}

// At the sim_long sizes the hot loops of every long kernel run on the
// affine path, n_complex_updates' too: its streams overflow the AR file, so
// the code generator splits it into two BANZ loops that each fit. All but
// iir_biquad_n_sections run on the column walk; its temps (one word
// written and read by two ops every pass) keep it on the row walk.
TEST(Translate, AffinePathTakenByLongKernels) {
  for (const auto& k : longKernels()) {
    SCOPED_TRACE(k.name);
    Program prog = dfl::parseDflOrDie(k.dfl);
    TargetProgram tp = RecordCompiler(TargetConfig{}, recordOptions())
                           .compile(prog)
                           .prog;
    Machine m(tp);
    m.setTranslate(true);
    for (int tick = 0; tick < 3; ++tick) {
      ASSERT_TRUE(m.run().halted);
      m.reset(false);
    }
    const TranslateStats ts = m.translateStats();
    EXPECT_GE(ts.loopBlocks, 1);
    EXPECT_GE(ts.affineRuns, 3);
    if (k.name == "iir_biquad_n_sections")
      EXPECT_EQ(ts.columnRuns, 0);
    else
      EXPECT_GE(ts.columnRuns, 3);
  }
}

// One pin per decision of the column walk's two rules (sim/translate.h):
// each body runs 40 passes for two ticks against the reference, on the
// affine path every tick, and on the column walk exactly when `column`.
TEST(Translate, ColumnWalkLegalityPins) {
  struct Pin {
    const char* name;
    const char* setup;  // before the loop
    const char* body;
    bool column;
  };
  const Pin pins[] = {
      // Refused.
      {"forward copy x[k+1] := x[k] + c, which smears", "",
       "LAC *AR0+\n ADD 300\n SACL *AR1+", false},
      {"ACC read before a later op writes it", "",
       "SACL *AR1+\n LAC *AR0+", false},
      {"mode switch in the body", "", "SOVM\n ADD *AR0+", false},
      {"direct word written, then read by another op", "",
       "LAC *AR0+\n SACL 301\n ADD 301\n SACL *AR1+", false},
      {"step-0 stream written, then read by another op", "LARK AR2, #302\n",
       "LAC *AR0+\n SACL *AR2\n ADD *AR2\n SACL *AR1+", false},
      // Taken.
      {"fir's backward shift", "LARK AR0, #149\n LARK AR1, #150\n",
       "LAC *AR0-\n SACL *AR1-", true},
      {"backward shift x[k+1] := x[k] + c over three ops",
       "LARK AR0, #149\n LARK AR1, #150\n",
       "LAC *AR0-\n ADD 300\n SACL *AR1-", true},
      {"forward copy within one fused op", "", "LAC *AR0+\n SACL *AR1+",
       true},
      {"MAC scan", "ZAC\n", "LT *AR0+\n MPY *AR1+\n APAC", true},
      {"MPY with no LT in the body: T invariant", "LT 300\n ZAC\n",
       "MPY *AR0+\n APAC", true},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    auto tp = asmProg(R"(
      .sym d 300
      .sym c 3
)" + initLines("d", 300) + R"(
      .init c 0 7
      LARK AR0, #100
      LARK AR1, #101
      LARK AR7, #39
)" + pin.setup + R"(
 top: )" + pin.body + R"(
      BANZ AR7, top
      HALT
  )");
    Machine tra(tp);
    tra.setTranslate(true);
    ReferenceMachine ref(tp);
    for (int tick = 0; tick < 2; ++tick) {
      auto rt = tra.run();
      auto rr = ref.run();
      ASSERT_TRUE(rt.halted);
      EXPECT_EQ(compareWithReference(tra, rt, ref, rr, tp), "") << tick;
      tra.reset(false);
      ref.reset(false);
    }
    const TranslateStats ts = tra.translateStats();
    EXPECT_EQ(ts.affineRuns, 2);
    EXPECT_EQ(ts.columnRuns, pin.column ? 2 : 0);
  }
}

/// A random affine BANZ body of 1-6 ops for RandomAffineBodiesMatchReference:
/// streams on AR0-AR2 from nearby starts (so they overlap forwards and
/// backwards), direct words among them, and ACC/T/P, and sometimes OVM or
/// SXM, set before the loop. Data memory is filled by the caller.
std::string randomAffineBody(std::mt19937_64& rng) {
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  const char* memOps[] = {"LAC", "ADD", "SUB", "SACL", "SACH", "LT",
                          "MPY", "LTA", "LTP", "LTD", "DMOV", "SPL",
                          "AND", "OR",  "XOR"};
  const char* bareOps[] = {"PAC", "APAC", "SPAC", "SFL", "SFR", "NEG",
                           "ZAC"};
  const int base = 500 + pick(400);
  auto direct = [&] { return std::to_string(base - 8 + pick(17)); };
  std::string src;
  for (int r = 0; r < 3; ++r)
    src += " LARK AR" + std::to_string(r) + ", #" +
           std::to_string(base - 4 + pick(9)) + "\n";
  src += " LAC " + direct() + "\n LT " + direct() + "\n MPY " + direct() +
         "\n";
  if (pick(4) == 0) src += " SOVM\n";
  if (pick(4) == 0) src += " SSXM\n";
  src += " LARK AR7, #" + std::to_string(12 + pick(28)) + "\ntop:\n";
  const int ops = 1 + pick(6);
  for (int i = 0; i < ops; ++i) {
    const int k = pick(24);
    if (k < 15) {
      const int mode = pick(4);
      const std::string ar = "*AR" + std::to_string(pick(3));
      src += std::string(" ") + memOps[k] + " " +
             (mode == 0   ? ar + "+"
              : mode == 1 ? ar + "-"
              : mode == 2 ? ar
                          : direct());
    } else if (k < 22) {
      src += std::string(" ") + bareOps[k - 15];
    } else {
      src += std::string(k == 22 ? " ADRK" : " SBRK") + " AR" +
             std::to_string(pick(3)) + ", #" + std::to_string(1 + pick(3));
    }
    src += "\n";
  }
  return src + " BANZ AR7, top\n HALT\n";
}

// Seeded random affine bodies, four ticks each, against the reference: the
// column walk must be exactly as good as the row walk wherever its rules
// let it run, and both walks must run often enough for that to mean
// something. A memory rule that skips the pair checks fails this.
TEST(Translate, RandomAffineBodiesMatchReference) {
  TargetConfig cfg;
  int64_t affine = 0, column = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    std::mt19937_64 rng(seed);
    const std::string src = randomAffineBody(rng);
    TargetProgram tp = asmProg(src, cfg);
    Machine tra(tp);
    tra.setTranslate(true);
    ReferenceMachine ref(tp);
    for (int addr = 0; addr < cfg.dataWords; ++addr) {
      const int64_t v = static_cast<int64_t>(rng() % 65536) - 32768;
      tra.writeData(addr, v);
      ref.writeData(addr, v);
    }
    for (int tick = 0; tick < 4; ++tick) {
      auto rt = tra.run();
      auto rr = ref.run();
      const std::string diff = compareWithReference(tra, rt, ref, rr, tp);
      ASSERT_EQ(diff, "") << "seed " << seed << " tick " << tick << "\n"
                          << src;
      tra.reset(false);
      ref.reset(false);
    }
    affine += tra.translateStats().affineRuns;
    column += tra.translateStats().columnRuns;
  }
  // 4442 column and 7558 row runs of the 12000.
  EXPECT_GE(column, 3000);
  EXPECT_GE(affine - column, 5000);
}

// The fused-kind fire count is completed passes times occurrences, the
// same whether the affine path or the exact walk ran the passes (a LARK of
// an unused AR in the body keeps the second loop off the affine path).
TEST(Translate, FusedFiresCountCompletedPasses) {
  const int kLtMpyApac = fusedIndex(TK::LtMpyApac);
  ASSERT_GE(kLtMpyApac, 0);
  EXPECT_EQ(std::string(kFusedKindNames[kLtMpyApac]), "LtMpyApac");
  EXPECT_EQ(fusedIndex(TK::LAC), -1);
  EXPECT_EQ(fusedIndex(TK::End), -1);
  for (const char* extra : {"", "LARK AR5, #0\n"}) {
    SCOPED_TRACE(extra);
    auto tp = asmProg(std::string(R"(
      .sym x 80
      LARK AR0, #0
      LARK AR1, #40
      LARK AR2, #39
      ZAC
 top: )") + extra + R"(
      LT *AR0+
      MPY *AR1+
      APAC
      BANZ AR2, top
      HALT
  )");
    Machine m(tp);
    m.setTranslate(true);
    ASSERT_TRUE(m.run().halted);
    // Promoted at the kBackEdgeThreshold-th taken BANZ: the block ran the
    // remaining passes of the 40.
    const int64_t first = 40 - kBackEdgeThreshold;
    TranslateStats ts = m.translateStats();
    EXPECT_EQ(ts.fusedFires[static_cast<size_t>(kLtMpyApac)], first);
    m.reset();
    ASSERT_TRUE(m.run().halted);
    ts = m.translateStats();
    EXPECT_EQ(ts.affineRuns, *extra ? 0 : 2);
    for (int f = 0; f < kNumFusedKinds; ++f)
      EXPECT_EQ(ts.fusedFires[static_cast<size_t>(f)],
                f == kLtMpyApac ? first + 40 : 0)
          << kFusedKindNames[f];
  }
}

// ---------------------------------------------------------------------------
// Randomized per-tick equivalence
// ---------------------------------------------------------------------------

// >= 200 generated difftest programs, each run tick by tick through the
// three-way engine comparison (translated Machine, decoded Machine,
// ReferenceMachine): same RunResult, same architectural state, same full
// data memory after every tick, traps and budget exits included. This is
// the translation layer's standing randomized soak in tier 1.
TEST(Translate, RandomProgramsAgreePerTick) {
  TargetConfig cfg;
  int compared = 0;
  for (uint64_t seed = 1; seed <= 260; ++seed) {
    auto spec = difftest::generateProgram(seed);
    DiagEngine diag;
    auto prog = dfl::parseDfl(spec.render(), diag);
    ASSERT_TRUE(prog) << "seed " << seed << ":\n" << diag.str();
    CompileResult res;
    try {
      res = RecordCompiler(cfg, recordOptions()).compile(*prog);
    } catch (const std::runtime_error&) {
      continue;  // capability rejection: clean skip, like the oracle
    }
    Stimulus stim = difftest::makeStimulus(*prog, seed, spec.ticks);
    std::string diff = compareSimEngines(res.prog, stim);
    EXPECT_EQ(diff, "") << "seed " << seed << "\n" << spec.render();
    ++compared;
  }
  EXPECT_GE(compared, 200);
}

}  // namespace
}  // namespace record

// Tests for the execution profiler (src/sim/profile.*), the debug-info
// plumbing that feeds it (Instr::srcLine stamped by the code generator).
//
// The central invariant under test: profiling is *exact*. Per-PC, per
// opcode class, and per source line cycle totals each sum to exactly
// RunResult::cycles -- on clean halts, traps, and budget exhaustion -- and
// attaching a profiler never changes architectural results.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "sim/machine.h"
#include "sim/profile.h"
#include "support/json.h"
#include "target/asmtext.h"
#include "trace/trace.h"

namespace record {
namespace {

// 1-based line number of the first occurrence of `needle` in `text`.
int lineOf(const std::string& text, const std::string& needle) {
  size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing: " << needle;
  if (pos == std::string::npos) return -1;
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<long>(pos),
                                         '\n'));
}

int64_t sumLineCycles(const Profile& p) {
  int64_t sum = 0;
  for (const auto& [line, cyc] : p.lineCycles()) sum += cyc;
  return sum;
}

int64_t sumClassCycles(const Profile& p) {
  int64_t sum = 0;
  for (int c = 0; c < kNumOpClasses; ++c)
    sum += p.classCycles(static_cast<OpClass>(c));
  return sum;
}

int64_t sumClassCounts(const Profile& p) {
  int64_t sum = 0;
  for (int c = 0; c < kNumOpClasses; ++c)
    sum += p.classCounts(static_cast<OpClass>(c));
  return sum;
}

int64_t sumPcCycles(const Profile& p) {
  int64_t sum = 0;
  for (int64_t c : p.pcCycles()) sum += c;
  return sum;
}

// Run `kernel` compiled with `opt` under the profiler (verified against the
// golden model) and hand the profile to `check` before it goes out of scope.
template <typename Fn>
void profileKernel(const char* kernel, const CodegenOptions& opt, Fn check) {
  const Kernel& k = kernelByName(kernel);
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, opt).compile(prog);
  Profile prof(res.prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, k.ticks),
                         &prof);
  ASSERT_TRUE(m.ok) << m.error;
  check(k, prof, m);
}

// ---------------------------------------------------------------------------
// Exact accounting
// ---------------------------------------------------------------------------

TEST(Profile, TotalsMatchRunResultOnKernel) {
  profileKernel("fir", recordOptions(),
                [](const Kernel&, const Profile& p, const Measurement& m) {
                  EXPECT_EQ(p.totalCycles(), m.cycles);
                  EXPECT_EQ(p.totalInstructions(), m.instructions);
                  EXPECT_EQ(sumLineCycles(p), m.cycles);
                  EXPECT_EQ(sumClassCycles(p), m.cycles);
                  EXPECT_EQ(sumClassCounts(p), m.instructions);
                  EXPECT_EQ(sumPcCycles(p), m.cycles);
                });
}

TEST(Profile, TotalsMatchUnderNaiveCodegenToo) {
  profileKernel("n_real_updates", naiveOptions(),
                [](const Kernel&, const Profile& p, const Measurement& m) {
                  EXPECT_EQ(p.totalCycles(), m.cycles);
                  EXPECT_EQ(sumLineCycles(p), m.cycles);
                  EXPECT_EQ(sumClassCycles(p), m.cycles);
                });
}

TEST(Profile, RptRepeatsCountPerExecution) {
  auto tp = assembleOrDie(R"(
      .sym v 8
      .sym s 1
      LARK AR0, #0
      ZAC
      RPT #7
      ADD *AR0+
      SACL s
      HALT
  )",
                          TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  for (int i = 0; i < 8; ++i) m.writeSymbol("v", i, 1);
  auto rr = m.run();
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(prof.totalCycles(), rr.cycles);
  EXPECT_EQ(prof.totalInstructions(), rr.instructions);
  // The repeated ADD retired 8 times at its single PC (pc 3).
  EXPECT_EQ(prof.pcCounts()[3], 8);
  EXPECT_EQ(prof.pcCycles()[3], 8);
}

TEST(Profile, TrapKeepsLedgerBalanced) {
  TargetConfig cfg;
  cfg.dataWords = 16;
  auto tp = assembleOrDie("ZAC\nADDK #1\nLAC 200\nHALT\n", cfg);
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  auto rr = m.run();
  EXPECT_EQ(rr.status, RunStatus::Trapped);
  // Two instructions retired before the faulting LAC; the fault itself is
  // charged to neither the RunResult nor the profile.
  EXPECT_EQ(rr.instructions, 2);
  EXPECT_EQ(prof.totalInstructions(), rr.instructions);
  EXPECT_EQ(prof.totalCycles(), rr.cycles);
  EXPECT_EQ(sumLineCycles(prof), rr.cycles);
}

TEST(Profile, BudgetExhaustionKeepsLedgerBalanced) {
  auto tp = assembleOrDie("top: B top\nHALT\n", TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  auto rr = m.run(100);
  EXPECT_EQ(rr.status, RunStatus::Budget);
  EXPECT_EQ(prof.totalCycles(), rr.cycles);
  EXPECT_EQ(prof.totalInstructions(), rr.instructions);
}

// ---------------------------------------------------------------------------
// Observation only: bit-identical results with profiling on or off
// ---------------------------------------------------------------------------

TEST(Profile, RunResultBitIdenticalWithProfilingAttached) {
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  auto stim = defaultStimulus(prog, 1, k.ticks);

  auto plain = runAndCompare(res.prog, prog, stim);
  Profile prof(res.prog);
  auto profiled = runAndCompare(res.prog, prog, stim, &prof);

  ASSERT_TRUE(plain.ok) << plain.error;
  ASSERT_TRUE(profiled.ok) << profiled.error;
  EXPECT_EQ(plain.cycles, profiled.cycles);
  EXPECT_EQ(plain.instructions, profiled.instructions);
  EXPECT_EQ(plain.sizeWords, profiled.sizeWords);
}

// The exact-accounting invariants hold on a Machine with hot-region
// translation enabled and blocks already hot: profiled runs take the
// unprofiled-decoded specialization (never a superblock), so every
// histogram still sums to the RunResult totals.
TEST(Profile, SumsToTotalWithTranslationEnabled) {
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  Machine m(res.prog);
  m.setTranslate(true);
  // Warm until loop/entry promotion has happened.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(m.run().halted);
    m.reset(false);
  }
  ASSERT_GE(m.translateStats().blockRuns, 1);

  Profile prof(res.prog);
  m.attachProfile(&prof);
  auto rr = m.run();
  ASSERT_TRUE(rr.halted);
  EXPECT_EQ(prof.totalCycles(), rr.cycles);
  EXPECT_EQ(prof.totalInstructions(), rr.instructions);
  EXPECT_EQ(sumLineCycles(prof), rr.cycles);
  EXPECT_EQ(sumClassCycles(prof), rr.cycles);
  EXPECT_EQ(sumClassCounts(prof), rr.instructions);
  EXPECT_EQ(sumPcCycles(prof), rr.cycles);
}

TEST(Profile, SetupAccessesAreNotCounted) {
  auto tp = assembleOrDie(".sym a 1\n.sym r 1\nLAC a\nSACL r\nHALT\n",
                          TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  // Setup traffic outside run() must not be attributed to the program.
  m.writeSymbol("a", 0, 7);
  EXPECT_EQ(m.readSymbol("a"), 7);
  ASSERT_TRUE(m.run().halted);
  int64_t accesses = 0;
  for (int b = 0; b < prof.banks(); ++b) accesses += prof.bankAccesses(b);
  EXPECT_EQ(accesses, 2);  // LAC read + SACL write, nothing else
}

// ---------------------------------------------------------------------------
// Histograms: opcode classes, banks, conflicts, back-edges
// ---------------------------------------------------------------------------

TEST(Profile, OpClassHistogram) {
  auto tp = assembleOrDie(
      ".sym a 1\n.sym r 1\nLAC a\nADDK #1\nSACL r\nHALT\n", TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  ASSERT_TRUE(m.run().halted);
  EXPECT_EQ(prof.classCounts(OpClass::LoadStore), 2);  // LAC + SACL
  EXPECT_EQ(prof.classCounts(OpClass::AccAlu), 1);     // ADDK
  EXPECT_EQ(prof.classCounts(OpClass::Control), 1);    // HALT
  EXPECT_EQ(prof.classCounts(OpClass::Mac), 0);
}

TEST(Profile, BankConflictCounted) {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  cfg.memBanks = 2;
  cfg.dataWords = 2048;
  auto same = assembleOrDie(".sym a 1\n.sym b 1\nMPYXY a, b\nHALT\n", cfg);
  auto diff =
      assembleOrDie(".sym a 1\n.sym b 1 @1024\nMPYXY a, b\nHALT\n", cfg);

  Machine ms(same);
  Profile ps(same);
  ms.attachProfile(&ps);
  ms.run();
  EXPECT_EQ(ps.bankConflicts(), 1);
  EXPECT_EQ(ps.bankAccesses(0), 2);  // both operands in bank 0
  EXPECT_EQ(ps.bankAccesses(1), 0);

  Machine md(diff);
  Profile pd(diff);
  md.attachProfile(&pd);
  md.run();
  EXPECT_EQ(pd.bankConflicts(), 0);
  EXPECT_EQ(pd.bankAccesses(0), 1);
  EXPECT_EQ(pd.bankAccesses(1), 1);
}

// A repeated branch decides taken/not-taken per repeat, and the profiler
// sees each repeat's decision: a BANZ executed as a 3-repeat batch with two
// taken decrements and one final fall-through must profile as executed 3,
// taken 2 -- not inherit the first repeat's taken flag for the rest.
TEST(Profile, RepeatedBranchAttributesPerRepeat) {
  auto tp = assembleOrDie(R"(
      .sym n 1
      LARK AR0, #2
      ZAC
      RPT #2
 top: BANZ AR0, top
      ADDK #1
      SACL n
      HALT
  )",
                          TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  auto rr = m.run();
  ASSERT_TRUE(rr.halted);
  auto branches = prof.branchProfiles();
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].pc, 3);
  EXPECT_EQ(branches[0].target, 3);
  EXPECT_EQ(branches[0].executed, 3);
  EXPECT_EQ(branches[0].taken, 2);
  EXPECT_EQ(prof.totalCycles(), rr.cycles);
  EXPECT_EQ(prof.totalInstructions(), rr.instructions);
}

// LTD performs ONE architectural read (feeding both T and the delay-line
// shift) plus one write: the profiler must count exactly two bank accesses
// for it, not three.
TEST(Profile, LtdCountsOneReadOneWrite) {
  auto tp = assembleOrDie(".sym v 2\nLTD v\nHALT\n", TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  m.writeSymbol("v", 0, 5);
  ASSERT_TRUE(m.run().halted);
  int64_t accesses = 0;
  for (int b = 0; b < prof.banks(); ++b) accesses += prof.bankAccesses(b);
  EXPECT_EQ(accesses, 2);  // v read once, v+1 written once
  EXPECT_EQ(m.treg(), 5);
  EXPECT_EQ(m.readSymbol("v", 1), 5);
}

TEST(Profile, BackEdgeTripCount) {
  auto tp = assembleOrDie(R"(
      .sym n 1
      LARK AR3, #4
      ZAC
  top: ADDK #1
      BANZ AR3, top
      SACL n
      HALT
  )",
                          TargetConfig{});
  Machine m(tp);
  Profile prof(tp);
  m.attachProfile(&prof);
  ASSERT_TRUE(m.run().halted);
  auto branches = prof.branchProfiles();
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_TRUE(branches[0].isBackEdge());
  EXPECT_EQ(branches[0].executed, 5);  // LARK #4 -> 5 executions
  EXPECT_EQ(branches[0].taken, 4);     // 4 taken, 1 fall-through
}

// ---------------------------------------------------------------------------
// Source attribution (debug info threaded through the code generator)
// ---------------------------------------------------------------------------

TEST(Profile, SingleStatementKernelAttributesToItsLine) {
  // dot_product's whole body is one DFL statement: every cycle must land
  // either on that line or on <scaffolding> (line 0: HALT etc.).
  profileKernel(
      "dot_product", recordOptions(),
      [](const Kernel& k, const Profile& p, const Measurement&) {
        int stmtLine = lineOf(k.dfl, "z := a[0]*b[0] + a[1]*b[1];");
        auto lines = p.lineCycles();
        ASSERT_TRUE(lines.count(stmtLine));
        for (const auto& [line, cyc] : lines) {
          EXPECT_TRUE(line == 0 || line == stmtLine)
              << "cycles attributed to unexpected line " << line;
          EXPECT_GT(cyc, 0);
        }
        // The statement outweighs the scaffolding.
        EXPECT_GT(lines[stmtLine], lines.count(0) ? lines[0] : 0);
        // locOf renders "source:line" with the program name as source.
        bool sawLoc = false;
        for (size_t pc = 0; pc < p.pcCycles().size(); ++pc)
          if (p.locOf(static_cast<int>(pc)) ==
              "dot_product:" + std::to_string(stmtLine))
            sawLoc = true;
        EXPECT_TRUE(sawLoc);
      });
}

TEST(Profile, LoopKernelAttributesHotCyclesToLoopRegion) {
  profileKernel(
      "fir", naiveOptions(),
      [](const Kernel& k, const Profile& p, const Measurement& m) {
        // The hot line must be one of the loop-region lines (either loop
        // header or body); straight-line setup cannot dominate a kernel
        // that iterates 16 taps.
        int shiftFor = lineOf(k.dfl, "for i := 0 to N-2 do");
        int shiftBody = lineOf(k.dfl, "x[N-1-i] := x[N-2-i];");
        int macFor = lineOf(k.dfl, "for i := 0 to N-1 do");
        int macBody = lineOf(k.dfl, "acc := acc + h[i]*x[i];");
        auto lines = p.lineCycles();
        int hotLine = -1;
        int64_t hotCycles = -1;
        int64_t attributed = 0;
        for (const auto& [line, cyc] : lines) {
          if (line > 0 && cyc > hotCycles) {
            hotLine = line;
            hotCycles = cyc;
          }
          if (line > 0) attributed += cyc;
        }
        EXPECT_TRUE(hotLine == shiftFor || hotLine == shiftBody ||
                    hotLine == macFor || hotLine == macBody)
            << "hot line " << hotLine << " not in the loop region";
        // The bulk of the cycles carries source attribution.
        EXPECT_GT(attributed, m.cycles / 2);
        // The human report names the source and renders the hot table.
        std::string text = p.text();
        EXPECT_NE(text.find("execution profile: fir"), std::string::npos);
        EXPECT_NE(text.find("hot source lines"), std::string::npos);
        EXPECT_NE(text.find("fir:" + std::to_string(hotLine)),
                  std::string::npos);
      });
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

TEST(Profile, ChromeTraceValidates) {
  profileKernel("fir", recordOptions(),
                [](const Kernel&, const Profile& p, const Measurement&) {
                  std::string err;
                  std::string json = p.chromeJson();
                  EXPECT_TRUE(validateChromeTrace(json, &err)) << err;
                  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
                  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
                  EXPECT_NE(json.find("\"loc\": \"fir:"), std::string::npos);
                });
}

TEST(Profile, TimelineCapDoesNotAffectHistograms) {
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);

  // A 4-span budget cannot hold even one loop iteration, so collapsing
  // saturates and the timeline stays at the cap -- but the histograms are
  // complete either way.
  Profile capped(res.prog, ProfileOptions{/*timelineLimit=*/4});
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, k.ticks),
                         &capped);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_LE(capped.timeline().size(), 4u);
  EXPECT_GT(capped.timeline().size(), 0u);
  EXPECT_EQ(capped.totalCycles(), m.cycles);  // histograms stay complete
  std::string err;
  EXPECT_TRUE(validateChromeTrace(capped.chromeJson(), &err)) << err;
}

TEST(Profile, TimelineCollapsesLoopIterations) {
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);

  // An uncapped control: the full timeline is longer than the 256-span
  // budget below, so the capped profile must have collapsed something.
  Profile full(res.prog, ProfileOptions{/*timelineLimit=*/1 << 20});
  auto mf = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, k.ticks),
                          &full);
  ASSERT_TRUE(mf.ok) << mf.error;
  ASSERT_GT(full.timeline().size(), 256u);

  Profile capped(res.prog, ProfileOptions{/*timelineLimit=*/256});
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, k.ticks),
                         &capped);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_LE(capped.timeline().size(), 256u);

  // Collapsing merges spans instead of dropping them: the timeline still
  // covers every retired instruction and cycle, with repeated loop
  // iterations folded into aggregates carrying an iteration count.
  int64_t cycles = 0, instructions = 0, aggregates = 0, iterations = 0;
  for (const TimelineEvent& ev : capped.timeline()) {
    cycles += ev.cycles;
    instructions += ev.instructions;
    if (ev.isAggregate()) {
      ++aggregates;
      iterations += ev.iterations;
      EXPECT_LE(ev.pc, ev.endPc);
    }
  }
  EXPECT_EQ(cycles, capped.totalCycles());
  EXPECT_EQ(instructions, capped.totalInstructions());
  EXPECT_GT(aggregates, 0);
  EXPECT_GT(iterations, aggregates);  // every aggregate holds >= 2 trips

  // The aggregates render as named loop spans and still validate.
  std::string json = capped.chromeJson();
  EXPECT_NE(json.find("\"name\": \"loop pc "), std::string::npos);
  EXPECT_NE(json.find("\"iterations\": "), std::string::npos);
  std::string err;
  EXPECT_TRUE(validateChromeTrace(json, &err)) << err;
}

TEST(Profile, StatsJsonIsValidAndFlat) {
  profileKernel(
      "dot_product", recordOptions(),
      [](const Kernel&, const Profile& p, const Measurement& m) {
        std::string err;
        auto doc = json::parse(p.statsJson(), &err);
        ASSERT_TRUE(doc) << err;
        const json::Value* cycles = doc->find("cycles");
        ASSERT_TRUE(cycles && cycles->isNumber());
        EXPECT_EQ(static_cast<int64_t>(cycles->number), m.cycles);
        const json::Value* src = doc->find("source");
        ASSERT_TRUE(src);
        EXPECT_EQ(src->str, "dot_product");
        EXPECT_TRUE(doc->find("bank_conflicts"));
        EXPECT_TRUE(doc->find("class_mac_cycles"));
      });
}

}  // namespace
}  // namespace record

// Codegen correctness beyond the DSPStone kernels: targeted configuration
// tests plus a property test compiling randomly generated programs under
// many (config, option) combinations and verifying every one against the
// golden-model interpreter.
#include <gtest/gtest.h>

#include <random>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"

namespace record {
namespace {

Measurement compileRun(const Program& prog, const TargetConfig& cfg,
                       const CodegenOptions& opt, int ticks = 2,
                       uint32_t seed = 1) {
  RecordCompiler rc(cfg, opt);
  auto res = rc.compile(prog);
  return runAndCompare(res.prog, prog, defaultStimulus(prog, seed, ticks));
}

// ---------------------------------------------------------------------------
// Targeted configuration tests
// ---------------------------------------------------------------------------

TEST(Codegen, SaturatingProgram) {
  auto prog = dfl::parseDflOrDie(R"(
    program sat;
    input a : fix;
    input b : fix;
    input c : fix;
    output y : fix;
    begin
      y := (a +| b) -| c;
      y := c +| (a -| b);
    end
  )");
  TargetConfig cfg;
  auto m = compileRun(prog, cfg, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, SaturatingBothOperandsWideRejected) {
  // The right operand of a saturating op feeds the 16-bit memory port; a
  // compound saturating subexpression there can exceed int16 range, so the
  // required spill would change the saturated result. The compiler must
  // reject this rather than miscompile it (the old behavior, caught by
  // difftest: a = 0x7fff, b = -0x7fff makes a -| b saturate at 0x7fffffff
  // while its 16-bit spill reloads as -1).
  auto prog = dfl::parseDflOrDie(R"(
    program sat;
    input a : fix;
    input b : fix;
    output y : fix;
    begin
      y := (a +| b) -| (a -| b);
    end
  )");
  TargetConfig cfg;
  RecordCompiler rc(cfg, recordOptions());
  EXPECT_THROW(rc.compile(prog), std::runtime_error);
}

TEST(Codegen, SaturatingProgramRejectedWithoutSatHardware) {
  auto prog = dfl::parseDflOrDie(R"(
    program sat;
    input a : fix;
    output y : fix;
    begin
      y := a +| a;
    end
  )");
  TargetConfig cfg;
  cfg.hasSat = false;
  RecordCompiler rc(cfg, recordOptions());
  EXPECT_THROW(rc.compile(prog), std::runtime_error);
}

TEST(Codegen, SoftMultiplyWithoutMacHardware) {
  auto prog = dfl::parseDflOrDie(R"(
    program softmul;
    input a : fix;
    input b : fix;
    input c : fix;
    output y : fix;
    begin
      y := a*b + c*c;
    end
  )");
  TargetConfig cfg;
  cfg.hasMac = false;
  auto m = compileRun(prog, cfg, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
  // A software multiply is dramatically slower than the MAC datapath.
  auto fast = compileRun(prog, TargetConfig{}, recordOptions());
  EXPECT_GT(m.cycles, 10 * fast.cycles);
}

TEST(Codegen, SoftMultiplyNegativeOperands) {
  auto prog = dfl::parseDflOrDie(R"(
    program softneg;
    input a : fix;
    input b : fix;
    output y : fix;
    begin
      y := a*b;
    end
  )");
  TargetConfig cfg;
  cfg.hasMac = false;
  RecordCompiler rc(cfg, recordOptions());
  auto res = rc.compile(prog);
  Stimulus stim;
  stim.ticks = 1;
  stim.scalars["a"] = {-7};
  stim.scalars["b"] = {9};
  auto m = runAndCompare(res.prog, prog, stim);
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, DualMulTwoBanks) {
  auto prog = dfl::parseDflOrDie(R"(
    program dm;
    const N = 8;
    input a[N] : fix;
    input b[N] : fix;
    output y : fix;
    var acc : fix;
    begin
      acc := 0;
      for i := 0 to N-1 do
        acc := acc + a[i]*b[i];
      endfor
      y := acc;
    end
  )");
  TargetConfig cfg;
  cfg.hasDualMul = true;
  cfg.memBanks = 2;
  auto on = compileRun(prog, cfg, recordOptions());
  EXPECT_TRUE(on.ok) << on.error;
  CodegenOptions noBankOpt = recordOptions();
  noBankOpt.memBankOpt = false;
  auto off = compileRun(prog, cfg, noBankOpt);
  EXPECT_TRUE(off.ok) << off.error;
  // Bank assignment saves a cycle per dual-operand multiply.
  EXPECT_LT(on.cycles, off.cycles);
}

TEST(Codegen, SingleAddressRegisterUsesMemoryCounters) {
  auto prog = dfl::parseDflOrDie(R"(
    program tiny;
    const N = 12;
    input a[N] : fix;
    output y : fix;
    var s : fix;
    begin
      s := 0;
      for i := 0 to N-1 do
        s := s + a[i];
      endfor
      y := s;
    end
  )");
  TargetConfig cfg;
  cfg.numAddrRegs = 1;
  auto m = compileRun(prog, cfg, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, LargeConstantsThroughPool) {
  auto prog = dfl::parseDflOrDie(R"(
    program pool;
    input a : fix;
    output y : fix;
    begin
      y := a + 31000 - 12345;
    end
  )");
  TargetConfig cfg;
  auto m = compileRun(prog, cfg, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, DynamicIndexingReadAndWrite) {
  auto prog = dfl::parseDflOrDie(R"(
    program dyn;
    input a[8] : fix;
    input i : int;
    input j : int;
    output y[8] : fix;
    begin
      y[i+j] := a[i] + a[j+1];
    end
  )");
  TargetConfig cfg;
  RecordCompiler rc(cfg, recordOptions());
  auto res = rc.compile(prog);
  Stimulus stim;
  stim.ticks = 1;
  stim.arrays["a"] = {10, 20, 30, 40, 50, 60, 70, 80};
  stim.scalars["i"] = {2};
  stim.scalars["j"] = {3};
  auto m = runAndCompare(res.prog, prog, stim);
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, NestedLoopsWithOuterIndex) {
  auto prog = dfl::parseDflOrDie(R"(
    program mat;
    input a[16] : fix;
    input v[4] : fix;
    output y[4] : fix;
    var s : fix;
    begin
      for r := 0 to 3 do
        s := 0;
        for c := 0 to 3 do
          s := s + a[r*4+c]*v[c];
        endfor
        y[r] := s;
      endfor
    end
  )");
  for (int ars : {8, 2}) {
    TargetConfig cfg;
    cfg.numAddrRegs = ars;
    auto m = compileRun(prog, cfg, recordOptions());
    EXPECT_TRUE(m.ok) << "ars=" << ars << ": " << m.error;
  }
}

TEST(Codegen, DownCountingLoop) {
  auto prog = dfl::parseDflOrDie(R"(
    program down;
    input a[8] : fix;
    output y : fix;
    var s : fix;
    begin
      s := 0;
      for i := 7 to 0 step -1 do
        s := s + a[i];
      endfor
      y := s;
    end
  )");
  auto m = compileRun(prog, TargetConfig{}, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, UnrollThresholdEquivalence) {
  auto prog = dfl::parseDflOrDie(R"(
    program unroll;
    input a[4] : fix;
    input b[4] : fix;
    output y : fix;
    var s : fix;
    begin
      s := 0;
      for i := 0 to 3 do
        s := s + a[i]*b[i];
      endfor
      y := s;
    end
  )");
  TargetConfig cfg;
  for (int threshold : {0, 2, 8}) {
    CodegenOptions o = recordOptions();
    o.unrollThreshold = threshold;
    auto m = compileRun(prog, cfg, o);
    EXPECT_TRUE(m.ok) << "threshold " << threshold << ": " << m.error;
  }
}

TEST(Codegen, DelayLinesAcrossManyTicks) {
  auto prog = dfl::parseDflOrDie(R"(
    program echo;
    input x delay 4 : fix;
    var fb delay 1 : fix;
    output y : fix;
    begin
      fb := x + (fb@1 >> 1);
      y := fb + x@4;
    end
  )");
  for (bool dmov : {true, false}) {
    TargetConfig cfg;
    cfg.hasDmov = dmov;
    auto m = compileRun(prog, cfg, recordOptions(), /*ticks=*/8);
    EXPECT_TRUE(m.ok) << "dmov=" << dmov << ": " << m.error;
  }
}

TEST(Codegen, ShiftPrograms) {
  auto prog = dfl::parseDflOrDie(R"(
    program shifts;
    input a : int;
    output y1 : int;
    output y2 : int;
    output y3 : int;
    begin
      y1 := a << 3;
      y2 := a >> 2;
      y3 := a >>> 2;
    end
  )");
  auto m = compileRun(prog, TargetConfig{}, recordOptions());
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(Codegen, RewriteNeverIncreasesCost) {
  for (const char* src : {
           "program p1; input a : fix; input b : fix; output y : fix; "
           "begin y := a + (b + (a + b)); end",
           "program p2; input a : fix; input b : fix; output y : fix; "
           "begin y := (a + b) * 4; end",
           "program p3; input a : fix; input b : fix; input c : fix; "
           "output y : fix; begin y := a*c + b*c; end",
       }) {
    auto prog = dfl::parseDflOrDie(src);
    TargetConfig cfg;
    CodegenOptions off = recordOptions();
    off.rewriteBudget = 1;
    CodegenOptions on = recordOptions();
    on.rewriteBudget = 64;
    auto moff = compileRun(prog, cfg, off);
    auto mon = compileRun(prog, cfg, on);
    ASSERT_TRUE(moff.ok && mon.ok) << moff.error << mon.error;
    EXPECT_LE(mon.sizeWords, moff.sizeWords) << src;
  }
}

TEST(Codegen, StatsArePopulated) {
  auto prog = dfl::parseDflOrDie(R"(
    program stats;
    const N = 8;
    input x[N] : fix;
    input h[N] : fix;
    output y : fix;
    var acc : fix;
    begin
      acc := 0;
      for i := 0 to N-1 do
        acc := acc + x[i]*h[i];
      endfor
      y := acc;
    end
  )");
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  EXPECT_GT(res.stats.sizeWords, 0);
  EXPECT_EQ(res.stats.statements, 3);
  EXPECT_GT(res.stats.variantsTried, 0);
  EXPECT_GT(res.stats.patternsUsed, 0);
  EXPECT_EQ(res.stats.promote.promotions, 1);  // acc promoted out of loop
}

// ---------------------------------------------------------------------------
// Loop fission: a counted loop whose streams plus counter overflow the AR
// file runs as consecutive BANZ loops when its body splits legally.
// ---------------------------------------------------------------------------

/// [top, back branch] instruction ranges of the loops of `tp`.
std::vector<std::pair<int, int>> loopsOf(const TargetProgram& tp) {
  std::vector<std::pair<int, int>> loops;
  for (int j = 0; j < tp.sizeWords(); ++j) {
    const std::string& target = tp.code[static_cast<size_t>(j)].targetLabel;
    if (target.empty()) continue;
    const int top = tp.labelIndex(target);
    if (top >= 0 && top <= j) loops.push_back({top, j});
  }
  return loops;
}

/// Compile `prog` for every defaultSweep() config in the oracle's fast and
/// slow modes and check each against Interp over three ticks (state carried
/// between ticks shows a misplaced read); both modes must emit the same
/// code. Returns the default config's program.
TargetProgram expectMatchesInterpOnSweep(const Program& prog) {
  const Stimulus stim = defaultStimulus(prog, 7, 3);
  TargetProgram onDefault;
  for (const auto& pt : difftest::defaultSweep()) {
    SCOPED_TRACE(pt.name);
    std::string listing[2];
    for (bool fast : {false, true}) {
      auto res = RecordCompiler(pt.cfg, difftest::oracleOptions(fast))
                     .compile(prog);
      auto m = runAndCompare(res.prog, prog, stim);
      EXPECT_TRUE(m.ok) << (fast ? "fast: " : "slow: ") << m.error << "\n"
                        << res.prog.listing();
      listing[fast] = res.prog.listing();
      if (pt.name == "default") onDefault = std::move(res.prog);
    }
    EXPECT_EQ(listing[0], listing[1]);
  }
  return onDefault;
}

TEST(Codegen, LoopFissionSplitsNComplexUpdates) {
  const Program prog =
      dfl::parseDflOrDie(kernelByName("n_complex_updates").dfl);
  const TargetProgram tp = expectMatchesInterpOnSweep(prog);
  const auto loops = loopsOf(tp);
  ASSERT_EQ(loops.size(), 2u) << tp.listing();
  for (const auto& [top, back] : loops) {
    EXPECT_EQ(tp.code[static_cast<size_t>(back)].op, Opcode::BANZ);
    for (int i = top; i <= back; ++i) {
      const Opcode op = tp.code[static_cast<size_t>(i)].op;
      EXPECT_NE(op, Opcode::LAR) << tp.listing();
      EXPECT_NE(op, Opcode::ADRK) << tp.listing();
    }
  }
  for (const Instr& in : tp.code) EXPECT_NE(in.op, Opcode::BGEZ);
}

// The second statement reads x only at the element the first one wrote in
// the same iteration, so the split is legal.
TEST(Codegen, LoopFissionSplitsSameElementRead) {
  const Program prog = dfl::parseDflOrDie(R"(
    program fission_same;
    const N = 16;
    input a[N] : fix; input b[N] : fix; input c[N] : fix;
    input d[N] : fix; input e[N] : fix; input f[N] : fix;
    input g[N] : fix; input h[N] : fix;
    output x[N] : fix;
    output y[N] : fix;
    begin
      for i := 0 to N-1 do
        x[i] := a[i] + b[i] + c[i] + d[i] + e[i];
        y[i] := x[i] - f[i] + g[i] - h[i];
      endfor
    end
  )");
  const TargetProgram tp = expectMatchesInterpOnSweep(prog);
  const auto loops = loopsOf(tp);
  ASSERT_EQ(loops.size(), 2u) << tp.listing();
  for (const auto& loop : loops)
    EXPECT_EQ(tp.code[static_cast<size_t>(loop.second)].op, Opcode::BANZ);
}

// Each body below has ten stream groups, one too many for the default AR
// file even with the scratch AR, and each statement alone would fit. A cut
// between the two statements is illegal, so each stays one loop.
TEST(Codegen, LoopFissionRefusesIllegalCuts) {
  const char* kDecls = R"(
    const N = 16;
    input a[N] : fix; input b[N] : fix; input c[N] : fix;
    input d[N] : fix; input e[N] : fix; input f[N] : fix;
    input g[N] : fix; input h[N] : fix; input p[N] : fix;
    input v : int;
    output y[N] : fix;
  )";
  struct Case {
    const char* name;
    const char* decls;
    const char* body;
  };
  const Case cases[] = {
      // A later statement writes an array the earlier one reads.
      {"later_writes_read_array", "var t[N] : fix;",
       "y[i] := t[i] + a[i] + b[i] + c[i] + d[i];\n"
       "t[i] := e[i] + f[i] + g[i] + h[i];"},
      // The later statement reads x one element ahead of the write.
      {"shifted_read", "var x[17] : fix;",
       "x[i] := a[i] + b[i] + c[i] + d[i] + e[i];\n"
       "y[i] := x[i+1] + f[i] + g[i] + h[i];"},
      // A scalar carries a value from one statement to the next.
      {"carried_scalar", "var s : fix;",
       "s := a[i] + b[i] + c[i] + d[i] + e[i];\n"
       "y[i] := s + f[i] + g[i] + h[i] + p[i];"},
      // The later statement reads x at a dynamic index.
      {"dynamic_index", "var x[N] : fix;",
       "x[i] := a[i] + b[i] + c[i] + d[i] + e[i];\n"
       "y[i] := x[v & 7] + f[i] + g[i] + h[i];"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Program prog = dfl::parseDflOrDie(
        std::string("program ") + c.name + ";\n" + kDecls + c.decls +
        "\nbegin\n  for i := 0 to N-1 do\n" + c.body +
        "\n  endfor\nend\n");
    const TargetProgram tp = expectMatchesInterpOnSweep(prog);
    EXPECT_EQ(loopsOf(tp).size(), 1u) << tp.listing();
  }
}

// Random loop bodies over shared arrays and scalars, at shifted indexes:
// the small AR files of the sweep (two-ars, one-ar, kitchen-sink) make
// most of them overflow, so cuts are tried, taken and refused at random,
// and Interp checks each outcome.
TEST(Codegen, LoopFissionRandomBodies) {
  int splitLoops = 0;
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int n) {
      return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };
    auto read = [&]() -> std::string {
      switch (pick(4)) {
        case 0: return "s" + std::to_string(pick(2));
        case 1:
          return "y" + std::to_string(pick(3)) + "[i+" +
                 std::to_string(pick(3)) + "]";
        default:
          return "a" + std::to_string(pick(6)) + "[i+" +
                 std::to_string(pick(2)) + "]";
      }
    };
    std::ostringstream os;
    os << "program fission" << seed << ";\n";
    for (int k = 0; k < 6; ++k) os << "input a" << k << "[9] : fix;\n";
    for (int k = 0; k < 3; ++k) os << "output y" << k << "[10] : fix;\n";
    os << "var s0 : fix;\nvar s1 : fix;\nbegin\n  for i := 0 to 7 do\n";
    const int stmts = 2 + pick(3);
    for (int n = 0; n < stmts; ++n) {
      if (pick(5) == 0)
        os << "    s" << pick(2) << " := ";
      else
        os << "    y" << pick(3) << "[i+" << pick(3) << "] := ";
      os << read();
      for (int terms = 1 + pick(3); terms > 0; --terms)
        os << (pick(2) ? " + " : " - ") << read();
      os << ";\n";
    }
    os << "  endfor\nend\n";
    SCOPED_TRACE(os.str());
    const Program prog = dfl::parseDflOrDie(os.str());
    const Stimulus stim = defaultStimulus(prog, seed, 3);
    for (const auto& pt : difftest::defaultSweep()) {
      auto res = RecordCompiler(pt.cfg, difftest::oracleOptions(true))
                     .compile(prog);
      auto m = runAndCompare(res.prog, prog, stim);
      EXPECT_TRUE(m.ok) << pt.name << ": " << m.error << "\n"
                        << res.prog.listing();
      splitLoops += loopsOf(res.prog).size() > 1;
    }
  }
  EXPECT_GT(splitLoops, 0);
}

// Three points fit a line through i & 7, so the affine test checks the
// shape of the index too: y[i & 7] is no stream of y[i].
TEST(Codegen, NonAffineIndexIsNoStream) {
  const Program prog = dfl::parseDflOrDie(R"(
    program and7;
    const N = 16;
    input a[N] : fix;
    output y[N] : fix;
    begin
      for i := 0 to N-1 do
        y[i & 7] := a[i];
      endfor
    end
  )");
  expectMatchesInterpOnSweep(prog);
}

// ---------------------------------------------------------------------------
// Property test: random programs, many configurations
// ---------------------------------------------------------------------------

struct RandomProgram {
  std::string source;
};

std::string genRandomProgram(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  std::ostringstream os;
  os << "program rnd" << seed << ";\n";
  int nScalars = 2 + pick(3);
  int nArrays = 1 + pick(2);
  for (int i = 0; i < nScalars; ++i)
    os << "input s" << i << " : fix;\n";
  for (int i = 0; i < nArrays; ++i)
    os << "input v" << i << "[8] : fix;\n";
  os << "var t0 : fix;\nvar t1 : fix;\noutput y : fix;\n";

  // Random expression over declared names (bounded depth).
  std::function<std::string(int)> expr = [&](int depth) -> std::string {
    if (depth <= 0 || pick(3) == 0) {
      switch (pick(4)) {
        case 0: return "s" + std::to_string(pick(nScalars));
        case 1: return "v" + std::to_string(pick(nArrays)) + "[" +
                       std::to_string(pick(8)) + "]";
        case 2: return std::to_string(pick(19) - 9);
        default: return "t0";
      }
    }
    static const char* ops[] = {" + ", " - ", " * ", " + ", " - "};
    return "(" + expr(depth - 1) + ops[pick(5)] + expr(depth - 1) + ")";
  };

  os << "begin\n";
  os << "t0 := " << expr(2) << ";\n";
  os << "t1 := " << expr(3) << ";\n";
  // A loop over one array.
  os << "for i := 0 to 7 do\n";
  os << "  t0 := t0 + v0[i]" << (pick(2) ? " * s0" : "") << ";\n";
  os << "endfor\n";
  os << "y := t0 + t1;\n";
  os << "end\n";
  return os.str();
}

class RandomProgramTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomProgramTest, AllConfigurationsMatchGoldenModel) {
  auto src = genRandomProgram(GetParam());
  auto prog = dfl::parseDflOrDie(src);

  struct Combo {
    const char* label;
    TargetConfig cfg;
    CodegenOptions opt;
  };
  std::vector<Combo> combos;
  combos.push_back({"record", TargetConfig{}, recordOptions()});
  combos.push_back({"baseline", TargetConfig{}, baselineOptions()});
  combos.push_back({"naive", TargetConfig{}, naiveOptions()});
  {
    Combo c{"cycles-cost", TargetConfig{}, recordOptions()};
    c.opt.cost = CostKind::Cycles;
    combos.push_back(c);
  }
  {
    Combo c{"2ars", TargetConfig{}, recordOptions()};
    c.cfg.numAddrRegs = 2;
    combos.push_back(c);
  }
  {
    Combo c{"dualmul", TargetConfig{}, recordOptions()};
    c.cfg.hasDualMul = true;
    c.cfg.memBanks = 2;
    combos.push_back(c);
  }
  {
    Combo c{"optimal-compact", TargetConfig{}, recordOptions()};
    c.opt.compaction = CompactMode::Optimal;
    combos.push_back(c);
  }

  for (const auto& c : combos) {
    RecordCompiler rc(c.cfg, c.opt);
    auto res = rc.compile(prog);
    auto m = runAndCompare(res.prog, prog,
                           defaultStimulus(prog, GetParam() * 7 + 1, 2));
    EXPECT_TRUE(m.ok) << c.label << " on seed " << GetParam() << ": "
                      << m.error << "\nsource:\n"
                      << src << "\ncode:\n"
                      << res.prog.listing();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace record

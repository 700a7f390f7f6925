// The golden-model interpreter (ir/interp.h): operator semantics on small
// DFL programs, the runtime error contract on hand-built programs, and the
// frozen oracle tests/golden/interp_outputs.golden.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfl/frontend.h"
#include "difftest/corpus.h"
#include "difftest/difftest.h"
#include "dspstone/kernels.h"
#include "golden.h"
#include "ir/interp.h"

namespace record {
namespace {

TEST(Interp, DotProduct) {
  auto prog = dfl::parseDflOrDie(R"(
    program dot;
    const N = 4;
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
  Interp in(prog);
  in.setArray("x", {1, 2, 3, 4});
  in.setArray("h", {10, 20, 30, 40});
  in.run();
  EXPECT_EQ(in.scalar("y"), 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(Interp, WrapOnStore) {
  auto prog = dfl::parseDflOrDie(R"(
    program w;
    input a : fix;
    output y : fix;
    begin
      y := a * a;
    end
  )");
  Interp in(prog);
  in.setScalar("a", 300);
  in.run();
  EXPECT_EQ(in.scalar("y"), wrap16(300 * 300));
}

TEST(Interp, SaturatingAdd) {
  auto prog = dfl::parseDflOrDie(R"(
    program s;
    input a : fix;
    input b : fix;
    output w : fix;
    begin
      w := ((a << 8) +| (b << 8)) >> 8;
    end
  )");
  Interp in(prog);
  // (30000<<8) + (30000<<8) = 15360000 << 1 which exceeds 2^31-1? No:
  // 30000*256*2 = 15.36e6, fits in 32 bits, so no saturation here.
  // Use larger shifts to force 32-bit saturation.
  in.setScalar("a", 30000);
  in.setScalar("b", 30000);
  in.run();
  EXPECT_EQ(in.scalar("w"), wrap16((30000LL * 256 + 30000LL * 256) >> 8));
}

TEST(Interp, SaturationAt32Bits) {
  auto prog = dfl::parseDflOrDie(R"(
    program s2;
    input a : fix;
    output y : fix;
    begin
      y := ((a << 16) +| (a << 16)) >> 16;
    end
  )");
  Interp in(prog);
  in.setScalar("a", 30000);  // 30000<<16 ~ 1.97e9; doubled saturates.
  in.run();
  EXPECT_EQ(in.scalar("y"), 2147483647LL >> 16);
}

TEST(Interp, DelayLineFilter) {
  // y[t] = x[t] + 2*x[t-1] + 3*x[t-2]
  auto prog = dfl::parseDflOrDie(R"(
    program fir3;
    input x delay 2 : fix;
    output y : fix;
    begin
      y := x + x@1 * 2 + x@2 * 3;
    end
  )");
  Interp in(prog);
  in.setStream("x", {5, 7, 11, 13});
  in.run(4);
  const auto& tr = in.trace("y");
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr[0], 5);
  EXPECT_EQ(tr[1], 7 + 2 * 5);
  EXPECT_EQ(tr[2], 11 + 2 * 7 + 3 * 5);
  EXPECT_EQ(tr[3], 13 + 2 * 11 + 3 * 7);
}

TEST(Interp, DelayedVarCarriesAcrossTicks) {
  // Accumulator via delayed output of itself: s = s@1 + x.
  auto prog = dfl::parseDflOrDie(R"(
    program acc;
    input x : fix;
    var s delay 1 : fix;
    output y : fix;
    begin
      s := s@1 + x;
      y := s;
    end
  )");
  Interp in(prog);
  in.setStream("x", {1, 2, 3});
  in.run(3);
  EXPECT_EQ(in.trace("y")[2], 6);
  // A scalar's cells: its value, then its delayed values.
  EXPECT_EQ(in.array("s"), (std::vector<int64_t>{6, 6}));
}

TEST(Interp, ArrayStore) {
  auto prog = dfl::parseDflOrDie(R"(
    program st;
    input x[4] : fix;
    output y[4] : fix;
    begin
      for i := 0 to 3 do
        y[i] := x[3-i] * 2;
      endfor
    end
  )");
  Interp in(prog);
  in.setArray("x", {1, 2, 3, 4});
  in.run();
  auto y = in.array("y");
  EXPECT_EQ(y, (std::vector<int64_t>{8, 6, 4, 2}));
}

TEST(Interp, ShiftSemantics) {
  auto prog = dfl::parseDflOrDie(R"(
    program sh;
    input a : int;
    output y1 : int;
    output y2 : int;
    begin
      y1 := a >> 2;
      y2 := (a << 4) >>> 4;
    end
  )");
  Interp in(prog);
  in.setScalar("a", -16);
  in.run();
  EXPECT_EQ(in.scalar("y1"), -4);
  // -16 << 4 = -256 (32-bit), logical >> 4 of 0xffffff00 = 0x0fffffff0,
  // stored low 16 bits.
  EXPECT_EQ(in.scalar("y2"), wrap16(0x0ffffff0 >> 0));
}

TEST(Interp, OutOfRangeIndexThrows) {
  auto prog = dfl::parseDflOrDie(R"(
    program oob;
    input a[4] : fix;
    input k : int;
    output y : fix;
    begin
      y := a[k];
    end
  )");
  Interp in(prog);
  in.setScalar("k", 9);
  EXPECT_THROW(in.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Runtime error contract
// ---------------------------------------------------------------------------
// Every error is raised when the faulting node or statement is evaluated,
// never earlier, with a fixed message.

Symbol* define(Program& p, const std::string& name, SymKind kind,
               int arraySize = 0, int delayDepth = 0) {
  Symbol s;
  s.name = name;
  s.kind = kind;
  s.arraySize = arraySize;
  s.delayDepth = delayDepth;
  return p.symbols.define(std::move(s));
}

/// The message of the error `in.run()` raises, or "" if it runs through.
std::string runError(Interp& in, int ticks = 1) {
  try {
    in.run(ticks);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

ExprPtr num(int64_t v) { return Expr::constant(v); }

TEST(Interp, ForeignSymbolHasNoStorage) {
  Program other;
  const Symbol* f = define(other, "f", SymKind::Var);
  Program p;
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::assign(y, Expr::ref(f)));
  Interp in(p);
  EXPECT_EQ(runError(in), "no storage: f");
}

TEST(Interp, StoreToForeignSymbolHasNoStorage) {
  Program other;
  const Symbol* f = define(other, "f", SymKind::Var, 4);
  Program p;
  p.body.push_back(Stmt::assign(f, num(1), num(0)));
  Interp in(p);
  EXPECT_EQ(runError(in), "no storage: f");
}

TEST(Interp, ArrayRefOfInductionVarHasNoStorage) {
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::forLoop(
      i, 0, 1, 1, {Stmt::assign(y, Expr::arrayRef(i, num(0)))}));
  Interp in(p);
  EXPECT_EQ(runError(in), "no storage: i");
}

TEST(Interp, DelayOutOfRange) {
  Program p;
  const Symbol* x = define(p, "x", SymKind::Input, 0, 1);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::assign(y, Expr::ref(x, 1)));
  p.body.push_back(Stmt::assign(y, Expr::ref(x, 2)));
  Interp in(p);
  EXPECT_EQ(runError(in), "delay out of range: x");
}

TEST(Interp, ArrayIndexOutOfRange) {
  for (int64_t idx : {-1, 4}) {
    Program p;
    const Symbol* a = define(p, "a", SymKind::Input, 4);
    const Symbol* y = define(p, "y", SymKind::Output);
    p.body.push_back(Stmt::assign(y, Expr::arrayRef(a, num(idx))));
    Interp in(p);
    EXPECT_EQ(runError(in), "array index out of range: a") << idx;
  }
}

TEST(Interp, StoreIndexOutOfRange) {
  for (int64_t idx : {-1, 4}) {
    Program p;
    const Symbol* a = define(p, "a", SymKind::Output, 4);
    p.body.push_back(Stmt::assign(a, num(1), num(idx)));
    Interp in(p);
    EXPECT_EQ(runError(in), "store index out of range: a") << idx;
  }
}

TEST(Interp, InductionVarOutsideLoop) {
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::assign(y, Expr::ref(i)));
  Interp in(p);
  EXPECT_EQ(runError(in), "induction var outside loop: i");
}

TEST(Interp, PatternOnlyStoreIsBadOp) {
  Program p;
  const Symbol* x = define(p, "x", SymKind::Var);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::assign(
      y, Expr::binary(Op::Store, Expr::ref(x), num(1))));
  Interp in(p);
  EXPECT_EQ(runError(in), "bad op");
}

// Errors follow evaluation: statements before the faulting one take
// effect, and a value-dependent fault is raised on the tick that has it.
TEST(Interp, ErrorsAreRaisedWhenReached) {
  Program p;
  const Symbol* a = define(p, "a", SymKind::Input, 4);
  const Symbol* k = define(p, "k", SymKind::Input);
  const Symbol* y = define(p, "y", SymKind::Output);
  const Symbol* z = define(p, "z", SymKind::Output);
  p.body.push_back(Stmt::assign(z, Expr::ref(k)));
  p.body.push_back(Stmt::assign(y, Expr::arrayRef(a, Expr::ref(k))));
  Interp in(p);
  in.setArray("a", {10, 20, 30, 40});
  in.setStream("k", {3, 4});
  EXPECT_EQ(runError(in), "");
  EXPECT_EQ(in.scalar("y"), 40);
  EXPECT_EQ(runError(in), "array index out of range: a");
  EXPECT_EQ(in.scalar("z"), 4);
}

TEST(Interp, UnreachedBadReferenceDoesNotThrow) {
  Program other;
  const Symbol* f = define(other, "f", SymKind::Var);
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::forLoop(i, 1, 0, 1,
                                 {Stmt::assign(y, Expr::ref(f)),
                                  Stmt::assign(f, Expr::ref(i, 3), num(9))}));
  p.body.push_back(Stmt::assign(y, num(5)));
  Interp in(p);
  EXPECT_EQ(runError(in, 2), "");
  EXPECT_EQ(in.trace("y"), (std::vector<int64_t>{5, 5}));
}

// A loop binds its induction variable for its own body only: an inner loop
// that reuses the outer loop's variable unbinds it on exit.
TEST(Interp, NestedLoopReusingIvarUnbindsItOnExit) {
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  const Symbol* z = define(p, "z", SymKind::Output);
  p.body.push_back(Stmt::forLoop(
      i, 0, 1, 1,
      {Stmt::assign(z, Expr::ref(i)),
       Stmt::forLoop(i, 5, 7, 1, {Stmt::assign(y, Expr::ref(i))}),
       Stmt::assign(z, Expr::ref(i))}));
  Interp in(p);
  EXPECT_EQ(runError(in), "induction var outside loop: i");
  EXPECT_EQ(in.scalar("y"), 7);
  EXPECT_EQ(in.scalar("z"), 0);
}

// Stmt::tripCount() defines a step-0 loop as zero trips; the interpreter
// runs exactly the trip count.
TEST(Interp, StepZeroLoopRunsNoTrips) {
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  p.body.push_back(Stmt::assign(y, num(3)));
  for (int64_t hi : {-5, 0, 5})
    p.body.push_back(Stmt::forLoop(
        i, 0, hi, 0,
        {Stmt::assign(y, Expr::binary(Op::Add, Expr::ref(y), num(1)))}));
  Interp in(p);
  EXPECT_EQ(runError(in), "");
  EXPECT_EQ(in.scalar("y"), 3);
}

// A loop ending at the int64 limits stops there instead of stepping past.
TEST(Interp, LoopAtInt64LimitsStops) {
  constexpr int64_t kMax = INT64_MAX, kMin = INT64_MIN;
  Program p;
  const Symbol* i = define(p, "i", SymKind::Induction);
  const Symbol* y = define(p, "y", SymKind::Output);
  const Symbol* z = define(p, "z", SymKind::Output);
  auto count = Stmt::assign(y, Expr::binary(Op::Add, Expr::ref(y), num(1)));
  auto last = Stmt::assign(z, Expr::ref(i));
  p.body.push_back(Stmt::forLoop(i, kMax - 4, kMax, 2, {count, last}));
  p.body.push_back(Stmt::forLoop(i, kMin + 2, kMin, -1, {count}));
  Interp in(p);
  EXPECT_EQ(runError(in), "");
  EXPECT_EQ(in.scalar("y"), 3 + 3);
  EXPECT_EQ(in.scalar("z"), wrap16(kMax));
}

// ---------------------------------------------------------------------------
// The frozen oracle: tests/golden/interp_outputs.golden
// ---------------------------------------------------------------------------
// One line per (program, stimulus): an FNV-64 digest of every tick's
// outputs -- scalars and full arrays, in symbol order. Covers the DSPStone
// kernels, the sim_long kernel sizes, the committed difftest corpus and
// the first 500 generated programs.

std::string goldenLine(const std::string& key, const Program& prog,
                       const Stimulus& stim) {
  Interp in(prog);
  for (const auto& [name, vals] : stim.arrays) in.setArray(name, vals);
  for (const auto& [name, vals] : stim.scalars) in.setStream(name, vals);
  std::string outs, error;
  try {
    for (int t = 0; t < stim.ticks; ++t) {
      in.run(1);
      for (const auto& sym : prog.symbols.all()) {
        if (sym->kind != SymKind::Output) continue;
        outs += sym->name + "=";
        if (sym->isArray()) {
          for (int64_t v : in.array(sym->name)) outs += std::to_string(v) + ",";
        } else {
          outs += std::to_string(in.scalar(sym->name));
        }
        outs += ";";
      }
      outs += "\n";
    }
  } catch (const std::runtime_error& e) {
    error = std::string(" error=") + e.what();
  }
  return key + " ticks=" + std::to_string(stim.ticks) +
         " outputs=" + golden::digest(outs) + error;
}

std::string seedWord(uint64_t seed) { return "seed-" + std::to_string(seed); }

/// "N960" for a long kernel whose DFL raised `const N = 16;` to
/// `const N = 960;`: the first line where it differs from the DSPStone
/// kernel of the same name names the size constant.
std::string sizeTag(const Kernel& k) {
  std::istringstream base(kernelByName(k.name).dfl), sized(k.dfl);
  std::string a, b;
  while (std::getline(base, a) && std::getline(sized, b)) {
    if (a == b) continue;
    char name[32];
    int value = 0;
    if (std::sscanf(b.c_str(), " const %31[A-Za-z0-9_] = %d", name,
                    &value) != 2)
      break;
    return name + std::to_string(value);
  }
  ADD_FAILURE() << k.name << ": no raised size constant";
  return "?";
}

TEST(Interp, MatchesFrozenGolden) {
  std::map<std::string, std::vector<std::string>> sections;
  for (const auto& k : dspstoneKernels()) {
    Program prog = dfl::parseDflOrDie(k.dfl);
    sections["dspstone"].push_back(
        goldenLine("dspstone " + k.name + " " + seedWord(1), prog,
                   difftest::makeStimulus(prog, 1, 16)));
  }
  // The DSPStone loop kernels at the sizes the sim_long workload runs.
  for (const Kernel& k : longKernels()) {
    Program prog = dfl::parseDflOrDie(k.dfl);
    sections["long"].push_back(
        goldenLine("long " + k.name + "-" + sizeTag(k) + " " + seedWord(1),
                   prog, difftest::makeStimulus(prog, 1, 16)));
  }
  auto files = difftest::listCorpusFiles(RECORD_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    difftest::CorpusEntry e;
    std::string err;
    ASSERT_TRUE(difftest::loadCorpusFile(path, &e, &err)) << err;
    Program prog = dfl::parseDflOrDie(e.source);
    sections["corpus"].push_back(
        goldenLine("corpus " + e.name + " " + seedWord(e.seed), prog,
                   difftest::makeStimulus(prog, e.seed, e.ticks)));
  }
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    difftest::ProgSpec spec = difftest::generateProgram(seed);
    Program prog = dfl::parseDflOrDie(spec.render());
    sections["gen"].push_back(goldenLine(
        "gen program-" + std::to_string(seed) + " " + seedWord(seed), prog,
        difftest::makeStimulus(prog, seed, spec.ticks)));
  }
  for (const auto& [section, lines] : sections)
    golden::expectGoldenSection(
        std::string(RECORD_GOLDEN_DIR) + "/interp_outputs.golden", section,
        lines);
}

}  // namespace
}  // namespace record

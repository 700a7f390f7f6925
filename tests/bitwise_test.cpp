// Bitwise operators end-to-end: DFL '&'/'|'/'^' through the interpreter,
// the instruction selector (AND/ANDK/OR/XOR) and the simulator. Semantics
// are hardware-exact: the right operand is a 16-bit word (zero-extended),
// AND clears the accumulator's high half (see ir/expr.h).
#include <gtest/gtest.h>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "ir/interp.h"
#include "target/tdsp.h"

namespace record {
namespace {

TEST(Bitwise, LexAndParsePrecedence) {
  // Bitwise binds loosest: a & b + c parses as a & (b + c).
  auto prog = dfl::parseDflOrDie(R"(
    program p;
    input a : int;
    input b : int;
    input c : int;
    output y : int;
    begin
      y := a & b + c;
    end
  )");
  EXPECT_EQ(prog.body[0].rhs->str(), "(and a (add b c))");
}

TEST(Bitwise, InterpreterSemantics) {
  auto prog = dfl::parseDflOrDie(R"(
    program p;
    input a : int;
    input b : int;
    output yand : int;
    output yor : int;
    output yxor : int;
    begin
      yand := a & b;
      yor := a | b;
      yxor := a ^ b;
    end
  )");
  Interp in(prog);
  in.setScalar("a", 0b1100);
  in.setScalar("b", 0b1010);
  in.run();
  EXPECT_EQ(in.scalar("yand"), 0b1000);
  EXPECT_EQ(in.scalar("yor"), 0b1110);
  EXPECT_EQ(in.scalar("yxor"), 0b0110);
}

TEST(Bitwise, AndClearsHighHalf) {
  // -1 & 0x00ff: the sign-extended accumulator is masked down to 16 bits.
  auto prog = dfl::parseDflOrDie(R"(
    program p;
    input a : int;
    output y : int;
    begin
      y := (a & 255) >> 4;
    end
  )");
  Interp in(prog);
  in.setScalar("a", -1);
  in.run();
  EXPECT_EQ(in.scalar("y"), 0x00ff >> 4);
}

TEST(Bitwise, SelectionUsesAndk) {
  auto prog = dfl::parseDflOrDie(R"(
    program p;
    input a : int;
    output y : int;
    begin
      y := a & 15;
    end
  )");
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  bool andk = false;
  for (const auto& i : res.prog.code)
    if (i.op == Opcode::ANDK) andk = true;
  EXPECT_TRUE(andk) << res.prog.listing();
}

class BitwiseKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(BitwiseKernels, CompiledMatchesGoldenModel) {
  auto prog = dfl::parseDflOrDie(GetParam());
  for (bool baseline : {false, true}) {
    TargetConfig cfg;
    auto res = RecordCompiler(cfg, baseline ? baselineOptions()
                                            : recordOptions())
                   .compile(prog);
    for (uint32_t seed : {1u, 4u, 8u}) {
      auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, seed, 2));
      EXPECT_TRUE(m.ok) << (baseline ? "baseline" : "record") << " seed "
                        << seed << ": " << m.error << "\n"
                        << res.prog.listing();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, BitwiseKernels,
    ::testing::Values(
        "program b1; input a : int; input b : int; output y : int; "
        "begin y := (a & b) | (a ^ b); end",
        "program b2; input a : int; output y : int; "
        "begin y := ((a & 255) | 16) ^ 85; end",
        "program b3; const N = 8; input v[N] : int; input m : int; "
        "output y : int; var s : int; begin s := 0; "
        "for i := 0 to N-1 do s := s + (v[i] & m); endfor y := s; end",
        "program b4; input a : int; input b : int; input c : int; "
        "output y : int; begin y := (a + b) & (b - c); end"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return "prog" + std::to_string(info.index);
    });

TEST(Bitwise, MaskExtractIdiom) {
  // Classic field extraction: high and low bytes via shift + mask.
  auto prog = dfl::parseDflOrDie(R"(
    program fieldext;
    input x : int;
    output hi : int;
    output lo : int;
    begin
      hi := (x >>> 8) & 255;
      lo := x & 255;
    end
  )");
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  Stimulus stim;
  stim.ticks = 1;
  stim.scalars["x"] = {0x1234};
  auto m = runAndCompare(res.prog, prog, stim);
  ASSERT_TRUE(m.ok) << m.error;
  Interp gold(prog);
  gold.setScalar("x", 0x1234);
  gold.run();
  EXPECT_EQ(gold.scalar("hi"), 0x12);
  EXPECT_EQ(gold.scalar("lo"), 0x34);
}

TEST(Bitwise, SelfTestCoversBitwiseRules) {
  TargetConfig cfg;
  auto rules = rulesFor(tdspDesc(), cfg);
  bool hasAnd = false, hasOr = false, hasXor = false;
  for (const auto& r : rules.rules) {
    if (r.name == "and_mem") hasAnd = true;
    if (r.name == "or_mem") hasOr = true;
    if (r.name == "xor_mem") hasXor = true;
  }
  EXPECT_TRUE(hasAnd && hasOr && hasXor);
}

}  // namespace
}  // namespace record

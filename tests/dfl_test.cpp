#include <gtest/gtest.h>

#include "dfl/frontend.h"
#include "dfl/lexer.h"

namespace record {
namespace {

using dfl::Lexer;
using dfl::Tok;

TEST(Lexer, BasicTokens) {
  DiagEngine d;
  Lexer lex("program p; x := a + b * 3;", d);
  auto toks = lex.lexAll();
  ASSERT_FALSE(d.hasErrors());
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  std::vector<Tok> expect = {Tok::KwProgram, Tok::Ident, Tok::Semi,
                             Tok::Ident,     Tok::Assign, Tok::Ident,
                             Tok::Plus,      Tok::Ident, Tok::Star,
                             Tok::Number,    Tok::Semi,  Tok::End};
  EXPECT_EQ(kinds, expect);
}

TEST(Lexer, SaturatingAndShiftOperators) {
  DiagEngine d;
  Lexer lex("a +| b -| c << 1 >> 2 >>> 3", d);
  auto toks = lex.lexAll();
  ASSERT_FALSE(d.hasErrors());
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  std::vector<Tok> expect = {Tok::Ident, Tok::PlusSat, Tok::Ident,
                             Tok::MinusSat, Tok::Ident, Tok::Shl,
                             Tok::Number, Tok::Shr, Tok::Number,
                             Tok::Shru, Tok::Number, Tok::End};
  EXPECT_EQ(kinds, expect);
}

TEST(Lexer, CommentsAndHex) {
  DiagEngine d;
  Lexer lex("x // comment here\n 0x1f", d);
  auto toks = lex.lexAll();
  ASSERT_FALSE(d.hasErrors());
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].number, 31);
}

TEST(Lexer, TracksLineNumbers) {
  DiagEngine d;
  Lexer lex("a\nb\n  c", d);
  auto toks = lex.lexAll();
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[2].loc.line, 3);
  EXPECT_EQ(toks[2].loc.col, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  DiagEngine d;
  Lexer lex("a $ b", d);
  lex.lexAll();
  EXPECT_TRUE(d.hasErrors());
}

TEST(Frontend, ParsesMinimalProgram) {
  auto prog = dfl::parseDflOrDie(R"(
    program tiny;
    input a : fix;
    output y : fix;
    begin
      y := a + 1;
    end
  )");
  EXPECT_EQ(prog.name, "tiny");
  ASSERT_EQ(prog.body.size(), 1u);
  EXPECT_EQ(prog.body[0].rhs->str(), "(add a 1)");
}

TEST(Frontend, ConstantsFoldInBoundsAndSizes) {
  auto prog = dfl::parseDflOrDie(R"(
    program k;
    const N = 8;
    input x[N] : fix;
    output y : fix;
    var acc : fix;
    begin
      acc := 0;
      for i := 0 to N-1 do
        acc := acc + x[i];
      endfor
      y := acc;
    end
  )");
  EXPECT_EQ(prog.symbols.lookup("x")->arraySize, 8);
  ASSERT_EQ(prog.body.size(), 3u);
  EXPECT_EQ(prog.body[1].kind, Stmt::Kind::For);
  EXPECT_EQ(prog.body[1].tripCount(), 8);
}

TEST(Frontend, DelayedSignals) {
  auto prog = dfl::parseDflOrDie(R"(
    program d;
    input x delay 2 : fix;
    output y : fix;
    begin
      y := x + x@1 + x@2;
    end
  )");
  EXPECT_EQ(prog.symbols.lookup("x")->delayDepth, 2);
  EXPECT_EQ(prog.body[0].rhs->str(), "(add (add x x@1) x@2)");
}

TEST(Frontend, SaturatingOps) {
  auto prog = dfl::parseDflOrDie(R"(
    program s;
    input a : fix;
    input b : fix;
    output y : fix;
    begin
      y := a +| b;
    end
  )");
  EXPECT_EQ(prog.body[0].rhs->op, Op::SatAdd);
}

struct ErrorCase {
  const char* name;
  const char* src;
  const char* expectInMessage;
};

// gtest would otherwise print the three pointers' bytes, which ASLR moves
// from run to run, and that text ends up in the ctest test name.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class FrontendErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(FrontendErrors, ReportsError) {
  DiagEngine diag;
  auto prog = dfl::parseDfl(GetParam().src, diag);
  EXPECT_FALSE(prog.has_value());
  EXPECT_TRUE(diag.hasErrors());
  EXPECT_NE(diag.str().find(GetParam().expectInMessage), std::string::npos)
      << "diagnostics were:\n"
      << diag.str();
}

INSTANTIATE_TEST_SUITE_P(
    Semantic, FrontendErrors,
    ::testing::Values(
        ErrorCase{"undeclared",
                  "program p; output y : fix; begin y := zz; end",
                  "undeclared identifier"},
        ErrorCase{"assign_to_input",
                  "program p; input a : fix; begin a := 1; end",
                  "cannot assign to input"},
        ErrorCase{"array_without_index",
                  "program p; input a[4] : fix; output y : fix; "
                  "begin y := a; end",
                  "used without index"},
        ErrorCase{"index_scalar",
                  "program p; input a : fix; output y : fix; "
                  "begin y := a[0]; end",
                  "is not an array"},
        ErrorCase{"delay_exceeds",
                  "program p; input x delay 1 : fix; output y : fix; "
                  "begin y := x@2; end",
                  "exceeds declared delay depth"},
        ErrorCase{"delay_on_array",
                  "program p; input x[4] delay 2 : fix; output y : fix; "
                  "begin y := x[0]; end",
                  "arrays cannot be delayed"},
        ErrorCase{"const_bounds",
                  "program p; input a : fix; output y : fix; "
                  "begin for i := 0 to a do y := 1; endfor end",
                  "not a compile-time constant"},
        ErrorCase{"const_index_oob",
                  "program p; input a[4] : fix; output y : fix; "
                  "begin y := a[4]; end",
                  "out of bounds"},
        ErrorCase{"redefinition",
                  "program p; input a : fix; input a : fix; "
                  "output y : fix; begin y := a; end",
                  "redefinition"},
        ErrorCase{"dyn_shift",
                  "program p; input a : fix; input k : int; "
                  "output y : fix; begin y := a << k; end",
                  "shift amount must be a constant"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return info.param.name;
    });

TEST(Frontend, ErrorsCarrySourceName) {
  DiagEngine diag;
  auto prog = dfl::parseDfl(
      "program p;\noutput y : fix;\nbegin\n  y := zz;\nend\n", diag,
      "kernel.dfl");
  EXPECT_FALSE(prog.has_value());
  EXPECT_NE(diag.str().find("kernel.dfl:4:"), std::string::npos)
      << "diagnostics were:\n"
      << diag.str();
}

TEST(Frontend, LiteralOverflowIsDiagnosed) {
  // Literals denote 16-bit data words; anything above 65535 cannot be
  // materialized and is rejected with a located error. The enormous one
  // used to trigger signed-accumulation overflow (UB) in the lexer.
  for (const char* lit : {"70000", "0x10000", "99999999999999999999"}) {
    DiagEngine diag;
    auto prog = dfl::parseDfl(std::string("program p; output y : fix; "
                                          "begin y := ") +
                                  lit + "; end",
                              diag, "big.dfl");
    EXPECT_FALSE(prog.has_value()) << lit;
    EXPECT_NE(diag.str().find("exceeds the 16-bit data word"),
              std::string::npos)
        << "diagnostics for " << lit << " were:\n"
        << diag.str();
    EXPECT_NE(diag.str().find("big.dfl:"), std::string::npos);
  }
  // 65535 itself is fine and wraps to -1.
  auto prog = dfl::parseDflOrDie(
      "program p; output y : fix; begin y := 65535; end");
  EXPECT_EQ(prog.body[0].rhs->value, -1);
}

TEST(Frontend, SyntaxErrorRecovery) {
  DiagEngine diag;
  auto prog = dfl::parseDfl("program p; output y : fix; begin y := ; end",
                            diag);
  EXPECT_FALSE(prog.has_value());
  EXPECT_TRUE(diag.hasErrors());
}

TEST(Frontend, NestedLoops) {
  auto prog = dfl::parseDflOrDie(R"(
    program mat;
    input a[16] : fix;
    output y[4] : fix;
    var s : fix;
    begin
      for r := 0 to 3 do
        s := 0;
        for c := 0 to 3 do
          s := s + a[r*4+c];
        endfor
        y[r] := s;
      endfor
    end
  )");
  ASSERT_EQ(prog.body.size(), 1u);
  const auto& outer = prog.body[0];
  ASSERT_EQ(outer.body.size(), 3u);
  EXPECT_EQ(outer.body[1].kind, Stmt::Kind::For);
  // Flatten and check one unrolled element: r=1,c=2 -> a[6].
  auto flat = flattenStmts(prog.body);
  ASSERT_EQ(flat.size(), 4u * 6u);
  bool found = false;
  for (const auto& s : flat)
    if (s.rhs->str() == "(add s a[6])") found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace record

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "support/diag.h"
#include "target/asmtext.h"
#include "target/desc.h"
#include "target/encode.h"
#include "target/isa.h"
#include "target/isd.h"
#include "target/tdsp.h"

namespace record {
namespace {

TEST(Isa, OpcodeNamesRoundTrip) {
  for (int i = 0; i < kNumOpcodes; ++i) {
    auto op = static_cast<Opcode>(i);
    Opcode back;
    ASSERT_TRUE(opcodeFromName(opcodeName(op), back)) << opcodeName(op);
    EXPECT_EQ(back, op);
  }
}

TEST(Isa, FeatureGating) {
  TargetConfig bare;
  bare.hasMac = false;
  bare.hasDualMul = false;
  bare.hasSat = false;
  bare.hasRpt = false;
  bare.hasDmov = false;
  EXPECT_TRUE(opcodeAvailable(Opcode::ADD, bare));
  EXPECT_FALSE(opcodeAvailable(Opcode::MPY, bare));
  EXPECT_FALSE(opcodeAvailable(Opcode::MPYXY, bare));
  EXPECT_FALSE(opcodeAvailable(Opcode::SOVM, bare));
  EXPECT_FALSE(opcodeAvailable(Opcode::RPT, bare));
  EXPECT_FALSE(opcodeAvailable(Opcode::LTD, bare));
  TargetConfig full;
  full.hasDualMul = true;
  EXPECT_TRUE(opcodeAvailable(Opcode::MACXY, full));
  EXPECT_TRUE(opcodeAvailable(Opcode::LTD, full));
}

TEST(Isa, InstrPrinting) {
  Instr in;
  in.op = Opcode::ADD;
  in.a = Operand::direct(42);
  EXPECT_EQ(in.str(), "ADD 42");
  in.op = Opcode::LT;
  in.a = Operand::indirect(3, PostMod::Inc);
  EXPECT_EQ(in.str(), "LT *AR3+");
  in.op = Opcode::LARK;
  in.a = Operand::imm(2);
  in.b = Operand::imm(15);
  EXPECT_EQ(in.str(), "LARK AR2, #15");
  in = Instr{};
  in.op = Opcode::BANZ;
  in.a = Operand::imm(0);
  in.targetLabel = "loop";
  EXPECT_EQ(in.str(), "BANZ AR0, loop");
}

TEST(Isa, BankOf) {
  TargetConfig cfg;
  cfg.memBanks = 2;
  cfg.dataWords = 2048;
  EXPECT_EQ(cfg.bankOf(0), 0);
  EXPECT_EQ(cfg.bankOf(1023), 0);
  EXPECT_EQ(cfg.bankOf(1024), 1);
  cfg.memBanks = 1;
  EXPECT_EQ(cfg.bankOf(2000), 0);
}

TEST(Assembler, SymbolsAndInstructions) {
  TargetConfig cfg;
  auto prog = assembleOrDie(R"(
      .sym x 4
      .sym y 1
      .init x 2 123
          LAC x+2
          ADD y
          SACL y
          HALT
  )",
                            cfg);
  EXPECT_EQ(prog.addrOf("x"), 0);
  EXPECT_EQ(prog.addrOf("y"), 4);
  ASSERT_EQ(prog.code.size(), 4u);
  EXPECT_EQ(prog.code[0].a.value, 2);
  EXPECT_EQ(prog.code[1].a.value, 4);
  ASSERT_EQ(prog.dataInit.size(), 1u);
  EXPECT_EQ(prog.dataInit[0].first, 2);
  EXPECT_EQ(prog.dataInit[0].second, 123);
}

TEST(Assembler, LabelsAndBranches) {
  TargetConfig cfg;
  auto prog = assembleOrDie(R"(
      .sym c 1
          LARK AR0, #3
  loop: LAC c
          ADDK #1
          SACL c
          BANZ AR0, loop
          HALT
  )",
                            cfg);
  EXPECT_EQ(prog.labelIndex("loop"), 1);
  EXPECT_EQ(prog.code[4].targetLabel, "loop");
}

TEST(Assembler, RejectsUnknownLabel) {
  TargetConfig cfg;
  DiagEngine diag;
  auto p = assembleText("B nowhere\nHALT\n", cfg, diag);
  EXPECT_FALSE(p.has_value());
  EXPECT_TRUE(diag.hasErrors());
}

TEST(Assembler, RejectsUnavailableOpcode) {
  TargetConfig cfg;
  cfg.hasMac = false;
  DiagEngine diag;
  auto p = assembleText(".sym a 1\nMPY a\nHALT\n", cfg, diag);
  EXPECT_FALSE(p.has_value());
}

TEST(Assembler, RejectsBadAddressRegister) {
  TargetConfig cfg;
  cfg.numAddrRegs = 2;
  DiagEngine diag;
  auto p = assembleText("LT *AR5+\nHALT\n", cfg, diag);
  EXPECT_FALSE(p.has_value());
}

TEST(Encode, RoundTrip) {
  TargetConfig cfg;
  auto prog = assembleOrDie(R"(
      .sym v 2
  top:  LAC v
        ADD v+1
        LARK AR1, #7
  spin: LT *AR1-
        BANZ AR1, spin
        B top
  )",
                            cfg);
  auto image = encode(prog);
  ASSERT_TRUE(image.has_value());
  auto back = decode(*image);
  ASSERT_EQ(back.size(), prog.code.size());
  EXPECT_EQ(back[0].op, Opcode::LAC);
  EXPECT_EQ(back[0].a, Operand::direct(0));
  EXPECT_EQ(back[3].a, Operand::indirect(1, PostMod::Dec));
  EXPECT_EQ(back[4].targetLabel, "@3");  // spin resolves to index 3
  EXPECT_EQ(back[5].targetLabel, "@0");
}

TEST(Encode, NegativeImmediates) {
  TargetProgram prog;
  Instr in;
  in.op = Opcode::LACK;
  in.a = Operand::imm(-5);
  prog.code.push_back(in);
  auto image = encode(prog);
  ASSERT_TRUE(image.has_value());
  auto back = decode(*image);
  EXPECT_EQ(back[0].a.value, -5);
}

TEST(Encode, FailsOnUnresolvedLabel) {
  TargetProgram prog;
  Instr in;
  in.op = Opcode::B;
  in.targetLabel = "ghost";
  prog.code.push_back(in);
  std::string err;
  auto image = encode(prog, &err);
  EXPECT_FALSE(image.has_value());
  EXPECT_NE(err.find("ghost"), std::string::npos);
}

TEST(Isd, TdspRuleSetFeatureGating) {
  TargetConfig cfg;
  auto rs = rulesFor(tdspDesc(), cfg);
  auto hasRule = [&](const std::string& name) {
    for (const auto& r : rs.rules)
      if (r.name == name) return true;
    return false;
  };
  EXPECT_TRUE(hasRule("mac"));
  EXPECT_TRUE(hasRule("sadd_mem"));
  EXPECT_FALSE(hasRule("macxy"));

  cfg.hasMac = false;
  cfg.hasSat = false;
  cfg.hasDualMul = true;
  auto rs2 = rulesFor(tdspDesc(), cfg);
  auto hasRule2 = [&](const std::string& name) {
    for (const auto& r : rs2.rules)
      if (r.name == name) return true;
    return false;
  };
  EXPECT_FALSE(hasRule2("mac"));
  EXPECT_FALSE(hasRule2("sadd_mem"));
  EXPECT_TRUE(hasRule2("macxy"));
  EXPECT_FALSE(hasRule2("smacxy"));
}

// Every field of two rules, emit operands included.
void expectSameRule(const Rule& a, const Rule& b) {
  SCOPED_TRACE(a.name);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.lhs, b.lhs);
  EXPECT_EQ(a.pat.str(), b.pat.str());
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mode.ovm, b.mode.ovm);
  EXPECT_EQ(a.mode.sxm, b.mode.sxm);
  ASSERT_EQ(a.emit.size(), b.emit.size());
  for (size_t j = 0; j < a.emit.size(); ++j) {
    EXPECT_EQ(a.emit[j].op, b.emit[j].op);
    for (auto [x, y] : {std::pair{&a.emit[j].a, &b.emit[j].a},
                        std::pair{&a.emit[j].b, &b.emit[j].b}}) {
      EXPECT_EQ(x->kind, y->kind) << "emit " << j;
      EXPECT_EQ(x->slot, y->slot) << "emit " << j;
      EXPECT_EQ(x->imm, y->imm) << "emit " << j;
    }
  }
}

/// Parse rule-only text into the rule set it describes.
std::optional<RuleSet> parseRules(const std::string& text, DiagEngine& diag) {
  auto desc = parseTargetDesc(text, diag);
  if (!desc) return std::nullopt;
  return rulesFor(*desc, TargetConfig{});
}

TEST(Isd, TextRoundTrip) {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  auto rs = rulesFor(tdspDesc(), cfg);
  std::string text = rs.str();
  DiagEngine diag;
  auto back = parseRules(text, diag);
  ASSERT_TRUE(back.has_value()) << diag.str();
  ASSERT_EQ(back->rules.size(), rs.rules.size());
  for (size_t i = 0; i < rs.rules.size(); ++i)
    expectSameRule(back->rules[i], rs.rules[i]);
  EXPECT_EQ(back->str(), text);
}

// An emit operand naming a (const v) leaf is a fixed immediate; it prints
// as that leaf's `$k`, so the text reads back to the same rule.
TEST(Isd, ConstLeafOperandRoundTrips) {
  const std::string text =
      "rule inc acc <- (add acc (const 1)) emit ADDK $1 cost 0,0\n";
  DiagEngine diag;
  auto rs = parseRules(text, diag);
  ASSERT_TRUE(rs.has_value()) << diag.str();
  ASSERT_EQ(rs->rules.size(), 1u);
  const EmitTemplate& e = rs->rules[0].emit.at(0);
  EXPECT_EQ(e.a.kind, OperTemplate::Kind::FixedImm);
  EXPECT_EQ(e.a.imm, 1);
  EXPECT_EQ(rs->str(), text);
  DiagEngine diag2;
  auto again = parseRules(rs->str(), diag2);
  ASSERT_TRUE(again.has_value()) << diag2.str();
  expectSameRule(again->rules.at(0), rs->rules[0]);
  EXPECT_EQ(again->str(), rs->str());
}

// A rule-only file needs no target clause, and a leading comment, even
// one that mentions a clause keyword, changes nothing.
TEST(Isd, CommentedRuleFileParsesSame) {
  const RuleSet rs = rulesFor(tdspDesc(), TargetConfig{});
  DiagEngine diag;
  auto desc = parseTargetDesc("# cheaper insn costs\n" + rs.str(), diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  EXPECT_TRUE(desc->name.empty());
  EXPECT_TRUE(desc->insns.empty());
  EXPECT_TRUE(validateDesc(*desc, diag)) << diag.str();
  ASSERT_EQ(desc->rules.size(), rs.rules.size());
  for (size_t i = 0; i < rs.rules.size(); ++i)
    expectSameRule(desc->rules[i].rule, rs.rules[i]);
  EXPECT_EQ(desc->str(), rs.str());
}

TEST(Isd, ChainRuleDetection) {
  TargetConfig cfg;
  auto rs = rulesFor(tdspDesc(), cfg);
  int chains = 0;
  for (const auto& r : rs.rules) {
    if (r.isChain()) ++chains;
    if (r.name == "spill") {
      EXPECT_TRUE(r.isChain());
      EXPECT_TRUE(r.needsTemp());
    }
  }
  EXPECT_GE(chains, 2);  // spill + imm8to16
}

TEST(Isd, NumSlots) {
  TargetConfig cfg;
  auto rs = rulesFor(tdspDesc(), cfg);
  for (const auto& r : rs.rules) {
    if (r.name == "mac") { EXPECT_EQ(RuleSet::numSlots(r), 2); }
    if (r.name == "load") { EXPECT_EQ(RuleSet::numSlots(r), 1); }
    if (r.name == "zero") { EXPECT_EQ(RuleSet::numSlots(r), 0); }
  }
}

TEST(Isd, ParseErrors) {
  DiagEngine diag;
  auto rs = parseTargetDesc(
      "rule broken acc <- (bogus acc) emit NOP cost 1,1\n", diag);
  EXPECT_FALSE(rs.has_value());
  EXPECT_TRUE(diag.hasErrors());
  // A mode bit is 0 or 1.
  const std::string sat =
      "rule sat acc <- (sadd acc mem) emit ADD $1 cost 1,1 mode ovm=";
  DiagEngine okDiag, badDiag;
  EXPECT_TRUE(parseTargetDesc(sat + "1\n", okDiag).has_value());
  EXPECT_FALSE(parseTargetDesc(sat + "2\n", badDiag).has_value());
  EXPECT_TRUE(badDiag.hasErrors());
}

}  // namespace
}  // namespace record

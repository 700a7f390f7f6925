// Instruction-set extraction tests, including the Fig. 3 reproduction and a
// property check: every extracted pattern, executed on the RTL simulator
// with its instruction bits, matches the pattern's own semantics.
#include <gtest/gtest.h>

#include <set>

#include "dfl/frontend.h"
#include "ir/interp.h"
#include "ise/bridge.h"
#include "ise/extract.h"
#include "netlist/parser.h"
#include "netlist/rtlsim.h"
#include "target/tdsp.h"

namespace record {
namespace {

using namespace record::ise;

// The Fig. 3 machine: register file + accumulator + ALU whose control input
// '0'...'3' selects the operation; the paper's example extracts
// "Reg[bb] := Reg[aa] + acc" with instruction bits /aa-0-0-bb/.
const char* kFig3 = R"(
netlist fig3
field aa 2 0
field bb 2 2
field c1 2 4
field regwe 1 6
field accwe 1 7
storage reg memory 4 16 raddr aa waddr bb
storage acc reg 16
unit alu alu 16 op c1 in0 reg.out in1 acc.out
connect reg.in alu.out
connect reg.we regwe
connect acc.in alu.out
connect acc.we accwe
)";

TEST(Ise, Fig3ExtractsRegPlusAcc) {
  auto nl = nl::parseNetlistOrDie(kFig3);
  auto patterns = extractInstructionSet(nl);
  ASSERT_FALSE(patterns.empty());
  bool found = false;
  for (const auto& p : patterns) {
    if (p.destStorage == "reg" && p.expr.str() == "add(reg[aa], acc)") {
      found = true;
      // Justified instruction bits: the ALU op field must be 'add' (1),
      // reg write enabled, acc write suppressed.
      std::map<std::string, int64_t> bits;
      for (const auto& b : p.bits) bits[b.field] = b.value;
      EXPECT_EQ(bits.at("c1"), 1);
      EXPECT_EQ(bits.at("regwe"), 1);
      EXPECT_EQ(bits.at("accwe"), 0);
    }
  }
  EXPECT_TRUE(found) << "missing the Fig. 3 pattern Reg[bb] := Reg[aa] + acc";
}

TEST(Ise, Fig3PatternCountAndVariety) {
  auto nl = nl::parseNetlistOrDie(kFig3);
  auto patterns = extractInstructionSet(nl);
  // Destinations reg and acc; ops pass/add/sub/and each -> 8 transfers.
  EXPECT_EQ(patterns.size(), 8u);
  int regDest = 0, accDest = 0;
  for (const auto& p : patterns) {
    if (p.destStorage == "reg") ++regDest;
    if (p.destStorage == "acc") ++accDest;
  }
  EXPECT_EQ(regDest, 4);
  EXPECT_EQ(accDest, 4);
}

// Evaluate an extracted expression against simulator state + instruction
// word -- the independent semantics oracle for the property test.
int64_t evalIseExpr(const IseExpr& e, const nl::RtlSim& sim,
                    const nl::Netlist& nl, uint64_t word) {
  switch (e.kind) {
    case IseExpr::Kind::StorageRead: {
      const nl::Storage* s = nl.findStorage(e.storage);
      if (s->kind == nl::Storage::Kind::Reg) return sim.reg(e.storage);
      int64_t addr =
          e.addrField.empty() ? 0 : sim.fieldValue(e.addrField, word);
      return sim.mem(e.storage, static_cast<int>(addr));
    }
    case IseExpr::Kind::Field: {
      const nl::Field* f = nl.findField(e.field);
      int64_t raw = sim.fieldValue(e.field, word);
      // sign-extend from field width
      if (f->width < 64 && (raw & (1LL << (f->width - 1))))
        raw -= 1LL << f->width;
      return raw;
    }
    case IseExpr::Kind::Const:
      return e.cval;
    case IseExpr::Kind::Op: {
      int64_t a = evalIseExpr(e.kids[0], sim, nl, word);
      int64_t b = evalIseExpr(e.kids[1], sim, nl, word);
      if (e.isMult) return a * b;
      switch (e.op) {
        case nl::AluOp::PassB: return b;
        case nl::AluOp::Add: return a + b;
        case nl::AluOp::Sub: return a - b;
        case nl::AluOp::And: return a & b;
      }
      return 0;
    }
  }
  return 0;
}

class IseValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(IseValidation, ExtractedPatternsMatchRtlSim) {
  std::string netlistText;
  if (std::string(GetParam()) == "fig3") {
    netlistText = kFig3;
  } else {
    TargetConfig cfg;
    if (std::string(GetParam()) == "tdsp_nomac") cfg.hasMac = false;
    netlistText = tdspDatapathNetlist(cfg);
  }
  auto nl = nl::parseNetlistOrDie(netlistText);
  auto patterns = extractInstructionSet(nl);
  ASSERT_FALSE(patterns.empty());

  uint32_t rng = 12345;
  auto next = [&rng]() {
    rng = rng * 1664525u + 1013904223u;
    return static_cast<int64_t>(rng >> 20) - 2048;
  };
  for (const auto& p : patterns) {
    nl::RtlSim sim(nl);
    // Randomize storages.
    for (const auto& s : nl.storages) {
      if (s.kind == nl::Storage::Kind::Reg) {
        sim.setReg(s.name, next());
      } else {
        for (int i = 0; i < std::min(s.size, 64); ++i)
          sim.setMem(s.name, i, next());
      }
    }
    uint64_t word = p.encode(nl);
    int64_t expect = evalIseExpr(p.expr, sim, nl, word);
    // Wrap to the destination width.
    const nl::Storage* dest = nl.findStorage(p.destStorage);
    ASSERT_NE(dest, nullptr);
    if (dest->width < 64) {
      uint64_t mask = (1ull << dest->width) - 1;
      uint64_t uv = static_cast<uint64_t>(expect) & mask;
      if (uv & (1ull << (dest->width - 1))) uv |= ~mask;
      expect = static_cast<int64_t>(uv);
    }
    sim.step(word);
    int64_t got;
    if (dest->kind == nl::Storage::Kind::Reg) {
      got = sim.reg(p.destStorage);
    } else {
      int64_t waddr = p.destAddrField.empty()
                          ? 0
                          : sim.fieldValue(p.destAddrField, word);
      got = sim.mem(p.destStorage, static_cast<int>(waddr));
    }
    EXPECT_EQ(got, expect) << "pattern: " << p.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Netlists, IseValidation,
                         ::testing::Values("fig3", "tdsp", "tdsp_nomac"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Ise, TdspDatapathYieldsAccumulatorPatterns) {
  TargetConfig cfg;
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(cfg));
  auto patterns = extractInstructionSet(nl);
  std::set<std::string> exprs;
  for (const auto& p : patterns) {
    std::string dest = p.destStorage;
    if (!p.destAddrField.empty()) dest += "[" + p.destAddrField + "]";
    exprs.insert(dest + " := " + p.expr.str());
  }
  // The hand-written ISD's core arithmetic rules re-derived from structure:
  EXPECT_TRUE(exprs.count("acc := add(acc, mem[maddr])"));   // ADD
  EXPECT_TRUE(exprs.count("acc := sub(acc, mem[maddr])"));   // SUB
  EXPECT_TRUE(exprs.count("acc := add(acc, #imm)"));         // ADDK
  EXPECT_TRUE(exprs.count("mem[maddr] := acc"));             // SACL
  EXPECT_TRUE(exprs.count("t := mem[maddr]"));               // LT
  EXPECT_TRUE(exprs.count("p := mul(t, mem[maddr])"));       // MPY
  EXPECT_TRUE(exprs.count("acc := add(acc, p)"));            // APAC
}

// ---------------------------------------------------------------------------
// The generated-compiler bridge (netlist -> ISE -> compiler -> RTL sim).
// ---------------------------------------------------------------------------

TEST(Bridge, ClassifiesCapabilities) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  GeneratedCompiler gc(nl, extractInstructionSet(nl));
  EXPECT_TRUE(gc.usable());
  std::string desc = gc.describe();
  EXPECT_NE(desc.find("acc := mem[#]"), std::string::npos);
  EXPECT_NE(desc.find("mem[#] := acc"), std::string::npos);
}

TEST(Bridge, GeneratedCompilerRunsCorrectCode) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  GeneratedCompiler gc(nl, extractInstructionSet(nl));
  ASSERT_TRUE(gc.usable());

  auto prog = dfl::parseDflOrDie(R"(
    program gen_demo;
    input a : fix;
    input b : fix;
    input c : fix;
    output y : fix;
    output z : fix;
    begin
      y := a + b - 3;
      z := (a - b) + (c + 5);
    end
  )");
  std::string err;
  auto gp = gc.compile(prog, &err);
  ASSERT_TRUE(gp.has_value()) << err;

  auto outs = runGenerated(nl, *gp, {{"a", 10}, {"b", 4}, {"c", 7}},
                           {"y", "z"});
  Interp gold(prog);
  gold.setScalar("a", 10);
  gold.setScalar("b", 4);
  gold.setScalar("c", 7);
  gold.run();
  EXPECT_EQ(outs.at("y"), gold.scalar("y"));
  EXPECT_EQ(outs.at("z"), gold.scalar("z"));
}

TEST(Bridge, ReportsUnsupportedOperator) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  GeneratedCompiler gc(nl, extractInstructionSet(nl));
  auto prog = dfl::parseDflOrDie(R"(
    program mulprog;
    input a : fix;
    output y : fix;
    begin
      y := a * a;
    end
  )");
  std::string err;
  auto gp = gc.compile(prog, &err);
  EXPECT_FALSE(gp.has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Bridge, UnrollsLoops) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  GeneratedCompiler gc(nl, extractInstructionSet(nl));
  auto prog = dfl::parseDflOrDie(R"(
    program sum5;
    input a : fix;
    output y : fix;
    var s : fix;
    begin
      s := 0;
      for i := 1 to 5 do
        s := s + a;
      endfor
      y := s;
    end
  )");
  std::string err;
  auto gp = gc.compile(prog, &err);
  ASSERT_TRUE(gp.has_value()) << err;
  auto outs = runGenerated(nl, *gp, {{"a", 11}}, {"y"});
  EXPECT_EQ(outs.at("y"), 55);
}

TEST(Bridge, ExtractedOperandKindsAndLatencies) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  GeneratedCompiler gc(nl, extractInstructionSet(nl));
  ASSERT_TRUE(gc.usable());

  // Operand kinds: every memory-operand rule carries the memory's
  // read/write-address field, every immediate rule the ALU immediate field.
  std::set<GenRuleKind> kinds;
  for (const GenRule& r : gc.rules()) {
    kinds.insert(r.kind);
    switch (r.kind) {
      case GenRuleKind::LoadMem:
      case GenRuleKind::AddMem:
      case GenRuleKind::SubMem:
      case GenRuleKind::AndMem:
      case GenRuleKind::StoreAcc:
        EXPECT_EQ(r.operandField, "maddr") << genRuleKindName(r.kind);
        break;
      case GenRuleKind::LoadImm:
      case GenRuleKind::AddImm:
      case GenRuleKind::SubImm:
      case GenRuleKind::AndImm:
        EXPECT_EQ(r.operandField, "imm") << genRuleKindName(r.kind);
        break;
    }
  }
  // The datapath supplies at least the minimum viable set plus immediates.
  EXPECT_TRUE(kinds.count(GenRuleKind::LoadMem));
  EXPECT_TRUE(kinds.count(GenRuleKind::StoreAcc));
  EXPECT_TRUE(kinds.count(GenRuleKind::AddMem));
  EXPECT_TRUE(kinds.count(GenRuleKind::SubMem));
  EXPECT_TRUE(kinds.count(GenRuleKind::AddImm));

  // Latencies through the full-compiler bridge: every extracted pattern is
  // one netlist microinstruction, so every generated BURS rule must cost
  // exactly one word and one cycle and emit a single instruction whose
  // operand comes from the pattern's only slot (the spill temp aside).
  RuleSet rs = ise::rulesFromExtraction(gc.rules(), TargetConfig{});
  ASSERT_FALSE(rs.rules.empty());
  for (const Rule& r : rs.rules) {
    SCOPED_TRACE(r.name);
    EXPECT_EQ(r.size, 1);
    EXPECT_EQ(r.cycles, 1);
    ASSERT_EQ(r.emit.size(), 1u);
    const OperTemplate& a = r.emit[0].a;
    if (a.kind == OperTemplate::Kind::Slot) {
      EXPECT_EQ(a.slot, 0);
      EXPECT_EQ(RuleSet::numSlots(r), 1);
    } else {
      EXPECT_EQ(a.kind, OperTemplate::Kind::Temp);  // the spill rule
    }
  }
}

}  // namespace
}  // namespace record

// DataLayout and CodegenBinder unit tests: address assignment, bank
// splitting, constant-pool deduplication, temp recycling, and leaf binding.
#include <gtest/gtest.h>

#include "codegen/binder.h"
#include "codegen/layout.h"
#include "dfl/frontend.h"
#include "regalloc/arfile.h"

namespace record {
namespace {

Program parse(const char* src) { return dfl::parseDflOrDie(src); }

const char* kProg = R"(
  program p;
  input a : fix;
  input v[8] : fix;
  input d delay 3 : fix;
  output y : fix;
  begin
    y := a + v[0] + d@2;
  end
)";

TEST(Layout, SequentialAddresses) {
  auto prog = parse(kProg);
  TargetConfig cfg;
  DataLayout layout(prog, cfg);
  const Symbol* a = prog.symbols.lookup("a");
  const Symbol* v = prog.symbols.lookup("v");
  const Symbol* d = prog.symbols.lookup("d");
  const Symbol* y = prog.symbols.lookup("y");
  EXPECT_EQ(layout.addrOf(a), 0);
  EXPECT_EQ(layout.addrOf(v), 1);
  EXPECT_EQ(layout.addrOf(d), 9);   // v occupies 8 words
  EXPECT_EQ(layout.addrOf(y), 13);  // d occupies 1 + 3 delay words
}

TEST(Layout, ArrayRegionsCoverArraysAndDelayLines) {
  auto prog = parse(kProg);
  TargetConfig cfg;
  DataLayout layout(prog, cfg);
  EXPECT_FALSE(layout.inArrayRegion(0));   // scalar a
  EXPECT_TRUE(layout.inArrayRegion(1));    // v[0]
  EXPECT_TRUE(layout.inArrayRegion(8));    // v[7]
  EXPECT_TRUE(layout.inArrayRegion(9));    // delay line of d
  EXPECT_TRUE(layout.inArrayRegion(12));
  EXPECT_FALSE(layout.inArrayRegion(13));  // scalar y
}

TEST(Layout, ConstPoolDeduplicates) {
  auto prog = parse(kProg);
  TargetConfig cfg;
  DataLayout layout(prog, cfg);
  int c1 = layout.constAddr(1234);
  int c2 = layout.constAddr(1234);
  int c3 = layout.constAddr(-7);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  auto inits = layout.dataInit();
  ASSERT_EQ(inits.size(), 2u);
}

TEST(Layout, TempRecycling) {
  auto prog = parse(kProg);
  TargetConfig cfg;
  DataLayout layout(prog, cfg);
  int t1 = layout.allocTemp();
  int t2 = layout.allocTemp();
  EXPECT_NE(t1, t2);
  layout.freeTemp(t1);
  EXPECT_EQ(layout.allocTemp(), t1);
}

TEST(Layout, BankSplitPlacesSymbolsInUpperHalf) {
  auto prog = parse(R"(
    program b;
    input p : fix;
    input q : fix;
    output y : fix;
    begin
      y := p * q;
    end
  )");
  TargetConfig cfg;
  cfg.hasDualMul = true;
  cfg.memBanks = 2;
  cfg.dataWords = 512;
  auto banks = assignBanks(collectMulPairs(prog));
  DataLayout layout(prog, cfg, &banks);
  const Symbol* p = prog.symbols.lookup("p");
  const Symbol* q = prog.symbols.lookup("q");
  // The multiply pair must straddle the banks.
  EXPECT_NE(cfg.bankOf(layout.addrOf(p)), cfg.bankOf(layout.addrOf(q)));
}

TEST(Layout, OverflowThrows) {
  auto prog = parse(kProg);
  TargetConfig cfg;
  cfg.dataWords = 8;  // too small for the 14 words of kProg
  EXPECT_THROW(DataLayout(prog, cfg), std::runtime_error);
}

class BinderTest : public ::testing::Test {
 protected:
  BinderTest()
      : prog(parse(kProg)),
        layout(prog, cfg),
        ars(cfg.numAddrRegs),
        binder(layout, cfg, ars) {}

  Program prog;
  TargetConfig cfg;
  DataLayout layout;
  ArFile ars;
  CodegenBinder binder;
  std::vector<Instr> out;
};

TEST_F(BinderTest, ScalarBindsDirect) {
  auto e = Expr::ref(prog.symbols.lookup("a"));
  EXPECT_EQ(binder.leafCost(*e, Nonterm::Mem), 0);
  EXPECT_EQ(binder.bind(*e, Nonterm::Mem, out, false), Operand::direct(0));
  EXPECT_TRUE(out.empty());
}

TEST_F(BinderTest, DelayedRefBindsAtOffset) {
  auto e = Expr::ref(prog.symbols.lookup("d"), 2);
  EXPECT_EQ(binder.bind(*e, Nonterm::Mem, out, false),
            Operand::direct(9 + 2));
}

TEST_F(BinderTest, ConstArrayIndexBindsDirect) {
  auto e = Expr::arrayRef(prog.symbols.lookup("v"), Expr::constant(5));
  EXPECT_EQ(binder.bind(*e, Nonterm::Mem, out, false),
            Operand::direct(1 + 5));
}

TEST_F(BinderTest, ImmediateClasses) {
  auto small = Expr::constant(100);
  auto big = Expr::constant(1000);
  EXPECT_TRUE(binder.leafCost(*small, Nonterm::Imm8).has_value());
  EXPECT_FALSE(binder.leafCost(*big, Nonterm::Imm8).has_value());
  EXPECT_TRUE(binder.leafCost(*big, Nonterm::Imm16).has_value());
  // Constants as memory operands cost a pool word.
  EXPECT_EQ(binder.leafCost(*big, Nonterm::Mem), 1);
}

TEST_F(BinderTest, StreamBindsIndirect) {
  Symbol stream{"v$s0", SymKind::Var, Type::Fix, 0, 0, 0};
  binder.setStream(&stream, {3, PostMod::Inc});
  auto e = Expr::ref(&stream);
  EXPECT_EQ(binder.bind(*e, Nonterm::Mem, out, false),
            Operand::indirect(3, PostMod::Inc));
  binder.clearStream(&stream);
}

TEST_F(BinderTest, DynamicReadRoutesThroughTemp) {
  Symbol idx{"i", SymKind::Var, Type::Int, 0, 0, 0};
  binder.addSyntheticAddr(&idx, layout.allocScratch("i"));
  auto e = Expr::arrayRef(prog.symbols.lookup("v"), Expr::ref(&idx));
  binder.beginStatement();
  Operand o = binder.bind(*e, Nonterm::Mem, out, false);
  EXPECT_EQ(o.mode, AddrMode::Direct);  // value parked in a temp
  // LAR + ADRK(base=1) + LAC *AR7 + SACL temp
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out[0].op, Opcode::LAR);
  EXPECT_EQ(out.back().op, Opcode::SACL);
  binder.endStatement();
}

TEST_F(BinderTest, DynamicStoreDestStaysIndirect) {
  Symbol idx{"i", SymKind::Var, Type::Int, 0, 0, 0};
  binder.addSyntheticAddr(&idx, layout.allocScratch("i"));
  auto e = Expr::arrayRef(prog.symbols.lookup("v"), Expr::ref(&idx));
  Operand o = binder.bind(*e, Nonterm::Mem, out, /*isStoreDest=*/true);
  EXPECT_EQ(o, Operand::indirect(ars.scratch()));
}

TEST_F(BinderTest, DynamicAccessWithLeasedScratchThrows) {
  Symbol idx{"i", SymKind::Var, Type::Int, 0, 0, 0};
  binder.addSyntheticAddr(&idx, layout.allocScratch("i"));
  // Lease every register including the scratch.
  while (ars.alloc(true).has_value()) {
  }
  auto e = Expr::arrayRef(prog.symbols.lookup("v"), Expr::ref(&idx));
  EXPECT_THROW(binder.bind(*e, Nonterm::Mem, out, false),
               std::runtime_error);
}

}  // namespace
}  // namespace record

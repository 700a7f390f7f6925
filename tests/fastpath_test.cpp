// The compile-throughput fast path must be invisible in the output: hash
// consing, the BURS label memo, branch-and-bound pruning, and the parallel
// variant search may only change how fast the search runs, never which
// cover it picks. These tests pin that down (byte-identical programs across
// all DSPStone kernels) and exercise the interner, the rewrite cache and
// the label memo directly against their uncached references.
#include <gtest/gtest.h>

#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/corpus.h"
#include "difftest/difftest.h"
#include "dspstone/kernels.h"
#include "ir/interner.h"
#include "isel/burs.h"
#include "rewrite/enumerate.h"
#include "target/encode.h"
#include "target/tdsp.h"

namespace record {
namespace {

Symbol* sym(const char* name) {
  static std::vector<std::unique_ptr<Symbol>> pool;
  pool.push_back(std::make_unique<Symbol>());
  pool.back()->name = name;
  pool.back()->kind = SymKind::Var;
  return pool.back().get();
}

TEST(Interner, StructurallyEqualTreesUnify) {
  const Symbol* a = sym("a");
  const Symbol* b = sym("b");
  auto make = [&] {
    return Expr::binary(Op::Mul,
                        Expr::binary(Op::Add, Expr::ref(a), Expr::ref(b)),
                        Expr::constant(3));
  };
  ExprInterner in;
  ExprPtr t1 = in.intern(make());
  ExprPtr t2 = in.intern(make());
  EXPECT_EQ(t1.get(), t2.get());          // O(1) structural equality
  EXPECT_EQ(in.idOf(t1.get()), in.idOf(t2.get()));
  EXPECT_GT(in.hits(), 0);                // second tree fully deduplicated
  EXPECT_EQ(in.size(), 5u);               // a, b, 3, add, mul
}

TEST(Interner, DistinctTreesStayDistinct) {
  const Symbol* a = sym("a2");
  const Symbol* b = sym("b2");
  ExprInterner in;
  ExprPtr ab = in.intern(Expr::binary(Op::Add, Expr::ref(a), Expr::ref(b)));
  ExprPtr ba = in.intern(Expr::binary(Op::Add, Expr::ref(b), Expr::ref(a)));
  EXPECT_NE(ab.get(), ba.get());
  EXPECT_NE(in.idOf(ab.get()), in.idOf(ba.get()));
  // ... but they share both leaves.
  EXPECT_EQ(ab->kids[0].get(), ba->kids[1].get());
  EXPECT_EQ(ab->kids[1].get(), ba->kids[0].get());
}

TEST(Interner, IdsAreStableInternOrder) {
  const Symbol* a = sym("a3");
  ExprInterner in;
  ExprPtr ra = in.intern(Expr::ref(a));
  ExprPtr c = in.intern(Expr::constant(7));
  EXPECT_EQ(in.idOf(ra.get()), 0u);
  EXPECT_EQ(in.idOf(c.get()), 1u);
  EXPECT_TRUE(in.isInterned(ra.get()));
  EXPECT_FALSE(in.isInterned(Expr::constant(7).get()));

  // Post-order interning: kids get their IDs before their parent, and a
  // shape seen before (a) keeps its ID.
  ExprPtr t = in.intern(Expr::binary(
      Op::Sub, Expr::unary(Op::Neg, Expr::ref(a)), Expr::constant(5)));
  ASSERT_EQ(in.size(), 5u);
  EXPECT_EQ(t->kids[0]->kids[0].get(), ra.get());
  EXPECT_EQ(in.idOf(t->kids[0].get()), 2u);  // neg a
  EXPECT_EQ(in.idOf(t->kids[1].get()), 3u);  // 5
  EXPECT_EQ(in.idOf(t.get()), 4u);           // sub

  // Enough new shapes to grow the table several times: IDs stay dense and
  // node(id) maps each one back.
  for (int v = 0; v < 1000; ++v) in.intern(Expr::constant(v + 100));
  ASSERT_EQ(in.size(), 1005u);
  for (uint32_t id = 0; id < in.size(); ++id) {
    ASSERT_TRUE(in.isInterned(in.node(id).get()));
    ASSERT_EQ(in.idOf(in.node(id).get()), id);
  }
  // Every shape is still found after the rehashes.
  for (int v = 0; v < 1000; ++v)
    EXPECT_EQ(in.idOf(in.intern(Expr::constant(v + 100)).get()),
              static_cast<uint32_t>(v + 5));
  EXPECT_EQ(in.intern(Expr::binary(Op::Sub,
                                   Expr::unary(Op::Neg, Expr::ref(a)),
                                   Expr::constant(5)))
                .get(),
            t.get());
  EXPECT_EQ(in.size(), 1005u);
}

TEST(Interner, NeverAdoptsCallerNodes) {
  // Canonical nodes are the interner's own: a caller's tree is not tagged,
  // so trees shared between interners or threads are never written to.
  const Symbol* a = sym("a5");
  ExprPtr leaf = Expr::ref(a);
  ExprPtr tree = Expr::binary(Op::Add, leaf, Expr::constant(1));
  ExprInterner in;
  ExprPtr t = in.intern(tree);
  EXPECT_NE(t.get(), tree.get());
  EXPECT_NE(t->kids[0].get(), leaf.get());
  EXPECT_FALSE(in.isInterned(tree.get()));
  EXPECT_FALSE(in.isInterned(leaf.get()));
  EXPECT_EQ(leaf->internOwner, nullptr);
  EXPECT_TRUE(exprEquals(t, tree));
}

TEST(Interner, MakeHitReturnsTheInternedNode) {
  const Symbol* a = sym("a6");
  const Symbol* b = sym("b6");
  auto fresh = [&] {
    return Expr::binary(Op::Mul, Expr::ref(a),
                        Expr::binary(Op::Add, Expr::ref(b),
                                     Expr::constant(2)));
  };
  ExprInterner in;
  ExprPtr t = in.intern(fresh());
  const size_t before = in.size();
  const int64_t hits = in.hits();

  // Rebuild the same tree bottom-up from canonical kids: every level is a
  // probe hit on the node intern() made, and nothing is added.
  const Expr* ra = in.make(Op::Ref, a->type, 0, a);
  const Expr* rb = in.make(Op::Ref, b->type, 0, b);
  const Expr* two = in.make(Op::Const, Type::Fix, 2, nullptr);
  const Expr* sum = in.make(Op::Add, rb->type, 0, nullptr, {rb, two});
  const Expr* prod = in.make(Op::Mul, ra->type, 0, nullptr, {ra, sum});
  EXPECT_EQ(prod, t.get());
  EXPECT_EQ(sum, t->kids[1].get());
  EXPECT_EQ(in.intern(fresh()).get(), prod);
  EXPECT_EQ(in.size(), before);
  // Five make() hits, then five node visits re-interning the fresh tree.
  EXPECT_EQ(in.hits(), hits + 10);

  // A new shape is a miss: one node, with the next dense ID.
  const Expr* diff = in.make(Op::Sub, ra->type, 0, nullptr, {ra, sum});
  EXPECT_EQ(in.size(), before + 1);
  EXPECT_EQ(in.idOf(diff), before);
  EXPECT_EQ(in.node(in.idOf(diff)).get(), diff);
  EXPECT_EQ(in.make(Op::Sub, ra->type, 0, nullptr, {ra, sum}), diff);
  EXPECT_EQ(in.size(), before + 1);
}

TEST(Interner, EnumerationDedupIsExact) {
  const Symbol* a = sym("a4");
  const Symbol* b = sym("b4");
  auto tree = Expr::binary(Op::Add, Expr::ref(a),
                           Expr::binary(Op::Add, Expr::ref(b),
                                        Expr::constant(0)));
  ExprInterner in;
  auto with = enumerateVariants(tree, 64, &in);
  auto without = enumerateVariants(tree, 64);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i)
    EXPECT_EQ(with[i]->str(), without[i]->str()) << i;
  // Every interned variant is canonical: re-interning is the identity.
  for (const auto& v : with) EXPECT_EQ(in.intern(v).get(), v.get());
}

void collectRhs(const std::vector<Stmt>& body, std::vector<ExprPtr>& out) {
  for (const Stmt& s : body) {
    if (s.kind == Stmt::Kind::Assign)
      out.push_back(s.rhs);
    else
      collectRhs(s.body, out);
  }
}

/// Every assignment RHS of the committed corpus and of the difftest
/// generator's first 50 programs. The programs are returned too: their
/// symbols must outlive the trees.
std::vector<ExprPtr> corpusAndGeneratedRhs(std::vector<Program>& progs) {
  std::vector<std::string> sources;
  for (const auto& path : difftest::listCorpusFiles(RECORD_CORPUS_DIR)) {
    difftest::CorpusEntry entry;
    std::string err;
    EXPECT_TRUE(difftest::loadCorpusFile(path, &entry, &err)) << err;
    sources.push_back(entry.source);
  }
  for (uint64_t seed = 1; seed <= 50; ++seed)
    sources.push_back(difftest::generateProgram(seed).render());
  for (const auto& src : sources) {
    DiagEngine diag;
    auto prog = dfl::parseDfl(src, diag);
    EXPECT_TRUE(prog.has_value()) << diag.str();
    if (prog) progs.push_back(std::move(*prog));
  }
  std::vector<ExprPtr> rhs;
  for (const Program& p : progs) collectRhs(p.body, rhs);
  return rhs;
}

/// The rewrite cache returns exactly what uncached enumeration returns, in
/// the same order: against the interner-only path (same interner, so the
/// very same canonical nodes) and against the plain path (structurally).
/// One cache serves every budget in turn, so each switch -- including back
/// to a budget cached before -- must invalidate the whole-variant entries.
TEST(RewriteCache, MatchesUncachedEnumerationAcrossBudgets) {
  std::vector<Program> progs;
  const std::vector<ExprPtr> rhs = corpusAndGeneratedRhs(progs);
  ASSERT_GT(rhs.size(), 100u);
  ExprInterner in;
  RewriteCache cache(in);
  size_t multi = 0;
  for (int budget : {1, 8, 48, 8}) {
    for (int pass = 0; pass < 2; ++pass) {  // the second pass hits
      for (size_t r = 0; r < rhs.size(); ++r) {
        auto cached = enumerateVariants(rhs[r], budget, nullptr, &cache);
        auto interned = enumerateVariants(rhs[r], budget, &in);
        auto plain = enumerateVariants(rhs[r], budget);
        ASSERT_EQ(cached.size(), interned.size()) << rhs[r]->str();
        ASSERT_EQ(cached.size(), plain.size()) << rhs[r]->str();
        for (size_t i = 0; i < cached.size(); ++i) {
          EXPECT_EQ(cached[i].get(), interned[i].get())
              << "budget " << budget << " variant " << i << " of "
              << rhs[r]->str();
          EXPECT_TRUE(exprEquals(cached[i], plain[i]) &&
                      cached[i]->type == plain[i]->type)
              << "budget " << budget << " variant " << i << ": "
              << cached[i]->str() << " vs " << plain[i]->str();
        }
        if (cached.size() > 1) ++multi;
      }
    }
  }
  EXPECT_GT(multi, rhs.size());  // the budgets above 1 really enumerate
  EXPECT_GT(cache.variantHits, 0);
}

/// A binder whose leafCost() answers depend on a generation counter that
/// it also reports as stateSignature(): every bump changes what the memo
/// would have to forget.
class ShiftingBinder : public OperandBinder {
 public:
  uint64_t gen = 0;
  int nextTemp = 100;

  std::optional<int> leafCost(const Expr& e, Nonterm nt) override {
    switch (nt) {
      case Nonterm::Imm8:
        if (e.op == Op::Const && gen % 3 != 1 && e.value >= -128 &&
            e.value <= 127)
          return 0;
        return std::nullopt;
      case Nonterm::Imm16:
        if (e.op == Op::Const) return static_cast<int>(gen % 2);
        return std::nullopt;
      case Nonterm::Mem:
        if (e.op == Op::Const) return 1 + static_cast<int>(gen % 2);
        if (e.op == Op::Ref)  // each symbol gets dearer in its own turn
          return (gen + e.sym->name.size()) % 3 == 0 ? 4 : 0;
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  Operand bind(const Expr& e, Nonterm nt, std::vector<Instr>&,
               bool) override {
    if (nt == Nonterm::Imm8 || nt == Nonterm::Imm16)
      return Operand::imm(static_cast<int>(e.value));
    if (e.op == Op::Const) return Operand::direct(200 + (e.value & 15));
    return Operand::direct(static_cast<int>(e.sym->name.size()));
  }

  int allocTemp() override { return nextTemp++; }
  uint64_t stateSignature() const override { return gen; }
};

std::string codeOf(const CoverResult& r) {
  std::string out;
  for (const Instr& in : r.code) out += in.str() + "\n";
  return out;
}

/// The dense label memo against the flags-off reference: equal costs and
/// equal reduce output over calls that cross several signature changes,
/// each of which must start a new memo epoch.
TEST(LabelMemo, SignatureChangesInvalidateTheMemo) {
  const Symbol* a = sym("a");
  const Symbol* bb = sym("bb");
  const Symbol* ccc = sym("ccc");
  const Symbol* y = sym("yyyy");
  auto ra = [&] { return Expr::ref(a); };
  auto rb = [&] { return Expr::ref(bb); };
  auto rc = [&] { return Expr::ref(ccc); };
  auto store = [&](ExprPtr rhs) {
    return Expr::binary(Op::Store, Expr::ref(y), std::move(rhs));
  };
  const std::vector<ExprPtr> fresh = {
      store(Expr::binary(Op::Add, ra(), Expr::binary(Op::Mul, rb(), rc()))),
      store(Expr::binary(Op::Add, Expr::binary(Op::Mul, ra(), rb()),
                         Expr::constant(3))),
      store(Expr::binary(Op::Sub, ra(), Expr::constant(300))),
      store(Expr::binary(Op::Add, Expr::binary(Op::Add, ra(), rb()),
                         Expr::binary(Op::Add, rc(), Expr::constant(7)))),
      store(Expr::binary(Op::Shl, rb(), Expr::constant(2))),
  };
  ExprInterner in;
  std::vector<ExprPtr> trees;
  for (const auto& t : fresh) trees.push_back(in.intern(t));

  const RuleSet rules = rulesFor(tdspDesc(), TargetConfig{});
  BursMatcher memo(rules, CostKind::Size);
  BursMatcher plain(rules, CostKind::Size);
  BursMatcher::LabelMemo storage;
  memo.enableMemo(&storage);
  ShiftingBinder memoBinder, plainBinder;

  std::vector<std::optional<int>> firstGen;
  bool costsMoved = false;
  for (uint64_t gen = 0; gen < 6; ++gen) {
    memoBinder.gen = plainBinder.gen = gen;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < trees.size(); ++i) {
        const ExprPtr& t = trees[i];
        auto want = plain.matchCost(t, Nonterm::Stmt, plainBinder);
        EXPECT_EQ(memo.matchCost(t, Nonterm::Stmt, memoBinder), want)
            << "gen " << gen << ": " << t->str();
        if (gen == 0 && pass == 0) firstGen.push_back(want);
        costsMoved |= want != firstGen[i];

        auto bounded = memo.matchCostBounded(t, Nonterm::Stmt, memoBinder,
                                             want ? *want - 1 : 1);
        auto boundedRef = plain.matchCostBounded(t, Nonterm::Stmt,
                                                 plainBinder,
                                                 want ? *want - 1 : 1);
        EXPECT_EQ(bounded.cost, boundedRef.cost) << "gen " << gen;
        EXPECT_EQ(bounded.pruned, boundedRef.pruned) << "gen " << gen;

        CoverResult got = memo.reduce(t, Nonterm::Stmt, memoBinder);
        CoverResult ref = plain.reduce(t, Nonterm::Stmt, plainBinder);
        ASSERT_EQ(got.ok, ref.ok) << "gen " << gen << ": " << t->str();
        EXPECT_EQ(got.cost, ref.cost) << "gen " << gen;
        EXPECT_EQ(got.patternsUsed, ref.patternsUsed) << "gen " << gen;
        EXPECT_EQ(codeOf(got), codeOf(ref))
            << "gen " << gen << ": " << t->str();
      }
    }
  }
  EXPECT_TRUE(costsMoved) << "the binder must actually change the labels";
  EXPECT_GT(memo.memoHits(), 0);
  EXPECT_EQ(plain.memoHits(), 0);
}

CodegenOptions slowOptions() {
  CodegenOptions o;
  o.internExprs = false;
  o.memoLabels = false;
  o.pruneSearch = false;
  o.cacheRules = false;
  o.searchThreads = 1;
  return o;
}

CodegenOptions fastOptions() {
  CodegenOptions o;  // fast path is the default
  o.internExprs = true;
  o.memoLabels = true;
  o.pruneSearch = true;
  o.cacheRules = true;
  o.searchThreads = 0;
  return o;
}

TEST(FastPath, MemoCountersTrackReuse) {
  const Kernel& k = kernelByName("fir");
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;

  auto fast = RecordCompiler(cfg, fastOptions()).compile(prog);
  EXPECT_GT(fast.stats.memoHits, 0) << "variants share subtrees; the memo "
                                       "must serve repeat labelings";
  EXPECT_GT(fast.stats.memoMisses, 0);
  EXPECT_GT(fast.stats.internedNodes, 0);
  EXPECT_GT(fast.stats.internHits, 0);

  auto slow = RecordCompiler(cfg, slowOptions()).compile(prog);
  EXPECT_EQ(slow.stats.memoHits, 0);
  EXPECT_EQ(slow.stats.memoMisses, 0);
  EXPECT_EQ(slow.stats.internedNodes, 0);
}

TEST(FastPath, PruningOnlySkipsStrictlyWorseVariants) {
  // Pruned + costed variants must together account for every enumerated
  // variant; pruning fires on real workloads (counted, never asserted to a
  // fixed number -- it depends on search timing only in magnitude).
  int64_t prunedTotal = 0;
  TargetConfig cfg;
  for (const Kernel& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto res = RecordCompiler(cfg, fastOptions()).compile(prog);
    EXPECT_LE(res.stats.variantsPruned, res.stats.variantsTried);
    prunedTotal += res.stats.variantsPruned;
  }
  EXPECT_GE(prunedTotal, 0);
}

/// The headline guarantee: the full fast path emits byte-identical programs
/// to the sequential, un-memoized, unpruned search, for every DSPStone
/// kernel, under both cost models.
TEST(FastPath, DeterministicAcrossAllKernels) {
  for (CostKind cost : {CostKind::Size, CostKind::Cycles}) {
    for (const Kernel& k : dspstoneKernels()) {
      auto prog = dfl::parseDflOrDie(k.dfl);
      TargetConfig cfg;
      auto fastOpt = fastOptions();
      auto slowOpt = slowOptions();
      fastOpt.cost = cost;
      slowOpt.cost = cost;
      auto fast = RecordCompiler(cfg, fastOpt).compile(prog);
      auto slow = RecordCompiler(cfg, slowOpt).compile(prog);

      EXPECT_EQ(fast.prog.listing(), slow.prog.listing())
          << k.name << " diverged under cost="
          << (cost == CostKind::Size ? "size" : "cycles");
      EXPECT_EQ(fast.prog.symbolAddr, slow.prog.symbolAddr) << k.name;
      EXPECT_EQ(fast.prog.dataInit, slow.prog.dataInit) << k.name;

      // Byte-identical down to the binary encoding.
      auto fi = encode(fast.prog);
      auto si = encode(slow.prog);
      ASSERT_TRUE(fi.has_value() && si.has_value()) << k.name;
      EXPECT_EQ(fi->words, si->words) << k.name;

      // Selection behaviour matched too, not just the final bytes.
      EXPECT_EQ(fast.stats.statements, slow.stats.statements) << k.name;
      EXPECT_EQ(fast.stats.patternsUsed, slow.stats.patternsUsed) << k.name;
      EXPECT_EQ(fast.stats.variantsTried, slow.stats.variantsTried) << k.name;
    }
  }
}

/// fast == slow over generated programs on every sweep config, with each
/// fast-path flag turned off in turn and with all of them off. The seed
/// range includes 6836, whose flags-off compile on "two-banks" once took 5
/// words to the fast path's 10: the flags-off enumeration deduplicated by
/// Expr::hash(), which ignored `type`, so it dropped variants the
/// interner (which keys on type) kept.
TEST(FastPath, DeterministicOnGeneratedPrograms) {
  auto compile = [](const Program& prog, const TargetConfig& cfg,
                    const CodegenOptions& opt) -> std::optional<std::string> {
    try {
      return RecordCompiler(cfg, opt).compile(prog).prog.listing();
    } catch (const std::runtime_error&) {
      return std::nullopt;  // capability rejection
    }
  };
  std::vector<std::pair<const char*, CodegenOptions>> refs;
  for (const char* flag : {"internExprs", "memoLabels", "pruneSearch"}) {
    CodegenOptions o = fastOptions();
    o.internExprs = o.internExprs && std::string(flag) != "internExprs";
    o.memoLabels = o.memoLabels && std::string(flag) != "memoLabels";
    o.pruneSearch = o.pruneSearch && std::string(flag) != "pruneSearch";
    refs.emplace_back(flag, o);
  }
  refs.emplace_back("all flags", slowOptions());

  const auto sweep = difftest::defaultSweep();
  int compiled = 0;
  for (uint64_t seed = 6800; seed < 6860; ++seed) {
    const Program prog =
        dfl::parseDflOrDie(difftest::generateProgram(seed).render());
    for (const auto& pt : sweep) {
      const auto fast = compile(prog, pt.cfg, fastOptions());
      compiled += fast.has_value();
      for (const auto& [off, opt] : refs)
        EXPECT_EQ(fast, compile(prog, pt.cfg, opt))
            << "seed " << seed << " on " << pt.name << " with " << off
            << " off";
    }
  }
  EXPECT_GT(compiled, 400) << "most generated programs must compile";
}

TEST(FastPath, DeterministicOnRetargetedVariants) {
  // The guarantee must also hold away from the default core: feature-gated
  // rule sets change which covers exist.
  TargetConfig dual;
  dual.hasDualMul = true;
  dual.memBanks = 2;
  TargetConfig lean;
  lean.hasRpt = false;
  lean.hasDmov = false;
  lean.numAddrRegs = 2;
  for (const TargetConfig& cfg : {dual, lean}) {
    for (const char* name : {"fir", "n_real_updates", "convolution"}) {
      const Kernel& k = kernelByName(name);
      auto prog = dfl::parseDflOrDie(k.dfl);
      auto fast = RecordCompiler(cfg, fastOptions()).compile(prog);
      auto slow = RecordCompiler(cfg, slowOptions()).compile(prog);
      EXPECT_EQ(fast.prog.listing(), slow.prog.listing())
          << name << " on " << cfg.describe();
    }
  }
}

}  // namespace
}  // namespace record

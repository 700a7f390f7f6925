#include "codegen/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "codegen/binder.h"
#include "codegen/layout.h"
#include "ir/interner.h"
#include "regalloc/arfile.h"
#include "rewrite/enumerate.h"
#include "support/threadpool.h"
#include "target/tdsp.h"
#include "trace/trace.h"

namespace record {

/// Fast-path state a RecordCompiler keeps alive across compiles: the
/// hash-consing arena and the rewrite and label caches indexed by its node
/// IDs. Rewriting is purely structural, so rewrite entries stay valid for
/// the arena's (= this object's) whole lifetime.
struct FastPathState {
  /// Synthetic symbols canonicalized by name. The emitter names synthetics
  /// deterministically, so reusing one Symbol object per name keeps
  /// canonical trees (which hold raw Symbol pointers) valid and equal
  /// across compiles -- and prevents a freed per-compile symbol's address
  /// from aliasing a new one inside the long-lived intern table. Declared
  /// before the interner: members are destroyed in reverse order, so every
  /// canonical tree dies before the symbols it points to.
  std::unordered_map<std::string, std::unique_ptr<Symbol>> synths;
  ExprInterner interner;
  RewriteCache rewrite{interner};
  /// Label-memo storage, one per search worker: indexed by intern ID, so
  /// it grows with the interner once rather than with every compile.
  std::vector<BursMatcher::LabelMemo> labelMemos;
  /// Node count of each canonical tree by intern ID (0 = not counted yet),
  /// the search-order key: variants share subtrees, so each shape is
  /// counted once.
  std::vector<int> nodeCounts;

  int numNodes(const Expr& e) {
    const uint32_t id = e.internId;
    if (id < nodeCounts.size() && nodeCounts[id]) return nodeCounts[id];
    int n = 1;
    for (const auto& k : e.kids) n += numNodes(*k);
    if (id >= nodeCounts.size())  // IDs arrive ascending: grow geometrically
      nodeCounts.resize(std::max<size_t>({id + 1, 2 * nodeCounts.size(), 512}));
    return nodeCounts[id] = n;
  }
};

namespace {

// ---------------------------------------------------------------------------
// Helpers over expression trees
// ---------------------------------------------------------------------------

bool exprMentions(const ExprPtr& e, const Symbol* sym) {
  if ((e->op == Op::Ref || e->op == Op::ArrayRef) && e->sym == sym)
    return true;
  for (const auto& k : e->kids)
    if (exprMentions(k, sym)) return true;
  return false;
}

bool stmtsMention(const std::vector<Stmt>& body, const Symbol* sym) {
  for (const auto& s : body) {
    if (s.kind == Stmt::Kind::Assign) {
      if (exprMentions(s.rhs, sym)) return true;
      if (s.lhsIndex && exprMentions(s.lhsIndex, sym)) return true;
    } else {
      if (stmtsMention(s.body, sym)) return true;
    }
  }
  return false;
}

bool containsOp(const ExprPtr& e, Op op) {
  if (e->op == op) return true;
  for (const auto& k : e->kids)
    if (containsOp(k, op)) return true;
  return false;
}

bool programUsesSat(const std::vector<Stmt>& body) {
  for (const auto& s : body) {
    if (s.kind == Stmt::Kind::Assign) {
      if (containsOp(s.rhs, Op::SatAdd) || containsOp(s.rhs, Op::SatSub))
        return true;
    } else if (programUsesSat(s.body)) {
      return true;
    }
  }
  return false;
}

/// Substitute an induction variable in a whole statement (for unrolling).
Stmt substStmt(const Stmt& s, const Symbol* ivar, int64_t v) {
  if (s.kind == Stmt::Kind::Assign) {
    Stmt out = Stmt::assign(s.lhs, substInduction(s.rhs, ivar, v),
                            s.lhsIndex ? substInduction(s.lhsIndex, ivar, v)
                                       : nullptr);
    out.loc = s.loc;
    return out;
  }
  Stmt out = s;
  std::vector<Stmt> body;
  for (const auto& b : s.body) body.push_back(substStmt(b, ivar, v));
  out.body = std::move(body);
  return out;
}

// ---------------------------------------------------------------------------
// Exactness: wide-demand analysis + sum canonicalization
// ---------------------------------------------------------------------------
//
// The golden model (ir/interp.cpp) evaluates every operator over full 32-bit
// intermediates, while instruction covers may route subexpressions through
// 16-bit memory words (operand spills). A spilled addend changes the sum by
// a multiple of 2^16 -- invisible to the low 16 bits a store keeps, but NOT
// to right shifts, saturating ops, or anything else that observes the high
// accumulator half ("wide demand"). Two measures keep compiled code exact:
//
//   1. normalizeSums() rebuilds every +/- chain left-leaning, placing the
//      (at most one) wide non-product term first. The resulting chain has a
//      spill-free accumulator cover, and spilled alternatives cost strictly
//      more, so selection can never pick a lossy one -- even with rewriting
//      disabled, since the canonical tree itself is variant #0.
//   2. The same walk rejects the residue no cover can express: two or more
//      wide non-product terms under wide demand, a saturating op with both
//      operands wide and compound, or (on cores without a hardware
//      multiplier) a product whose high bits are observed -- the software
//      multiply only produces the low 16.
//
// Products never count as wide terms: Mul operands are 16-bit by definition
// (mul16 in ir/type.h), and the product reaches the accumulator through the
// 32-bit P register in any chain position (MPY/PAC/APAC/SPAC), so spilling
// a Mul *operand* is exact and the Mul itself never needs to lead a chain.

bool fitsInt16Value(const ExprPtr& e) {
  if (e->op == Op::Ref || e->op == Op::ArrayRef) return true;  // 16-bit cells
  if (e->op == Op::Const) return e->value >= -32768 && e->value <= 32767;
  return false;
}

/// A term that must stay accumulator-resident under wide demand.
bool isWideTerm(const ExprPtr& e) {
  return !fitsInt16Value(e) && e->op != Op::Mul;
}

struct SumTerm {
  ExprPtr expr;
  bool negated = false;
};

ExprPtr normalizeSums(const ExprPtr& e, bool wide, bool softMul,
                      const TargetConfig& cfg);

void flattenSumInto(const ExprPtr& e, bool neg, bool wide, bool softMul,
                    const TargetConfig& cfg, std::vector<SumTerm>& out) {
  if (e->op == Op::Add) {
    flattenSumInto(e->kids[0], neg, wide, softMul, cfg, out);
    flattenSumInto(e->kids[1], neg, wide, softMul, cfg, out);
    return;
  }
  if (e->op == Op::Sub) {
    flattenSumInto(e->kids[0], neg, wide, softMul, cfg, out);
    flattenSumInto(e->kids[1], !neg, wide, softMul, cfg, out);
    return;
  }
  if (e->op == Op::Neg) {
    flattenSumInto(e->kids[0], !neg, wide, softMul, cfg, out);
    return;
  }
  out.push_back({normalizeSums(e, wide, softMul, cfg), neg});
}

ExprPtr normalizeSums(const ExprPtr& e, bool wide, bool softMul,
                      const TargetConfig& cfg) {
  if (e->op == Op::Const) {
    // DFL literals are wrapped to 16 bits at lowering; an out-of-range
    // constant can only come from folding (wrap32 adds). The machine
    // materializes constants through 16-bit pool words, so where the high
    // bits are observed such a constant is inexpressible.
    if (wide && !fitsInt16Value(e))
      throw std::runtime_error(
          "statement is not exactly representable on " + cfg.describe() +
          ": folded constant " + std::to_string(e->value) +
          " does not fit a 16-bit word but its high bits are observed");
    return e;
  }
  if (opIsLeaf(e->op)) return e;
  // Array indexes are an addressing concern (hoisting, affine/stream
  // analysis) and always low-16; leave their shape alone.
  if (e->op == Op::ArrayRef) return e;

  if (e->op == Op::Add || e->op == Op::Sub || e->op == Op::Neg) {
    std::vector<SumTerm> terms;
    flattenSumInto(e, false, wide, softMul, cfg, terms);
    size_t lead = 0;
    if (wide) {
      int wideCount = 0;
      for (size_t i = 0; i < terms.size(); ++i) {
        if (!isWideTerm(terms[i].expr)) continue;
        if (wideCount++ == 0) lead = i;
      }
      if (wideCount >= 2)
        throw std::runtime_error(
            "statement is not exactly representable on " + cfg.describe() +
            ": " + std::to_string(wideCount) +
            " wide intermediates feed a right-shift/saturation context and "
            "only one can stay accumulator-resident, in: " +
            e->str());
    }
    ExprPtr chain = terms[lead].expr;
    const bool flip = terms[lead].negated;
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i == lead) continue;
      chain = Expr::binary(terms[i].negated != flip ? Op::Sub : Op::Add,
                           chain, terms[i].expr);
    }
    if (flip) chain = Expr::unary(Op::Neg, chain);
    return exprEquals(chain, e) ? e : chain;
  }

  ExprKids kids;
  bool changed = false;
  for (size_t i = 0; i < e->kids.size(); ++i) {
    bool kidWide = wide;
    switch (e->op) {
      case Op::Shr:
      case Op::Shru:
      case Op::SatAdd:
      case Op::SatSub:
        kidWide = true;  // these observe the full 32-bit operand value
        break;
      case Op::Mul:
      case Op::And:
        kidWide = false;  // operands pass a 16-bit port either way
        break;
      case Op::Or:
      case Op::Xor:
        kidWide = wide && i == 0;  // the right operand is masked to 16 bits
        break;
      default:
        break;  // Shl/Store keep the inherited demand
    }
    kids.push_back(normalizeSums(e->kids[i], kidWide, softMul, cfg));
    changed |= kids.back().get() != e->kids[i].get();
  }

  if (e->op == Op::Mul && wide && softMul)
    throw std::runtime_error(
        "statement is not exactly representable on " + cfg.describe() +
        ": the software multiply produces only the low 16 bits of a "
        "product, but its high bits are observed in: " + e->str());

  if (e->op == Op::SatAdd || e->op == Op::SatSub) {
    bool w0 = isWideTerm(kids[0]);
    bool w1 = isWideTerm(kids[1]);
    // Keep the wide operand on the accumulator side; the other side feeds
    // the 16-bit memory port of the SOVM add/subtract.
    if (e->op == Op::SatAdd && w1 && !w0) {
      std::swap(kids[0], kids[1]);
      std::swap(w0, w1);
      changed = true;
    }
    if (w1)
      throw std::runtime_error(
          "statement is not exactly representable on " + cfg.describe() +
          ": both operands of a saturating op are wider than a memory "
          "word, in: " + e->str());
  }

  return changed ? Expr::withKids(*e, std::move(kids)) : e;
}

/// The constant `substInduction(e, ivar, v)` folds to, computed without
/// building the substituted tree; nullopt when it would not fold to one.
/// Only meaningful when `e` mentions `ivar` (else nothing is substituted).
std::optional<int64_t> valueAt(const Expr& e, const Symbol* ivar, int64_t v) {
  switch (e.op) {
    case Op::Const: return e.value;
    case Op::Ref:
      if (e.sym == ivar) return v;
      return std::nullopt;
    case Op::ArrayRef: return std::nullopt;
    default: break;
  }
  auto a = valueAt(*e.kids[0], ivar, v);
  if (!a) return std::nullopt;
  int64_t b = 0;
  if (e.kids.size() > 1) {
    auto kb = valueAt(*e.kids[1], ivar, v);
    if (!kb) return std::nullopt;
    b = *kb;
  }
  return foldOp(e.op, *a, b);
}

/// Is `e` built from `ivar` and constants by operators that keep it affine
/// (+, -, negation, and * or << by an ivar-free operand)? Three points fit
/// a line through `i & 7` or `i*(i-1)*(i-2)` too, so the shape is checked.
bool linearIn(const ExprPtr& e, const Symbol* ivar) {
  if (!exprMentions(e, ivar)) return true;
  switch (e->op) {
    case Op::Ref: return true;  // ivar itself
    case Op::Add:
    case Op::Sub:
      return linearIn(e->kids[0], ivar) && linearIn(e->kids[1], ivar);
    case Op::Neg: return linearIn(e->kids[0], ivar);
    case Op::Mul:
      return (!exprMentions(e->kids[0], ivar) ||
              !exprMentions(e->kids[1], ivar)) &&
             linearIn(e->kids[0], ivar) && linearIn(e->kids[1], ivar);
    case Op::Shl:
      return !exprMentions(e->kids[1], ivar) && linearIn(e->kids[0], ivar);
    default: return false;
  }
}

/// Affine analysis: idx as a function of ivar. Returns (coeff, valueAtZero)
/// when idx = coeff*ivar + c exactly (an affine shape, checked at three
/// points).
std::optional<std::pair<int64_t, int64_t>> affineIndex(const ExprPtr& idx,
                                                       const Symbol* ivar) {
  if (!exprMentions(idx, ivar)) {  // substInduction leaves idx as it is
    if (idx->op != Op::Const) return std::nullopt;
    return std::make_pair(int64_t{0}, idx->value);
  }
  if (!linearIn(idx, ivar)) return std::nullopt;
  auto c0 = valueAt(*idx, ivar, 0), c1 = valueAt(*idx, ivar, 1),
       c2 = valueAt(*idx, ivar, 2);
  if (!c0 || !c1 || !c2) return std::nullopt;
  int64_t k = *c1 - *c0;
  if (*c2 - *c1 != k) return std::nullopt;
  return std::make_pair(k, *c0);
}

/// Does `e` read `sym` anywhere but at the array element `at` (an affine
/// index of `ivar`)? A scalar read, or any read when `at` is empty, counts.
bool readsBeside(const ExprPtr& e, const Symbol* sym,
                 const std::optional<std::pair<int64_t, int64_t>>& at,
                 const Symbol* ivar) {
  if ((e->op == Op::Ref || e->op == Op::ArrayRef) && e->sym == sym &&
      (e->op == Op::Ref || !at || affineIndex(e->kids[0], ivar) != at))
    return true;
  for (const auto& k : e->kids)
    if (readsBeside(k, sym, at, ivar)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// The late passes (§3.3), in pipeline order
// ---------------------------------------------------------------------------

/// What a late pass reads besides the code, and the stats it records into.
struct LatePassEnv {
  const TargetConfig& cfg;
  const CodegenOptions& opt;
  const DataLayout& layout;
  TraceContext* trace;
  CompileStats& stats;
};

/// One late pass: its span name, the option that switches it on (null:
/// always runs), the pass itself, rewriting the code in place, and the
/// counters it publishes from CompileStats. A disabled pass opens no span
/// but still publishes its (zero) counters, so every traced compile
/// carries the same counter set.
struct LatePass {
  const char* span;
  bool CodegenOptions::*enabled;
  void (*run)(std::vector<Instr>& code, const LatePassEnv& env);
  void (*publish)(TraceContext& trace, const CompileStats& stats);
};

constexpr LatePass kLatePasses[] = {
    {"accpromote", &CodegenOptions::accPromote,
     [](std::vector<Instr>& code, const LatePassEnv& env) {
       // Compiled code points ARs only into array storage.
       promoteAccumulators(
           code, &env.stats.promote,
           [&](int addr) { return env.layout.inArrayRegion(addr); },
           env.trace);
     },
     [](TraceContext& t, const CompileStats& s) {
       t.add("accpromote.promotions", s.promote.promotions);
     }},
    {"modes", nullptr,
     [](std::vector<Instr>& code, const LatePassEnv& env) {
       resolveModes(code, env.cfg, env.opt.modeOpt, &env.stats.modes);
     },
     [](TraceContext& t, const CompileStats& s) {
       t.add("modes.switches_inserted", s.modes.switchesInserted);
     }},
    {"compact", nullptr,
     [](std::vector<Instr>& code, const LatePassEnv& env) {
       compact(code, env.cfg, env.opt.compaction, &env.stats.compacted,
               env.trace);
     },
     [](TraceContext& t, const CompileStats& s) {
       t.add("compact.merges", s.compacted.merges);
       t.add("compact.blocks_reordered", s.compacted.blocksReordered);
     }},
    {"looptrans", &CodegenOptions::loopTransforms,
     [](std::vector<Instr>& code, const LatePassEnv& env) {
       applyLoopTransforms(code, env.cfg, env.opt.cost == CostKind::Cycles,
                           &env.stats.loops);
     },
     [](TraceContext& t, const CompileStats& s) {
       t.add("looptrans.rpt_conversions", s.loops.rptConversions);
       t.add("looptrans.mac_pipelined", s.loops.macPipelined);
       t.add("looptrans.mac_rotations", s.loops.macRotations);
     }},
    {"peephole", &CodegenOptions::peephole,
     [](std::vector<Instr>& code, const LatePassEnv& env) {
       peephole(code, env.cfg, &env.stats.peep, env.trace);
     },
     [](TraceContext& t, const CompileStats& s) {
       t.add("peephole.removed_loads", s.peep.removedLoads);
       t.add("peephole.dmov_fusions", s.peep.dmovFusions);
       t.add("peephole.dead_ar_loads", s.peep.deadArLoads);
     }},
};

// ---------------------------------------------------------------------------
// The emitter
// ---------------------------------------------------------------------------

struct StreamGroup {
  const Symbol* arraySym = nullptr;
  int64_t coeff = 0;   // +1 or -1
  int64_t c0 = 0;      // index at ivar = 0
  int occurrences = 0;
  int ar = -1;
  PostMod post = PostMod::None;
  Symbol* streamSym = nullptr;
};

class Emitter {
 public:
  Emitter(const TargetConfig& cfg, const CodegenOptions& opt,
          const RuleSet& rules, const Program& prog,
          const BankAssignment* banks, FastPathState* fast)
      : cfg_(cfg),
        opt_(opt),
        matcher_(rules, opt.cost),
        layout_(prog, cfg, banks),
        arfile_(cfg.numAddrRegs),
        binder_(layout_, cfg, arfile_),
        prog_(prog),
        trace_(opt.trace) {
    if (trace_) {
      // Resolve the hot-path counter once; searchSlice workers bump it
      // with relaxed atomic adds.
      cLabelings_ = trace_->counter("search.labelings");
      matcher_.setTrace(trace_, &curLoc_);
    }
    if (fast) {
      fast_ = fast;
      interner_ = &fast->interner;
      rcache_ = &fast->rewrite;
    }
    matchers_.push_back(&matcher_);
    int want = opt.searchThreads;
    if (want <= 0)
      want = static_cast<int>(std::thread::hardware_concurrency());
    if (want > 1) {
      pool_ = &ThreadPool::shared();
      want = std::min(want, pool_->size() + 1);  // the caller searches too
    }
    threads_ = std::max(1, want);
    if (threads_ <= 1) pool_ = nullptr;
    for (int i = 1; i < threads_; ++i) {
      extraMatchers_.push_back(
          std::make_unique<BursMatcher>(rules, opt.cost));
      matchers_.push_back(extraMatchers_.back().get());
    }
    // The label memo is indexed by intern ID, so it is only sound when
    // every labeled tree is canonical in the interner. Each search worker
    // gets its own memo storage, kept in the fast-path state.
    if (opt.memoLabels && fast_) {
      if (fast_->labelMemos.size() < matchers_.size())
        fast_->labelMemos.resize(matchers_.size());
      for (size_t i = 0; i < matchers_.size(); ++i)
        matchers_[i]->enableMemo(&fast_->labelMemos[i]);
    }
  }

  CompileResult run() {
    const int64_t vHits0 = rcache_ ? rcache_->variantHits : 0;
    const int64_t vMiss0 = rcache_ ? rcache_->variantMisses : 0;
    {
      TraceSpan span(trace_, "select");
      emitStmts(prog_.body);
      setSrcLoc(0, 0);  // tick epilogue is scaffolding, not user source
      emitDelayShifts();
      appendRaw(Opcode::HALT, Operand::none(), Operand::none());
    }

    // The late passes, in place on code_; msLate is the sum of their spans.
    const LatePassEnv env{cfg_, opt_, layout_, trace_, stats_};
    for (const LatePass& pass : kLatePasses) {
      if (!pass.enabled || opt_.*pass.enabled) {
        TraceSpan span(trace_, pass.span, &stats_.msLate);
        pass.run(code_, env);
      }
      if (trace_) pass.publish(*trace_, stats_);
    }

    for (const BursMatcher* m : matchers_) {
      stats_.memoHits += m->memoHits();
      stats_.memoMisses += m->memoMisses();
    }
    if (interner_) {
      stats_.internedNodes = static_cast<int64_t>(interner_->size());
      stats_.internHits = interner_->hits();
    }

    CompileResult res;
    res.prog.config = cfg_;
    res.prog.code = std::move(code_);
    res.prog.symbolAddr = layout_.symbolTable();
    res.prog.dataInit = layout_.dataInit();
    res.prog.sourceName = prog_.name;
    res.stats = stats_;
    res.stats.sizeWords = res.prog.sizeWords();

    if (trace_) {
      // Publish the selection statistics as counters (search.labelings,
      // the one hot-path counter, was bumped in place; the late passes
      // published theirs above).
      trace_->add("isel.statements", stats_.statements);
      trace_->add("rewrite.variants_explored", stats_.variantsTried);
      trace_->add("rewrite.variants_pruned", stats_.variantsPruned);
      trace_->add("isel.patterns_used", stats_.patternsUsed);
      if (rcache_) {
        trace_->add("rewrite.variant_cache_hits",
                    rcache_->variantHits - vHits0);
        trace_->add("rewrite.variant_cache_misses",
                    rcache_->variantMisses - vMiss0);
      }
      trace_->add("intern.nodes", stats_.internedNodes);
      trace_->add("intern.hits", stats_.internHits);
      trace_->add("burs.memo_hits", stats_.memoHits);
      trace_->add("burs.memo_misses", stats_.memoMisses);
      trace_->add("binder.spill_temps", binder_.tempAllocs());
      trace_->add("codegen.size_words", res.stats.sizeWords);
    }
    return res;
  }

 private:
  // ---- low-level emission -------------------------------------------------
  void append(Instr in) {
    code_.push_back(std::move(in));
    stamp(code_.back());
  }

  /// Gives a just-emitted instruction the pending label and the current
  /// source position.
  void stamp(Instr& in) {
    if (!pendingLabel_.empty() && in.label.empty()) {
      in.label = std::move(pendingLabel_);
      pendingLabel_.clear();
    }
    // Debug info: every instruction inherits the source position of the
    // statement being emitted (0 while emitting program-level scaffolding
    // such as final delay shifts and HALT). Loop prologue/epilogue code
    // attributes to the `for` line; a statement's own spills, soft-mul
    // expansions, and index hoists attribute to the statement.
    in.srcLine = curLine_;
    in.srcCol = curCol_;
  }

  void setSrcLoc(int line, int col) {
    curLine_ = line;
    curCol_ = col;
  }

  void appendRaw(Opcode op, Operand a, Operand b, ModeReq need = {},
                 std::string target = {}) {
    Instr in;
    in.op = op;
    in.need = need;
    in.a = a;
    in.b = b;
    in.targetLabel = std::move(target);
    append(std::move(in));
  }

  std::string freshLabel() { return "L" + std::to_string(labelN_++); }
  void defineLabel(std::string l) {
    assert(pendingLabel_.empty());
    pendingLabel_ = std::move(l);
  }

  Symbol* newSynth(const std::string& name, Type type = Type::Fix) {
    // With the fast path on, synthetics come from the compiler-lifetime
    // registry (see FastPathState::synths): names are deterministic, every
    // synthetic is a Var, and per-compile maps (layout, binder) are fresh,
    // so sharing one object per name across compiles is observationally
    // identical -- and required for interned trees that outlive this
    // Emitter.
    if (fast_) {
      auto& slot = fast_->synths[name];
      if (!slot) {
        slot = std::make_unique<Symbol>();
        slot->name = name;
        slot->kind = SymKind::Var;
        slot->type = type;
      }
      return slot.get();
    }
    auto s = std::make_unique<Symbol>();
    s->name = name;
    s->kind = SymKind::Var;
    s->type = type;
    synths_.push_back(std::move(s));
    return synths_.back().get();
  }

  /// Synthetic variable with a scratch data word already bound.
  Symbol* newSynthVar(const std::string& name) {
    Symbol* s = newSynth(name);
    binder_.addSyntheticAddr(s, layout_.allocScratch(name));
    return s;
  }

  void emitLoadAccConst(int64_t v) {
    if (v >= -128 && v <= 127)
      appendRaw(Opcode::LACK, Operand::imm(static_cast<int>(v)),
                Operand::none());
    else
      appendRaw(Opcode::LAC,
                Operand::direct(layout_.constAddr(
                    static_cast<int16_t>(wrap16(v)))),
                Operand::none());
  }

  void emitLoadArConst(int ar, int64_t v) {
    if (v >= 0 && v <= 255)
      appendRaw(Opcode::LARK, Operand::imm(ar),
                Operand::imm(static_cast<int>(v)));
    else
      appendRaw(Opcode::LAR, Operand::imm(ar),
                Operand::direct(layout_.constAddr(
                    static_cast<int16_t>(wrap16(v)))));
  }

  // ---- statement selection -------------------------------------------------
  //
  // The fast path preserves the sequential semantics exactly: the winner is
  // the variant with the smallest cover cost, ties broken by enumeration
  // order. Heuristic processing order, branch-and-bound pruning, and the
  // parallel slice search can therefore never change which cover is emitted
  // (a pruned variant is provably strictly worse than the running bound).
  void selectAndEmit(const ExprPtr& storeTree) {
    TraceSpan stmtSpan(trace_, "stmt");
    ExprPtr root;
    std::vector<ExprPtr> variants;
    {
      TraceSpan span(trace_, "rewrite", &stats_.msRewrite);
      root = interner_ ? interner_->intern(storeTree) : storeTree;
      variants =
          opt_.rewriteBudget > 1
              ? enumerateVariants(root, opt_.rewriteBudget, interner_,
                                  rcache_)
              : std::vector<ExprPtr>{root};
    }

    TraceSpan searchSpan(trace_, "search", &stats_.msSearch);
    const int n = static_cast<int>(variants.size());
    constexpr int kNone = std::numeric_limits<int>::max();

    // Cheap search-order heuristic: smaller trees usually cover cheaper, so
    // costing them first tightens the pruning bound early. Equal sizes keep
    // enumeration order. The buffers are reused across statements.
    std::vector<int>& order = order_;
    order.resize(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    if (opt_.pruneSearch && n > 1) {
      std::vector<int>& sizes = sizes_;
      sizes.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const Expr& v = *variants[static_cast<size_t>(i)];
        sizes[static_cast<size_t>(i)] =
            interner_ ? fast_->numNodes(v) : v.numNodes();
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const int sa = sizes[static_cast<size_t>(a)];
        const int sb = sizes[static_cast<size_t>(b)];
        return sa != sb ? sa < sb : a < b;
      });
    }

    std::vector<int>& costs = costs_;
    costs.assign(static_cast<size_t>(n), kNone);
    std::atomic<int> bound{kNone};  // best complete cover cost so far
    std::atomic<int> pruned{0};
    const int stride = (pool_ && n >= 8) ? threads_ : 1;

    auto searchSlice = [&](int w) {
      BursMatcher& m = *matchers_[static_cast<size_t>(w)];
      for (int j = w; j < n; j += stride) {
        int i = order[static_cast<size_t>(j)];
        int limit = opt_.pruneSearch
                        ? bound.load(std::memory_order_relaxed)
                        : kNone;
        auto out = m.matchCostBounded(variants[static_cast<size_t>(i)],
                                      Nonterm::Stmt, binder_, limit);
        if (out.pruned) {
          pruned.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (cLabelings_) cLabelings_->add(1);
        if (!out.cost) continue;
        costs[static_cast<size_t>(i)] = *out.cost;
        int cur = bound.load(std::memory_order_relaxed);
        while (*out.cost < cur &&
               !bound.compare_exchange_weak(cur, *out.cost,
                                            std::memory_order_relaxed)) {
        }
      }
    };
    if (stride > 1)
      pool_->parallelFor(stride, searchSlice);
    else
      searchSlice(0);

    int bestCost = kNone;
    size_t bestIdx = 0;
    for (int i = 0; i < n; ++i) {
      if (costs[static_cast<size_t>(i)] < bestCost) {
        bestCost = costs[static_cast<size_t>(i)];
        bestIdx = static_cast<size_t>(i);
      }
    }
    searchSpan.close();
    if (bestCost == kNone)
      throw std::runtime_error("no instruction cover for: " +
                               storeTree->str() + " on " + cfg_.describe());
    stats_.variantsTried += n;
    stats_.variantsPruned += pruned.load(std::memory_order_relaxed);
    if (trace_)
      trace_->remark("select",
                     "picked variant " + std::to_string(bestIdx + 1) + "/" +
                         std::to_string(n) + " (cost " +
                         std::to_string(bestCost) + ") for " +
                         storeTree->str(),
                     curLoc_);

    TraceSpan reduceSpan(trace_, "reduce", &stats_.msReduce);
    const size_t first = code_.size();
    auto res =
        matcher_.reduce(variants[bestIdx], Nonterm::Stmt, binder_, code_);
    assert(res.ok);
    stats_.patternsUsed += res.patternsUsed;
    for (size_t i = first; i < code_.size(); ++i) stamp(code_[i]);
    ++stats_.statements;
  }

  /// Is `e` usable directly as a mem/imm leaf *without* setup code (i.e.
  /// without touching the scratch address register)? Zero-cost bindings
  /// only: a dynamic array access costs setup instructions and would
  /// clobber the scratch AR holding a pending store destination.
  bool isSimpleLeaf(const ExprPtr& e) {
    auto mem = binder_.leafCost(*e, Nonterm::Mem);
    if (mem && *mem == 0) return true;
    auto imm = binder_.leafCost(*e, Nonterm::Imm16);
    return imm && *imm == 0;
  }

  /// Hoist non-simple dynamic array indexes into scratch variables, emitting
  /// the index computations as separate statements.
  ExprPtr hoistIndexes(const ExprPtr& e) {
    if (opIsLeaf(e->op)) return e;
    ExprKids kids;
    bool changed = false;
    for (const auto& k : e->kids) {
      kids.push_back(hoistIndexes(k));
      changed |= kids.back().get() != k.get();
    }
    if (e->op == Op::ArrayRef) {
      ExprPtr& idx = kids[0];
      bool simpleIdx =
          idx->op == Op::Const ||
          (idx->op == Op::Ref &&
           binder_.leafCost(*idx, Nonterm::Mem).has_value());
      if (!simpleIdx) {
        Symbol* t = newSynthVar("$idx" + std::to_string(synthN_++));
        selectAndEmit(
            Expr::binary(Op::Store, Expr::ref(t), idx));
        idx = Expr::ref(t);
        changed = true;
      }
    }
    // Untouched trees keep their identity.
    return changed ? Expr::withKids(*e, std::move(kids)) : e;
  }

  /// Software multiplication for cores without a multiplier: replaces every
  /// Mul by an inline shift-add loop through scratch storage.
  ExprPtr legalizeMuls(const ExprPtr& e) {
    if (opIsLeaf(e->op)) return e;
    ExprKids kids;
    bool changed = false;
    for (const auto& k : e->kids) {
      kids.push_back(legalizeMuls(k));
      changed |= kids.back().get() != k.get();
    }
    if (e->op == Op::Mul) {
      Symbol* res = newSynthVar("$mul" + std::to_string(synthN_++));
      emitSoftMul(kids[0], kids[1], res);
      return Expr::ref(res);
    }
    return changed ? Expr::withKids(*e, std::move(kids)) : e;
  }

  void emitSoftMul(const ExprPtr& a, const ExprPtr& b, Symbol* res) {
    // ta/tb working copies; 16-bit product (documented limitation).
    Symbol* ta = newSynthVar("$sm_a" + std::to_string(synthN_));
    Symbol* tb = newSynthVar("$sm_b" + std::to_string(synthN_++));
    selectAndEmit(Expr::binary(Op::Store, Expr::ref(ta), a));
    selectAndEmit(Expr::binary(Op::Store, Expr::ref(tb), b));
    int taA = binder_.addrFor(ta);
    int tbA = binder_.addrFor(tb);
    int resA = binder_.addrFor(res);
    appendRaw(Opcode::ZAC, Operand::none(), Operand::none());
    appendRaw(Opcode::SACL, Operand::direct(resA), Operand::none());
    std::string top = freshLabel();
    std::string skip = freshLabel();
    auto ctr = arfile_.alloc();
    int cntAddr = -1;
    if (ctr) {
      emitLoadArConst(*ctr, 15);
    } else {
      cntAddr = layout_.allocScratch("$sm_cnt");
      emitLoadAccConst(15);
      appendRaw(Opcode::SACL, Operand::direct(cntAddr), Operand::none());
    }
    defineLabel(top);
    appendRaw(Opcode::LAC, Operand::direct(tbA), Operand::none());
    appendRaw(Opcode::ANDK, Operand::imm(1), Operand::none());
    appendRaw(Opcode::BZ, Operand::none(), Operand::none(), {}, skip);
    appendRaw(Opcode::LAC, Operand::direct(resA), Operand::none());
    appendRaw(Opcode::ADD, Operand::direct(taA), Operand::none(), {0, -1});
    appendRaw(Opcode::SACL, Operand::direct(resA), Operand::none());
    defineLabel(skip);
    appendRaw(Opcode::LAC, Operand::direct(taA), Operand::none());
    appendRaw(Opcode::SFL, Operand::none(), Operand::none());
    appendRaw(Opcode::SACL, Operand::direct(taA), Operand::none());
    appendRaw(Opcode::LAC, Operand::direct(tbA), Operand::none());
    appendRaw(Opcode::SFR, Operand::none(), Operand::none(), {-1, 0});
    appendRaw(Opcode::SACL, Operand::direct(tbA), Operand::none());
    if (ctr) {
      appendRaw(Opcode::BANZ, Operand::imm(*ctr), Operand::none(), {}, top);
      arfile_.free(*ctr);
    } else {
      appendRaw(Opcode::LAC, Operand::direct(cntAddr), Operand::none());
      appendRaw(Opcode::SUBK, Operand::imm(1), Operand::none());
      appendRaw(Opcode::SACL, Operand::direct(cntAddr), Operand::none());
      appendRaw(Opcode::BGEZ, Operand::none(), Operand::none(), {}, top);
    }
  }

  /// Pre-optimization-era codegen: every interior operation lands in its
  /// own memory temporary.
  ExprPtr atomize(const ExprPtr& e, bool isRoot) {
    if (opIsLeaf(e->op)) return e;
    ExprKids kids;
    for (const auto& k : e->kids) kids.push_back(atomize(k, false));
    ExprPtr out = Expr::withKids(*e, std::move(kids));
    if (isRoot || e->op == Op::ArrayRef) return out;
    Symbol* t = newSynthVar("$a" + std::to_string(synthN_++));
    selectAndEmit(Expr::binary(Op::Store, Expr::ref(t), out));
    return Expr::ref(t);
  }

  void emitAssign(const Stmt& s) {
    binder_.beginStatement();
    setSrcLoc(s.loc.line, s.loc.col);
    if (trace_) {
      curLoc_.clear();
      if (s.loc.line > 0) {
        curLoc_ = (prog_.name.empty() ? "<dfl>" : prog_.name) + ":" +
                  std::to_string(s.loc.line);
        if (s.loc.col > 0) curLoc_ += ":" + std::to_string(s.loc.col);
      }
    }
    ExprPtr rhs = s.rhs;
    if (opt_.foldConstants) rhs = foldConstants(rhs);
    const bool softMul = !cfg_.hasMac && !cfg_.hasDualMul;
    // Canonicalize sums for exactness and reject statements no cover can
    // implement bit-exactly (throws; see normalizeSums above). The store
    // root only keeps the low 16 bits, hence wide=false at the root.
    rhs = normalizeSums(rhs, /*wide=*/false, softMul, cfg_);
    if (softMul) rhs = legalizeMuls(rhs);
    rhs = hoistIndexes(rhs);
    if (opt_.atomizeExprs) rhs = atomize(rhs, true);

    ExprPtr dest;
    bool dynamicDest = false;
    if (s.lhsIndex) {
      ExprPtr idx = s.lhsIndex;
      if (opt_.foldConstants) idx = foldConstants(idx);
      if (!cfg_.hasMac && !cfg_.hasDualMul) idx = legalizeMuls(idx);
      idx = hoistIndexes(idx);
      bool simpleIdx =
          idx->op == Op::Const ||
          (idx->op == Op::Ref &&
           binder_.leafCost(*idx, Nonterm::Mem).has_value());
      if (!simpleIdx) {
        Symbol* t = newSynthVar("$idx" + std::to_string(synthN_++));
        selectAndEmit(Expr::binary(Op::Store, Expr::ref(t), idx));
        idx = Expr::ref(t);
      }
      dynamicDest = idx->op != Op::Const &&
                    !(idx->op == Op::Ref &&
                      idx->sym->kind == SymKind::Const);
      dest = Expr::arrayRef(s.lhs, idx);
    } else {
      dest = Expr::ref(s.lhs);
    }
    // A dynamically addressed store needs a simple rhs, or the rhs's own
    // dynamic accesses would clobber the scratch address register.
    if (dynamicDest && !isSimpleLeaf(rhs)) {
      Symbol* t = newSynthVar("$val" + std::to_string(synthN_++));
      selectAndEmit(Expr::binary(Op::Store, Expr::ref(t), rhs));
      rhs = Expr::ref(t);
    }
    selectAndEmit(Expr::binary(Op::Store, dest, rhs));
    binder_.endStatement();
  }

  // ---- streams -------------------------------------------------------------
  // Keyed by (symbol name, coefficient, offset) so AR allocation order is
  // deterministic across runs.
  using StreamKey = std::tuple<std::string, int64_t, int64_t>;

  /// Any array access in `e` that can NOT become a stream of `ivar` and is
  /// not a loop-invariant constant index (i.e. will need the scratch AR)?
  bool hasNonStreamArrayRef(const ExprPtr& e, const Symbol* ivar) {
    if (e->op == Op::ArrayRef) {
      auto aff = affineIndex(e->kids[0], ivar);
      // coeff 0 = constant index after substitution: direct addressing.
      if (aff && aff->first >= -1 && aff->first <= 1) return false;
      return true;
    }
    for (const auto& k : e->kids)
      if (hasNonStreamArrayRef(k, ivar)) return true;
    return false;
  }

  void addStreamOccurrence(const Symbol* sym, int64_t coeff, int64_t c0,
                           std::map<StreamKey, StreamGroup>& groups) {
    if (coeff != 1 && coeff != -1) return;
    auto& g = groups[StreamKey{sym->name, coeff, c0}];
    g.arraySym = sym;
    g.coeff = coeff;
    g.c0 = c0;
    ++g.occurrences;
  }

  void findStreamsInExpr(const ExprPtr& e, const Symbol* ivar,
                         std::map<StreamKey, StreamGroup>& groups) {
    if (e->op == Op::ArrayRef) {
      if (auto aff = affineIndex(e->kids[0], ivar)) {
        addStreamOccurrence(e->sym, aff->first, aff->second, groups);
        return;  // index contains only ivar+consts; no deeper refs
      }
    }
    for (const auto& k : e->kids) findStreamsInExpr(k, ivar, groups);
  }

  ExprPtr replaceStreams(const ExprPtr& e, const Symbol* ivar,
                         const std::map<StreamKey, StreamGroup>& groups) {
    if (e->op == Op::ArrayRef) {
      if (auto aff = affineIndex(e->kids[0], ivar)) {
        auto it =
            groups.find(StreamKey{e->sym->name, aff->first, aff->second});
        if (it != groups.end() && it->second.streamSym)
          return Expr::ref(it->second.streamSym);
      }
    }
    if (opIsLeaf(e->op)) return e;
    ExprKids kids;
    for (const auto& k : e->kids)
      kids.push_back(replaceStreams(k, ivar, groups));
    return Expr::withKids(*e, std::move(kids));
  }

  /// Collect the stream groups of a step-1 all-assign loop body. Returns
  /// whether the body also makes an array access that will NOT stream, i.e.
  /// one that needs the scratch AR.
  bool findStreams(const std::vector<Stmt>& body, const Symbol* ivar,
                   std::map<StreamKey, StreamGroup>& groups) {
    bool leftoverDynamic = false;
    for (const auto& b : body) {
      findStreamsInExpr(b.rhs, ivar, groups);
      leftoverDynamic |= hasNonStreamArrayRef(b.rhs, ivar);
      if (b.lhsIndex) {
        // The write access itself is a stream candidate...
        if (auto aff = affineIndex(b.lhsIndex, ivar)) {
          addStreamOccurrence(b.lhs, aff->first, aff->second, groups);
          if (aff->first != 1 && aff->first != -1) leftoverDynamic = true;
        } else {
          // ...and a non-affine index may contain streamable reads.
          findStreamsInExpr(b.lhsIndex, ivar, groups);
          leftoverDynamic = true;
        }
        leftoverDynamic |= hasNonStreamArrayRef(b.lhsIndex, ivar);
      }
    }
    return leftoverDynamic;
  }

  /// Do `groups` streams plus a BANZ counter all get an AR? The reserved
  /// scratch AR counts only when no access of the loop needs it.
  bool arsFit(size_t groups, bool leftoverDynamic) const {
    const bool scratch = !leftoverDynamic && !arfile_.scratchLeased();
    return static_cast<int>(groups) + 1 <=
           arfile_.available() + (scratch ? 1 : 0);
  }

  bool streamsFit(const std::vector<Stmt>& body, const Symbol* ivar) {
    std::map<StreamKey, StreamGroup> groups;
    const bool dyn = findStreams(body, ivar, groups);
    return arsFit(groups.size(), dyn);
  }

  /// May every iteration of `before` run ahead of every iteration of
  /// `after` (loop fission)? `after` must write nothing `before` mentions,
  /// and may read what `before` writes only as the same array element that
  /// the same iteration wrote: the identical affine index of `ivar`.
  static bool fissionLegal(const std::vector<Stmt>& before,
                           const std::vector<Stmt>& after,
                           const Symbol* ivar) {
    for (const Stmt& a : before) {
      std::optional<std::pair<int64_t, int64_t>> wrote;
      if (a.lhsIndex) wrote = affineIndex(a.lhsIndex, ivar);
      if (wrote && wrote->first == 0) wrote.reset();  // one element, all i
      for (const Stmt& b : after) {
        if (b.lhs == a.lhs || exprMentions(a.rhs, b.lhs) ||
            (a.lhsIndex && exprMentions(a.lhsIndex, b.lhs)))
          return false;
        if (readsBeside(b.rhs, a.lhs, wrote, ivar) ||
            (b.lhsIndex && readsBeside(b.lhsIndex, a.lhs, wrote, ivar)))
          return false;
      }
    }
    return true;
  }

  /// Loop fission for AR pressure: greedily cut a body whose streams plus
  /// counter overflow the AR file into chunks that each fit. Empty when a
  /// single statement overflows or a cut is illegal.
  std::vector<std::vector<Stmt>> splitForArs(const Stmt& s) {
    std::vector<std::vector<Stmt>> chunks{{s.body.front()}};
    for (size_t i = 1; i < s.body.size(); ++i) {
      std::vector<Stmt> grown = chunks.back();
      grown.push_back(s.body[i]);
      if (streamsFit(grown, s.ivar))
        chunks.back() = std::move(grown);
      else
        chunks.push_back({s.body[i]});
    }
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (!streamsFit(chunks[c], s.ivar)) return {};
      for (size_t d = c + 1; d < chunks.size(); ++d)
        if (!fissionLegal(chunks[c], chunks[d], s.ivar)) return {};
    }
    return chunks;
  }

  // ---- loops ----------------------------------------------------------------
  void emitFor(const Stmt& s) {
    int64_t n = s.tripCount();
    if (n == 0) return;
    if (n <= opt_.unrollThreshold) {
      for (int64_t v = s.lo; (s.step > 0) ? v <= s.hi : v >= s.hi;
           v += s.step) {
        for (const auto& b : s.body) emitStmt(substStmt(b, s.ivar, v));
      }
      return;
    }

    bool bodyAllAssign = true;
    for (const auto& b : s.body)
      if (b.kind != Stmt::Kind::Assign) bodyAllAssign = false;

    // 1. Stream detection and AR allocation.
    std::map<StreamKey, StreamGroup> groups;
    bool useScratch = false;
    if (opt_.useStreams && bodyAllAssign && s.step == 1) {
      const bool leftoverDynamic = findStreams(s.body, s.ivar, groups);
      // A loop whose streams and counter overflow the AR file runs as
      // consecutive counted loops when its body splits legally into chunks
      // that each fit.
      if (opt_.arLoopCounters && s.body.size() > 1 &&
          !arsFit(groups.size(), leftoverDynamic)) {
        auto chunks = splitForArs(s);
        if (!chunks.empty()) {
          for (auto& chunk : chunks) {
            Stmt part =
                Stmt::forLoop(s.ivar, s.lo, s.hi, s.step, std::move(chunk));
            part.loc = s.loc;
            emitFor(part);
          }
          return;
        }
      }
      // The reserved scratch AR may join the pool when this loop provably
      // performs no dynamic (non-stream) array access: every candidate
      // group then binds purely through its own AR.
      int wanted = static_cast<int>(groups.size()) +
                   (opt_.arLoopCounters ? 1 : 0);
      useScratch = !leftoverDynamic && !arfile_.scratchLeased() &&
                   wanted <= arfile_.available() + 1;
      for (auto it = groups.begin(); it != groups.end();) {
        auto ar = arfile_.alloc(useScratch);
        if (!ar) {
          it = groups.erase(it);
          continue;
        }
        StreamGroup& g = it->second;
        g.ar = *ar;
        g.post = g.occurrences == 1
                     ? (g.coeff > 0 ? PostMod::Inc : PostMod::Dec)
                     : PostMod::None;
        g.streamSym =
            newSynth(g.arraySym->name + "$s" + std::to_string(synthN_++));
        ++it;
      }
    }

    // 2. Rewrite the body with stream references.
    std::vector<Stmt> body;
    for (const auto& b : s.body) {
      if (b.kind != Stmt::Kind::Assign || groups.empty()) {
        body.push_back(b);
        continue;
      }
      const Symbol* streamLhs = nullptr;
      ExprPtr lhsIndex = b.lhsIndex;
      if (b.lhsIndex) {
        if (auto aff = affineIndex(b.lhsIndex, s.ivar)) {
          auto it = groups.find(
              StreamKey{b.lhs->name, aff->first, aff->second});
          if (it != groups.end() && it->second.streamSym) {
            streamLhs = it->second.streamSym;
            lhsIndex = nullptr;
          }
        }
      }
      Stmt nb = Stmt::assign(streamLhs ? streamLhs : b.lhs,
                             replaceStreams(b.rhs, s.ivar, groups),
                             streamLhs ? nullptr : lhsIndex);
      nb.loc = b.loc;
      body.push_back(std::move(nb));
    }

    // 3. Materialize the induction variable if the body still needs it.
    setSrcLoc(s.loc.line, s.loc.col);  // loop setup attributes to the for line
    bool needIvar = stmtsMention(body, s.ivar);
    if (needIvar) {
      int addr = layout_.allocScratch(s.ivar->name);
      binder_.addSyntheticAddr(s.ivar, addr);
      emitLoadAccConst(s.lo);
      appendRaw(Opcode::SACL, Operand::direct(addr), Operand::none());
    }

    // 4. Loop counter.
    std::optional<int> ctrAr;
    if (opt_.arLoopCounters) ctrAr = arfile_.alloc(useScratch);
    int cntAddr = -1;
    if (ctrAr) {
      emitLoadArConst(*ctrAr, n - 1);
    } else {
      cntAddr = layout_.allocScratch("$cnt" + std::to_string(synthN_++));
      emitLoadAccConst(n - 1);
      appendRaw(Opcode::SACL, Operand::direct(cntAddr), Operand::none());
    }

    // 5. Stream address-register initialization; binder registration.
    for (auto& [key, g] : groups) {
      int64_t startIdx = g.c0 + g.coeff * s.lo;
      emitLoadArConst(g.ar, layout_.addrOf(g.arraySym) + startIdx);
      binder_.setStream(g.streamSym, {g.ar, g.post});
    }

    // 6. Body.
    std::string top = freshLabel();
    defineLabel(top);
    // Assigns whose destination was rewritten to a stream symbol work
    // through the ordinary path: the binder resolves Ref(streamSym) to the
    // indirect AR operand.
    for (const auto& b : body) emitStmt(b);

    // 7. Epilogue: explicit stepping for multi-occurrence streams, ivar
    // update, back branch.
    setSrcLoc(s.loc.line, s.loc.col);  // counter/back-branch: the for line
    for (auto& [key, g] : groups) {
      if (g.post != PostMod::None) continue;
      appendRaw(g.coeff > 0 ? Opcode::ADRK : Opcode::SBRK,
                Operand::imm(g.ar), Operand::imm(1));
    }
    if (needIvar) {
      int addr = binder_.addrFor(s.ivar);
      appendRaw(Opcode::LAC, Operand::direct(addr), Operand::none());
      if (s.step >= -128 && s.step <= 127) {
        int mag = static_cast<int>(s.step >= 0 ? s.step : -s.step);
        appendRaw(s.step >= 0 ? Opcode::ADDK : Opcode::SUBK,
                  Operand::imm(mag), Operand::none());
      } else {
        appendRaw(Opcode::ADD,
                  Operand::direct(layout_.constAddr(
                      static_cast<int16_t>(wrap16(s.step)))),
                  Operand::none());
      }
      appendRaw(Opcode::SACL, Operand::direct(addr), Operand::none());
    }
    if (ctrAr) {
      appendRaw(Opcode::BANZ, Operand::imm(*ctrAr), Operand::none(), {},
                top);
      arfile_.free(*ctrAr);
    } else {
      appendRaw(Opcode::LAC, Operand::direct(cntAddr), Operand::none());
      appendRaw(Opcode::SUBK, Operand::imm(1), Operand::none());
      appendRaw(Opcode::SACL, Operand::direct(cntAddr), Operand::none());
      appendRaw(Opcode::BGEZ, Operand::none(), Operand::none(), {}, top);
    }

    // 8. Cleanup.
    for (auto& [key, g] : groups) {
      binder_.clearStream(g.streamSym);
      arfile_.free(g.ar);
    }
  }

  void emitStmt(const Stmt& s) {
    if (s.kind == Stmt::Kind::Assign)
      emitAssign(s);
    else
      emitFor(s);
  }

  void emitStmts(const std::vector<Stmt>& body) {
    for (const auto& s : body) emitStmt(s);
  }

  void emitDelayShifts() {
    for (const Symbol* sym : prog_.storageSymbols()) {
      if (sym->delayDepth <= 0) continue;
      int base = layout_.addrOf(sym);
      for (int k = sym->delayDepth; k >= 1; --k) {
        if (cfg_.hasDmov) {
          appendRaw(Opcode::DMOV, Operand::direct(base + k - 1),
                    Operand::none());
        } else {
          appendRaw(Opcode::LAC, Operand::direct(base + k - 1),
                    Operand::none());
          appendRaw(Opcode::SACL, Operand::direct(base + k),
                    Operand::none());
        }
      }
    }
  }

  const TargetConfig& cfg_;
  const CodegenOptions& opt_;
  BursMatcher matcher_;
  DataLayout layout_;
  ArFile arfile_;
  CodegenBinder binder_;
  const Program& prog_;
  // Fast path: hash-consing arena, per-worker matchers (each with its own
  // label memo), and the shared search pool.
  FastPathState* fast_ = nullptr;  // owned by the compiler; null = flags off
  ExprInterner* interner_ = nullptr;  // alias into fast_
  RewriteCache* rcache_ = nullptr;    // alias into fast_
  std::vector<BursMatcher*> matchers_;  // [0] == &matcher_
  std::vector<std::unique_ptr<BursMatcher>> extraMatchers_;
  ThreadPool* pool_ = nullptr;
  int threads_ = 1;
  // Observability (null/unused when tracing is off).
  TraceContext* trace_ = nullptr;
  TraceCounter* cLabelings_ = nullptr;
  /// Rendered source attribution ("prog.dfl:12:3") of the statement being
  /// selected; the matcher reads it through setTrace at remark time.
  std::string curLoc_;
  /// Raw source position stamped onto every appended instruction (debug
  /// info for the execution profiler); 0 = scaffolding.
  int curLine_ = 0;
  int curCol_ = 0;
  std::vector<std::unique_ptr<Symbol>> synths_;
  std::vector<Instr> code_;
  // selectAndEmit's per-variant search order, node counts and cover costs.
  std::vector<int> order_;
  std::vector<int> sizes_;
  std::vector<int> costs_;
  std::string pendingLabel_;
  int labelN_ = 0;
  int synthN_ = 0;
  CompileStats stats_;
};

}  // namespace

namespace {

/// Process-wide cache of default rule sets: selecting one from tdsp.isd is
/// identical for identical configs, so compilers can share an immutable
/// instance instead of copying ~70 rules per construction.
std::shared_ptr<const RuleSet> cachedTdspRules(const TargetConfig& cfg) {
  static std::mutex mu;
  static std::map<std::string, std::shared_ptr<const RuleSet>> cache;
  char key[96];
  std::snprintf(key, sizeof key, "%d%d%d%d%d|%d|%d|%d", cfg.hasMac,
                cfg.hasDualMul, cfg.hasSat, cfg.hasRpt, cfg.hasDmov,
                cfg.memBanks, cfg.dataWords, cfg.numAddrRegs);
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[key];
  if (!slot)
    slot = std::make_shared<const RuleSet>(rulesFor(tdspDesc(), cfg));
  return slot;
}

}  // namespace

std::string CodegenOptions::fingerprint() const {
  // Every field that can change the pipeline's behaviour, in declaration
  // order. Extending CodegenOptions requires extending this encoding; the
  // server tests assert distinctness for each toggle.
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "c%d;rb%d;fc%d;at%d;us%d;alc%d;ut%d;ap%d;cm%d;mo%d;mb%d;lt%d;"
                "ph%d;ie%d;ml%d;ps%d;cr%d;st%d",
                static_cast<int>(cost), rewriteBudget, foldConstants,
                atomizeExprs, useStreams, arLoopCounters, unrollThreshold,
                accPromote, static_cast<int>(compaction), modeOpt, memBankOpt,
                loopTransforms, peephole, internExprs, memoLabels, pruneSearch,
                cacheRules, searchThreads);
  return buf;
}

RecordCompiler::RecordCompiler(TargetConfig cfg, CodegenOptions opt)
    : cfg_(std::move(cfg)),
      opt_(opt),
      rules_(opt.cacheRules ? cachedTdspRules(cfg_)
                            : std::make_shared<const RuleSet>(
                                  rulesFor(tdspDesc(), cfg_))) {}

RecordCompiler::RecordCompiler(RuleSet rules, CodegenOptions opt)
    : cfg_(rules.config),
      opt_(opt),
      rules_(std::make_shared<const RuleSet>(std::move(rules))) {}

CompileResult RecordCompiler::compile(const Program& prog) const {
  TraceContext* trace = opt_.trace;
  TraceSpan compileSpan(trace, "compile");
  try {
    if (!cfg_.hasSat && programUsesSat(prog.body))
      throw std::runtime_error(
          "program uses saturating arithmetic but target " + cfg_.describe() +
          " has no saturation mode");
    BankAssignment banks;
    const BankAssignment* banksPtr = nullptr;
    if (opt_.memBankOpt && cfg_.hasDualMul && cfg_.memBanks >= 2) {
      TraceSpan span(trace, "membank");
      banks = assignBanks(collectMulPairs(prog));
      banksPtr = &banks;
      if (trace) {
        trace->remark("membank", banks.str());
        trace->add("membank.cut_weight", banks.cutWeight);
        trace->add("membank.total_weight", banks.totalWeight);
      }
    }
    if (opt_.internExprs && !fast_) fast_ = std::make_shared<FastPathState>();
    Emitter em(cfg_, opt_, *rules_, prog, banksPtr,
               opt_.internExprs ? fast_.get() : nullptr);
    return em.run();
  } catch (const std::exception& e) {
    // Capability rejections (unsupported saturation, inexpressible wide
    // intermediates, no cover) surface in the remark stream too, so a trace
    // artifact explains *why* a target/program pair failed.
    if (trace) trace->remark("reject", e.what());
    throw;
  }
}

}  // namespace record

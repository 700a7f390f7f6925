#include "isel/burs.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace record {

BursMatcher::BursMatcher(const RuleSet& rules, CostKind costKind)
    : rules_(rules), index_(rules.index()), costKind_(costKind) {}

void BursMatcher::setTrace(TraceContext* trace, const std::string* loc) {
  trace_ = trace;
  traceLoc_ = loc;
}

void BursMatcher::LabelMemo::newEpoch() {
  states.clear();
  if (++epoch == 0) {  // wrapped: no stale stamp may match
    std::fill(index.begin(), index.end(), Slot{});
    epoch = 1;
  }
}

void BursMatcher::enableMemo(LabelMemo* memo) {
  memo_ = memo;
  states_.clear();
  if (memo_) memo_->newEpoch();
  memoSig_ = ~0ull;
}

void BursMatcher::beginLabeling(OperandBinder& binder) {
  if (memo_) {
    uint64_t sig = binder.stateSignature();
    if (sig != memoSig_) {
      memo_->newEpoch();
      memoSig_ = sig;
    }
  } else {
    states_.clear();
  }
}

const BursMatcher::NodeState* BursMatcher::findState(const Expr* e) const {
  if (memo_) {
    assert(e->internOwner && "the label memo needs canonical nodes");
    const uint32_t id = e->internId;
    const auto& index = memo_->index;
    if (id >= index.size() || index[id].epoch != memo_->epoch) return nullptr;
    return &memo_->states[index[id].slot];
  }
  auto it = states_.find(e);
  return it == states_.end() ? nullptr : &it->second;
}

const BursMatcher::NodeState* BursMatcher::storeState(const Expr* e,
                                                      const NodeState& st) {
  if (!memo_) return &states_.emplace(e, st).first->second;
  const uint32_t id = e->internId;
  auto& index = memo_->index;
  if (id >= index.size())  // grow geometrically: IDs arrive ascending
    index.resize(std::max<size_t>({id + 1, 2 * index.size(), 512}));
  index[id] = {memo_->epoch, static_cast<uint32_t>(memo_->states.size())};
  memo_->states.push_back(st);
  return &memo_->states.back();
}

int BursMatcher::subtreeMin(const Expr* e) const {
  // Constant nodes can be absorbed by ConstLeaf pattern positions at no
  // cost, so they never contribute to a lower bound.
  if (e->op == Op::Const) return 0;
  const NodeState* st = findState(e);
  assert(st && "subtreeMin of an unlabeled node");
  int best = kInfCost;
  for (const Choice& c : st->nt)
    if (c.kind != Choice::Kind::None) best = std::min(best, c.cost);
  return best;
}

bool BursMatcher::matchPattern(const PatNode& pat, const ExprPtr& e,
                               int& cost) {
  switch (pat.kind) {
    case PatNode::Kind::ConstLeaf:
      return e->op == Op::Const && e->value == pat.cval;
    case PatNode::Kind::NtLeaf: {
      // Pattern leaves are strict descendants of the node being labeled,
      // already labeled by the post-order walk -- this lookup cannot abort.
      const NodeState* st = label(e, *binder_);
      if (!st) return false;
      const Choice& c = st->nt[static_cast<int>(pat.nt)];
      if (c.kind == Choice::Kind::None) return false;
      cost += c.cost;
      return true;
    }
    case PatNode::Kind::OpNode: {
      if (e->op != pat.op) return false;
      if (e->kids.size() != pat.kids.size()) return false;
      for (size_t i = 0; i < pat.kids.size(); ++i)
        if (!matchPattern(pat.kids[i], e->kids[i], cost)) return false;
      return true;
    }
  }
  return false;
}

const BursMatcher::NodeState* BursMatcher::label(const ExprPtr& e,
                                                 OperandBinder& binder) {
  if (const NodeState* known = findState(e.get())) {
    if (memo_) ++memoHits_;
    return known;
  }
  if (memo_) ++memoMisses_;

  NodeState st;
  // 1. Leaf bindings from the binder (variables, array elements, constants).
  //    Queried before the kids: a leaf-bindable node admits covers that
  //    leave its subtree uncovered, which disables the kid-sum bound below.
  bool leafBindable = false;
  for (Nonterm nt : {Nonterm::Mem, Nonterm::Imm8, Nonterm::Imm16}) {
    if (auto c = binder.leafCost(*e, nt)) {
      Choice& ch = st.nt[static_cast<int>(nt)];
      if (*c < ch.cost) ch = {Choice::Kind::LeafBind, -1, *c};
      leafBindable = true;
    }
  }

  // Label children (post-order), accumulating a lower bound on this
  // subtree's cover cost: each kid is either a pattern leaf of some rule
  // (costing at least its own cheapest cover) or an interior node of a
  // rule rooted here (costing at least the sum of its kids' cheapest
  // covers, since pattern depth <= 2 makes the grandkids pattern leaves).
  const bool bound = limit_ < kInfCost && !leafBindable;
  int partial = 0;
  for (const auto& k : e->kids) {
    if (!label(k, binder)) return nullptr;  // abort propagates up
    if (!bound) continue;
    int lb = subtreeMin(k.get());
    if (!k->kids.empty()) {
      int interior = 0;
      for (const auto& g : k->kids)
        interior = std::min(kInfCost, interior + subtreeMin(g.get()));
      lb = std::min(lb, interior);
    }
    partial += lb;
    if (partial > limit_) return nullptr;  // branch-and-bound prune
  }
  // 2. Structural rules. The memoized path iterates only the root-op bucket
  //    (same rules, same ascending order as the full scan -- see header).
  auto tryStructural = [&](size_t ri) {
    const Rule& r = rules_.rules[ri];
    int cost = ruleCost(r);
    // Pattern leaves always map to strict descendants of `e`, which are
    // already labeled, so matching needs no state for `e` itself.
    if (!matchPattern(r.pat, e, cost)) return;
    Choice& ch = st.nt[static_cast<int>(r.lhs)];
    if (cost < ch.cost) ch = {Choice::Kind::Rule, static_cast<int>(ri), cost};
  };
  if (memo_) {
    for (int ri : index_.byOp[static_cast<size_t>(e->op)])
      tryStructural(static_cast<size_t>(ri));
  } else {
    for (size_t ri = 0; ri < rules_.rules.size(); ++ri) {
      if (rules_.rules[ri].pat.kind == PatNode::Kind::NtLeaf)
        continue;  // chain rules handled in closure below
      tryStructural(ri);
    }
  }
  // 3. Chain-rule closure to fixpoint.
  auto closeChains = [&](auto&& forEachChain) {
    bool changed = true;
    while (changed) {
      changed = false;
      forEachChain([&](size_t ri) {
        const Rule& r = rules_.rules[ri];
        const Choice& src = st.nt[static_cast<int>(r.pat.nt)];
        if (src.kind == Choice::Kind::None) return;
        int cost = src.cost + ruleCost(r);
        Choice& dst = st.nt[static_cast<int>(r.lhs)];
        if (cost < dst.cost) {
          dst = {Choice::Kind::Rule, static_cast<int>(ri), cost};
          changed = true;
        }
      });
    }
  };
  if (memo_) {
    closeChains([&](auto&& apply) {
      for (int ri : index_.chain) apply(static_cast<size_t>(ri));
    });
  } else {
    closeChains([&](auto&& apply) {
      for (size_t ri = 0; ri < rules_.rules.size(); ++ri)
        if (rules_.rules[ri].pat.kind == PatNode::Kind::NtLeaf) apply(ri);
    });
  }
  return storeState(e.get(), st);
}

std::optional<int> BursMatcher::matchCost(const ExprPtr& tree, Nonterm goal,
                                          OperandBinder& binder) {
  return matchCostBounded(tree, goal, binder, kInfCost).cost;
}

MatchOutcome BursMatcher::matchCostBounded(const ExprPtr& tree, Nonterm goal,
                                           OperandBinder& binder, int limit) {
  beginLabeling(binder);
  binder_ = &binder;
  limit_ = index_.boundable ? limit : kInfCost;
  const NodeState* st = label(tree, binder);
  limit_ = kInfCost;
  binder_ = nullptr;
  if (!st) return {std::nullopt, true};
  const Choice& c = st->nt[static_cast<int>(goal)];
  if (c.kind == Choice::Kind::None) return {std::nullopt, false};
  return {c.cost, false};
}

namespace {

/// Visits the nonterminal leaves of a structural match of `pat` at `e`
/// (preorder, left to right) with the expression node each one covers.
template <class F>
void forEachLeaf(const PatNode& pat, const ExprPtr& e, F&& f) {
  if (pat.kind == PatNode::Kind::NtLeaf) {
    f(pat, e);
  } else if (pat.kind == PatNode::Kind::OpNode) {
    for (size_t i = 0; i < pat.kids.size(); ++i)
      forEachLeaf(pat.kids[i], e->kids[i], f);
  }
}

}  // namespace

Operand BursMatcher::reduceTo(const ExprPtr& e, Nonterm nt,
                              OperandBinder& binder, std::vector<Instr>& out,
                              int& patterns, bool isStoreDest) {
  const NodeState* st = findState(e.get());
  assert(st && "reducing an unlabeled node");
  const Choice c = st->nt[static_cast<int>(nt)];
  assert(c.kind != Choice::Kind::None && "reducing an uncovered node");

  if (c.kind == Choice::Kind::LeafBind)
    return binder.bind(*e, nt, out, isStoreDest);

  const Rule& r = rules_.rules[static_cast<size_t>(c.rule)];
  ++patterns;
  if (trace_) {
    std::string node = e->str();
    if (node.size() > 48) node.replace(45, node.size() - 45, "...");
    trace_->remark("isel.rule", "fired '" + r.name + "' on " + node,
                   traceLoc_ ? *traceLoc_ : std::string());
  }

  // This rule's operand slots: a frame on the matcher's slot stack. Nested
  // reductions push frames above it (and may move the buffer), so slots
  // are addressed by index.
  const size_t frame = slotStack_.size();
  slotStack_.resize(frame + static_cast<size_t>(index_.maxSlots));
  auto slot = [&](int k) -> Operand& {
    assert(k >= 0 && k < index_.maxSlots);
    return slotStack_[frame + static_cast<size_t>(k)];
  };

  // Reduce all Mem/Imm leaves first (their results are stable memory or
  // immediate operands), then the Acc leaf. See header comment.
  forEachLeaf(r.pat, e, [&](const PatNode& p, const ExprPtr& sub) {
    if (p.nt == Nonterm::Acc) return;
    // The first child of a Store pattern is the write destination.
    bool dest = r.pat.kind == PatNode::Kind::OpNode &&
                r.pat.op == Op::Store && !r.pat.kids.empty() &&
                &p == &r.pat.kids[0];
    Operand o = reduceTo(sub, p.nt, binder, out, patterns, dest);
    if (p.slot >= 0) slot(p.slot) = o;
  });
  forEachLeaf(r.pat, e, [&](const PatNode& p, const ExprPtr& sub) {
    if (p.nt == Nonterm::Acc)
      reduceTo(sub, Nonterm::Acc, binder, out, patterns);
  });

  // Emit the rule's instructions.
  int tempAddr = -1;
  for (const auto& tmpl : r.emit) {
    Instr in;
    in.op = tmpl.op;
    in.need = r.mode;
    auto materialize = [&](const OperTemplate& ot) -> Operand {
      switch (ot.kind) {
        case OperTemplate::Kind::None:
          return Operand::none();
        case OperTemplate::Kind::Slot:
          return slot(ot.slot);
        case OperTemplate::Kind::FixedImm:
          return Operand::imm(ot.imm);
        case OperTemplate::Kind::Temp:
          if (tempAddr < 0) tempAddr = binder.allocTemp();
          return Operand::direct(tempAddr);
      }
      return Operand::none();
    };
    in.a = materialize(tmpl.a);
    in.b = materialize(tmpl.b);
    out.push_back(std::move(in));
  }

  // The operand representing this node's value as `nt` (none for Acc and
  // Stmt). A chain like imm->mem without a temp template would be a
  // grammar bug.
  Operand result = Operand::none();
  const bool slotChain = r.isChain() && r.pat.slot >= 0;
  if (nt == Nonterm::Mem && tempAddr >= 0)
    result = Operand::direct(tempAddr);
  else if ((nt == Nonterm::Mem || nt == Nonterm::Imm8 ||
            nt == Nonterm::Imm16) &&
           slotChain)
    result = slot(r.pat.slot);
  slotStack_.resize(frame);
  return result;
}

CoverResult BursMatcher::reduce(const ExprPtr& tree, Nonterm goal,
                                OperandBinder& binder) {
  std::vector<Instr> code;
  CoverResult res = reduce(tree, goal, binder, code);
  res.code = std::move(code);
  return res;
}

CoverResult BursMatcher::reduce(const ExprPtr& tree, Nonterm goal,
                                OperandBinder& binder,
                                std::vector<Instr>& out) {
  CoverResult res;
  beginLabeling(binder);
  binder_ = &binder;
  const NodeState* stp = label(tree, binder);
  assert(stp && "unbounded labeling cannot abort");
  const NodeState& st = *stp;
  const Choice& c = st.nt[static_cast<int>(goal)];
  if (c.kind == Choice::Kind::None) {
    binder_ = nullptr;
    return res;
  }
  res.cost = c.cost;
  slotStack_.clear();  // a reduction that threw may have left frames
  reduceTo(tree, goal, binder, out, res.patternsUsed);
  binder_ = nullptr;
  res.ok = true;
  return res;
}

}  // namespace record

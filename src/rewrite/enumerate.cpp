#include "rewrite/enumerate.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "ir/interner.h"

namespace record {

namespace {

bool isPowerOfTwo(int64_t v) { return v > 1 && (v & (v - 1)) == 0; }

int log2i(int64_t v) {
  int k = 0;
  while ((1LL << k) < v) ++k;
  return k;
}

ExprPtr rebuildWithKid(const ExprPtr& e, size_t idx, ExprPtr kid) {
  ExprKids kids = e->kids;
  kids[idx] = std::move(kid);
  return Expr::withKids(*e, std::move(kids));
}

/// The same rebuild from canonical parts, probed in the interner: fields
/// exactly as the Expr factories above set them.
const Expr* rebuildWithKid(ExprInterner& in, const Expr& e, size_t idx,
                           const Expr* kid) {
  const Expr* kids[2] = {e.kids[0].get(),
                         e.kids.size() > 1 ? e.kids[1].get() : nullptr};
  kids[idx] = kid;
  if (e.op == Op::ArrayRef)
    return in.make(Op::ArrayRef, e.sym->type, 0, e.sym, {kids[0]});
  if (e.kids.size() == 1)
    return in.make(e.op, kids[0]->type, 0, nullptr, {kids[0]});
  return in.make(e.op, kids[0]->type, 0, nullptr, {kids[0], kids[1]});
}

/// How rewriteTopWith builds the trees it returns: fresh heap nodes (the
/// public rewriteTop, the uncached enumeration) or canonical nodes probed
/// in an interner (the cached enumeration, which allocates only when a
/// shape is new). Both set the fields the Expr factories set.
struct FreshNodes {
  ExprPtr kid(const ExprPtr& k) const { return k; }
  ExprPtr constant(int64_t v, Type t) const { return Expr::constant(v, t); }
  ExprPtr binary(Op op, ExprPtr a, ExprPtr b) const {
    return Expr::binary(op, std::move(a), std::move(b));
  }
};

struct CanonicalNodes {
  ExprInterner& in;
  const Expr* kid(const ExprPtr& k) const { return k.get(); }
  const Expr* constant(int64_t v, Type t) const {
    return in.make(Op::Const, t, v, nullptr);
  }
  const Expr* binary(Op op, const Expr* a, const Expr* b) const {
    return in.make(op, a->type, 0, nullptr, {a, b});
  }
};

/// Is the value of `e` provably in int16 range (so wrap16(e) == e)? Storage
/// reads are sign-extended 16-bit words. Note And does NOT qualify: its
/// result ranges over [0, 65535] (the mask zero-extends), and 0x8000..0xffff
/// change value under wrap16. Needed to guard rewrites that silently insert
/// or remove a pass through the 16-bit multiplier port: Mul(a, 1) -> a is
/// only sound when a already fits.
bool fitsInt16(const ExprPtr& e) {
  switch (e->op) {
    case Op::Ref:
    case Op::ArrayRef:
      return true;
    case Op::Const:
      return e->value >= -32768 && e->value <= 32767;
    default:
      return false;
  }
}

/// Single-step rewrites of the top node of `e`, each passed to `emit` in
/// rule order, built through `b` (FreshNodes or CanonicalNodes).
template <class Nodes, class Emit>
void rewriteTopWith(const Expr& e, const Nodes& b, Emit&& emit) {
  if (opArity(e.op) == 0) return;
  const auto& k = e.kids;

  // Commutativity.
  if (opCommutes(e.op) && k.size() == 2)
    emit(b.binary(e.op, b.kid(k[1]), b.kid(k[0])));

  // Associativity. Add only: it is exact mod 2^32. Mul is NOT associative
  // under the 16x16 semantics -- x*(y*z) wraps the inner product to 16 bits
  // where (x*y)*z wraps a different one (x=y=256, z=1: 0 vs 65536) -- so it
  // gets no associativity rewrite at all.
  if (e.op == Op::Add && k.size() == 2) {
    if (k[0]->op == e.op)  // (a op b) op c -> a op (b op c)
      emit(b.binary(e.op, b.kid(k[0]->kids[0]),
                    b.binary(e.op, b.kid(k[0]->kids[1]), b.kid(k[1]))));
    if (k[1]->op == e.op)  // a op (b op c) -> (a op b) op c
      emit(b.binary(e.op, b.binary(e.op, b.kid(k[0]), b.kid(k[1]->kids[0])),
                    b.kid(k[1]->kids[1])));
  }

  // Neutral / zero elements.
  if (e.op == Op::Add || e.op == Op::Sub) {
    if (k[1]->isConstValue(0)) emit(b.kid(k[0]));
  }
  if (e.op == Op::Mul) {
    // Mul wraps its operands to 16 bits, so dropping the multiply must not
    // drop that wrap: only operands already in int16 range may pass through.
    if (k[1]->isConstValue(1) && fitsInt16(k[0])) emit(b.kid(k[0]));
    if (k[0]->isConstValue(1) && fitsInt16(k[1])) emit(b.kid(k[1]));
    if (k[0]->isConstValue(0) || k[1]->isConstValue(0))
      emit(b.constant(0, e.type));
  }
  if (e.op == Op::Shl && k[1]->isConstValue(0)) emit(b.kid(k[0]));
  if ((e.op == Op::Or || e.op == Op::Xor) && k[1]->isConstValue(0))
    emit(b.kid(k[0]));

  // Double negation.
  if (e.op == Op::Neg && k[0]->op == Op::Neg)
    emit(b.kid(k[0]->kids[0]));

  // a + (-b) = a - b and friends.
  if (e.op == Op::Add && k[1]->op == Op::Neg)
    emit(b.binary(Op::Sub, b.kid(k[0]), b.kid(k[1]->kids[0])));
  if (e.op == Op::Sub && k[1]->op == Op::Neg)
    emit(b.binary(Op::Add, b.kid(k[0]), b.kid(k[1]->kids[0])));

  // Strength exchange: a * 2^k <-> a << k. Shl shifts the full 32-bit
  // value where Mul first wraps `a` to 16 bits, so the exchange is exact
  // only when `a` provably fits int16 (and, for Shl -> Mul, when 2^k does).
  if (e.op == Op::Mul && k[1]->op == Op::Const &&
      isPowerOfTwo(k[1]->value) && fitsInt16(k[0])) {
    emit(b.binary(Op::Shl, b.kid(k[0]),
                  b.constant(log2i(k[1]->value), Type::Int)));
  }
  if (e.op == Op::Shl && k[1]->op == Op::Const && k[1]->value >= 1 &&
      k[1]->value <= 14 && fitsInt16(k[0])) {
    emit(b.binary(Op::Mul, b.kid(k[0]),
                  b.constant(1LL << k[1]->value, e.type)));
  }

  // NOTE: the factoring rewrite a*c + b*c -> (a+b)*c that used to live here
  // was a miscompile (found by difftest): a+b can wrap through the 16-bit
  // multiplier port even when a and b individually fit, so the factored
  // product differs from the sum of products by a multiple of c << 16.
}

}  // namespace

std::vector<ExprPtr> rewriteTop(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  rewriteTopWith(*e, FreshNodes{},
                 [&](ExprPtr n) { out.push_back(std::move(n)); });
  return out;
}

namespace {

using Span = RewriteCache::Span;

/// Makes `v` (indexed by intern ID) cover `id`. New nodes get ascending
/// IDs, so growth is geometric rather than one node at a time.
template <class T>
void cover(std::vector<T>& v, uint32_t id) {
  if (id >= v.size())
    v.resize(std::max<size_t>({id + 1, 2 * v.size(), 512}));
}

/// Canonical single-step neighbors of a canonical node, memoized as a run
/// of `cache.neighborIds`. The list is rewriteTop's results followed by
/// per-kid expansions in kid order -- exactly the order the uncached
/// recursion produces, so enumeration order (and therefore every downstream
/// tie-break) is unchanged. Rebuilt spines are made from canonical parts,
/// so a spine seen before costs one interner probe and no allocation.
Span cachedNeighbors(const Expr& e, RewriteCache& cache) {
  const uint32_t id = e.internId;
  if (id < cache.neighbors.size() &&
      cache.neighbors[id].begin != RewriteCache::kUnset)
    return cache.neighbors[id];
  // Kids first: their runs are then complete, and this node's run is
  // appended to the pool in one piece. Kids of a canonical node are
  // canonical.
  Span kidRuns[2];
  for (size_t i = 0; i < e.kids.size(); ++i)
    kidRuns[i] = cachedNeighbors(*e.kids[i], cache);

  ExprInterner& in = *cache.interner;
  std::vector<uint32_t>& pool = cache.neighborIds;
  const auto begin = static_cast<uint32_t>(pool.size());
  rewriteTopWith(e, CanonicalNodes{in},
                 [&](const Expr* n) { pool.push_back(n->internId); });
  for (size_t i = 0; i < e.kids.size(); ++i) {
    for (uint32_t j = kidRuns[i].begin; j < kidRuns[i].end; ++j) {
      const Expr* sub = in.node(pool[j]).get();
      pool.push_back(rebuildWithKid(in, e, i, sub)->internId);
    }
  }
  cover(cache.neighbors, id);
  return cache.neighbors[id] = {begin, static_cast<uint32_t>(pool.size())};
}

/// enumerateVariants with a RewriteCache: the same BFS over ID runs, its
/// result kept per root ID.
std::vector<ExprPtr> cachedVariants(const ExprPtr& root, int budget,
                                    RewriteCache& cache) {
  ExprInterner& in = *cache.interner;
  const uint32_t rootId = in.intern(root)->internId;
  if (cache.variantBudget != budget) {
    cache.variants.clear();
    cache.variantIds.clear();
    cache.variantBudget = budget;
  }
  std::vector<uint32_t>& ids = cache.variantIds;
  auto result = [&](Span run) {
    std::vector<ExprPtr> out;
    out.reserve(run.end - run.begin);
    for (uint32_t j = run.begin; j < run.end; ++j)
      out.push_back(in.node(ids[j]));
    return out;
  };
  if (rootId < cache.variants.size() &&
      cache.variants[rootId].begin != RewriteCache::kUnset) {
    ++cache.variantHits;
    return result(cache.variants[rootId]);
  }
  ++cache.variantMisses;
  if (budget <= 1) return {in.node(rootId)};

  if (++cache.seenEpoch == 0) {  // wrapped: no stale stamp may match
    std::fill(cache.seen.begin(), cache.seen.end(), 0);
    cache.seenEpoch = 1;
  }
  auto seenBefore = [&](uint32_t id) {
    cover(cache.seen, id);
    if (cache.seen[id] == cache.seenEpoch) return true;
    cache.seen[id] = cache.seenEpoch;
    return false;
  };

  // Breadth-first: the frontier is the result run itself, expanded in the
  // order its variants were found.
  const auto begin = static_cast<uint32_t>(ids.size());
  const auto limit = static_cast<size_t>(budget);
  ids.push_back(rootId);
  seenBefore(rootId);
  for (size_t head = begin; head < ids.size() && ids.size() - begin < limit;
       ++head) {
    const Span nb = cachedNeighbors(*in.node(ids[head]), cache);
    for (uint32_t j = nb.begin; j < nb.end; ++j) {
      const uint32_t id = cache.neighborIds[j];
      if (seenBefore(id)) continue;
      ids.push_back(id);
      if (ids.size() - begin >= limit) break;
    }
  }
  cover(cache.variants, rootId);
  const Span run{begin, static_cast<uint32_t>(ids.size())};
  cache.variants[rootId] = run;
  return result(run);
}

}  // namespace

std::vector<ExprPtr> enumerateVariants(const ExprPtr& root, int budget,
                                       ExprInterner* interner,
                                       RewriteCache* cache) {
  if (cache) return cachedVariants(root, budget, *cache);
  ExprPtr start = interner ? interner->intern(root) : root;
  std::vector<ExprPtr> result{start};
  if (budget <= 1) return result;

  // Dedup: canonical-pointer identity with an interner (exact), structural
  // hash without (collisions possible but astronomically unlikely).
  std::unordered_set<uint64_t> seen;
  auto dedup = [&](ExprPtr& e) {  // true when already enumerated
    if (interner) {
      e = interner->intern(e);
      return !seen.insert(reinterpret_cast<uintptr_t>(e.get())).second;
    }
    return !seen.insert(e->hash()).second;
  };
  {
    ExprPtr r = start;
    dedup(r);
  }

  // All single-node rewrites applied anywhere in a tree.
  // (Recursive expansion: for tree e, rewrite the top, or rewrite inside a
  // child and rebuild.)
  std::function<std::vector<ExprPtr>(const ExprPtr&)> neighbors =
      [&](const ExprPtr& e) {
        std::vector<ExprPtr> out = rewriteTop(e);
        for (size_t i = 0; i < e->kids.size(); ++i) {
          for (auto& sub : neighbors(e->kids[i]))
            out.push_back(rebuildWithKid(e, i, std::move(sub)));
        }
        return out;
      };

  // Breadth-first: the frontier is `result` itself, expanded in the order
  // its variants were found.
  for (size_t head = 0; head < result.size() &&
                        static_cast<int>(result.size()) < budget;
       ++head) {
    // neighbors() returns before `result` grows, so the reference is safe.
    for (auto& nb : neighbors(result[head])) {
      if (dedup(nb)) continue;
      result.push_back(std::move(nb));
      if (static_cast<int>(result.size()) >= budget) break;
    }
  }
  return result;
}

}  // namespace record

// Algebraic transformation of data-flow trees (§4.3.3): "RECORD uses
// algebraic rules for transforming the original data flow tree into
// equivalent ones and calls the iburg-matcher with each tree. The tree
// requiring the smallest number of covering patterns is then selected."
//
// Rules applied at every node (all exactly value-preserving under the
// 32-bit wrap-around semantics of the IR):
//   commutativity           a+b = b+a, a*b = b*a (also saturating add)
//   associativity           (a+b)+c = a+(b+c), same for mul
//                            -- NOT applied to saturating ops, which are
//                               not associative
//   neutral elements        a+0 = a, a*1 = a, a-0 = a, a<<0 = a
//   zero element            a*0 = 0
//   double negation         -(-a) = a
//   add of negation         a+(-b) = a-b,  a-(-b) = a+b
//   strength exchange       a*2^k = a<<k and a<<k = a*2^k (both ways: which
//                           is cheaper depends on the target's MAC)
//   factoring               a*c + b*c = (a+b)*c  (wrap-exact)
//
// Deliberately ABSENT: constant folding -- the paper notes RECORD "does not
// contain any standard optimization technique (such as constant folding)".
//
// Enumeration is breadth-first with deduplication up to a variant budget:
// exact (hash-consed pointer identity) when an ExprInterner is supplied,
// structural-hash otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/expr.h"

namespace record {

class ExprInterner;

/// Memoized rewrite results, indexed by the interner's dense node IDs.
/// Rewriting is purely structural, so the neighbors of a canonical subtree
/// are the same wherever it appears -- across variants, statements, and
/// compiles. The cache must not outlive its interner (ID keys).
struct RewriteCache {
  explicit RewriteCache(ExprInterner& in) : interner(&in) {}
  ExprInterner* interner;

  /// A run [begin, end) of one of the ID pools below; begin == kUnset marks
  /// an entry not computed yet.
  static constexpr uint32_t kUnset = ~0u;
  struct Span {
    uint32_t begin = kUnset;
    uint32_t end = 0;
  };

  /// Node ID -> its canonical single-step rewrites, in rule order, as a
  /// run of `neighborIds`.
  std::vector<Span> neighbors;
  std::vector<uint32_t> neighborIds;
  /// Root ID -> full enumerateVariants result at `variantBudget`, as a run
  /// of `variantIds`. The whole BFS is a pure function of (root, budget),
  /// so a repeat root -- every statement after the first compile of a
  /// program -- skips enumeration entirely. Invalidated when the budget
  /// changes.
  int variantBudget = -1;
  std::vector<Span> variants;
  std::vector<uint32_t> variantIds;
  /// BFS dedup: seen[id] == seenEpoch marks a node already enumerated by
  /// the current call, so starting a call costs O(1).
  std::vector<uint32_t> seen;
  uint32_t seenEpoch = 0;

  /// Observability: whole-enumeration cache hits/misses (enumeration is
  /// single-threaded, so plain ints). Read by the trace layer; never
  /// consulted by the compiler itself.
  int64_t variantHits = 0;
  int64_t variantMisses = 0;
};

/// All trees reachable from `root` (including `root` itself, always at
/// index 0), up to `budget` distinct variants. budget <= 1 returns {root}.
/// With `interner`, every returned tree is canonical (hash-consed): shared
/// subtrees across variants are pointer-identical, duplicate detection is
/// exact, and the trees stay alive as long as the interner does. With
/// `cache` (which carries its own interner), per-subtree neighbor lists are
/// additionally reused across calls and rebuilt spines are made directly
/// from canonical kids; the enumeration order is identical in all three
/// modes.
std::vector<ExprPtr> enumerateVariants(const ExprPtr& root, int budget,
                                       ExprInterner* interner = nullptr,
                                       RewriteCache* cache = nullptr);

/// Single-step rewrites of the top node only (building block; exposed for
/// tests).
std::vector<ExprPtr> rewriteTop(const ExprPtr& e);

}  // namespace record

// Hash-consing arena for expression trees.
//
// The rewrite engine enumerates up to `rewriteBudget` algebraic variants of
// every statement, and those variants share almost all of their subtrees --
// each rewrite step rebuilds only one spine. Interning maps every
// structurally distinct subtree to one canonical node, so
//
//   * structural equality becomes pointer equality (O(1), no collision
//     risk, unlike the raw 64-bit structural hashes it replaces),
//   * every node gets a small dense ID (intern order), and
//   * downstream per-subtree caches (the BURS label memo, the rewrite
//     neighbor and variant caches) index flat vectors by that ID and hit
//     across variants, statements, and whole compiles.
//
// The interner allocates every canonical node itself and owns a shared_ptr
// to each, so canonical nodes -- and IDs -- stay valid for the interner's
// whole lifetime. It never adopts a caller's node: a tree handed to
// intern() is left untouched, so trees shared between interners (or
// threads) are never written to, and a canonical node's tag always names
// the interner that built it.
//
// Canonical nodes come from a bump arena (std::allocate_shared with an
// arena allocator): a new shape costs a pointer bump, not a malloc. Every
// node's control block holds a reference to the arena, so a canonical node
// may still outlive its interner -- the arena's memory is released when the
// last node built from it dies.
//
// Canonical nodes are tagged in place (Expr::internOwner/internId), so
// re-interning a canonical node -- the common case when interning a
// rewrite neighbor whose subtrees are already canonical -- is a single
// pointer compare. Everything else is one probe of an open-addressed table
// of node IDs; make() builds a node from canonical kids with no allocation
// unless the shape is new.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "ir/expr.h"

namespace record {

class NodeArena;

class ExprInterner {
 public:
  ExprInterner();
  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;

  /// Clears the in-place tags so a later interner at the same address can
  /// never mistake surviving nodes for its own.
  ~ExprInterner();

  /// Canonical node for `e`: recursively interns the kids, then returns the
  /// unique representative of the (op, value, sym, type, kids) shape.
  /// Idempotent; interning an already-canonical tree is O(1).
  ExprPtr intern(const ExprPtr& e);

  /// Canonical node of the shape (op, type, value, sym, kids), where every
  /// kid is already canonical in this interner. Probes before it
  /// allocates: a shape seen before costs one table probe and no heap
  /// traffic. The node lives as long as the interner.
  const Expr* make(Op op, Type type, int64_t value, const Symbol* sym,
                   std::initializer_list<const Expr*> kids = {});

  /// Owning handle of canonical node `id`.
  const ExprPtr& node(uint32_t id) const { return nodes_[id]; }

  /// Dense ID of a canonical node, in intern order. Only valid for nodes
  /// returned by intern() or make().
  uint32_t idOf(const Expr* e) const { return e->internId; }

  bool isInterned(const Expr* e) const { return e->internOwner == this; }

  /// Number of distinct nodes interned.
  size_t size() const { return nodes_.size(); }

  /// How many construction requests -- intern() node visits and make()
  /// calls -- found an existing representative: the sharing the arena
  /// actually discovered.
  int64_t hits() const { return hits_; }

 private:
  const Expr* canonical(const Expr& e);
  const Expr* lookupOrAdd(Op op, Type type, int64_t value,
                          const Symbol* sym, const Expr* const* kids,
                          size_t numKids);
  static uint32_t shapeHash(Op op, Type type, int64_t value,
                            const Symbol* sym, const Expr* const* kids,
                            size_t numKids);

  // Open-addressed (linear probing) table of node IDs; kEmpty marks a free
  // slot. Kept at most half full; its size is a power of two. Each slot
  // keeps its node's shape hash: it indexes the slot on a rehash and
  // skips most field compares on a probe.
  static constexpr uint32_t kEmpty = ~0u;
  struct Slot {
    uint32_t id = kEmpty;
    uint32_t hash = 0;
  };
  void insertSlot(Slot s);
  std::shared_ptr<NodeArena> arena_;  // where canonical nodes are built
  std::vector<Slot> table_;
  std::vector<ExprPtr> nodes_;  // keeps every canonical node alive
  int64_t hits_ = 0;
};

}  // namespace record

// Data-flow expression trees. RECORD-style code generation covers these trees
// with instruction patterns (Figs. 4/5 of the paper), and the rewrite engine
// enumerates algebraically equivalent trees before matching (§4.3.3).
//
// Nodes are immutable and shared (ExprPtr = shared_ptr<const Expr>), so
// rewriting builds new trees cheaply and structural hashing can deduplicate
// the enumeration frontier. No operator takes more than two operands, so a
// node keeps its kids inline: an Expr is 64 bytes, and building one is a
// single allocation together with its shared_ptr control block.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "ir/symbol.h"
#include "ir/type.h"

namespace record {

enum class Op : uint8_t {
  Const,     // integer literal (value)
  Ref,       // scalar read: sym, with optional delay (x@k, value = k)
  ArrayRef,  // array read: sym, kid[0] = index expression
  Add,       // wrap-around 2's-complement add
  Sub,
  Mul,       // hardware-exact 16x16 multiplier: BOTH operands are wrapped
             // to 16 bits (they pass through T / the memory port), the
             // product keeps accumulator (32-bit) precision. mul16() in
             // ir/type.h is the single definition.
  Neg,
  SatAdd,    // saturating add (OVM=1 semantics)
  SatSub,
  Shl,       // shift left,  kid[1] must be Const
  Shr,       // arithmetic shift right (SXM=1), kid[1] must be Const
  Shru,      // logical shift right (SXM=0), kid[1] must be Const
  // Bitwise ops with hardware-exact semantics: the right operand is a
  // 16-bit memory word (zero-extended); AND therefore also clears the
  // accumulator's high half. And(a,b) = a & b & 0xffff (symmetric);
  // Or/Xor(a,b) = a |^ (b & 0xffff) (left operand keeps its high half).
  And,
  Or,
  Xor,
  Store,     // pattern-tree only (ISD / ISE): kid[0] = dest, kid[1] = value
};

const char* opName(Op op);
int opArity(Op op);          // number of children (Ref: 0, ArrayRef: 1, ...)
bool opCommutes(Op op);      // Add, Mul, SatAdd
bool opIsLeaf(Op op);        // Const, Ref

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// The operands of a node: up to two non-null kids, stored inline. Filled
/// in order, so the count is the number of leading non-null slots.
class ExprKids {
 public:
  size_t size() const { return k_[1] ? 2 : k_[0] ? 1 : 0; }
  bool empty() const { return !k_[0]; }

  ExprPtr& operator[](size_t i) {
    assert(i < size());
    return k_[i];
  }
  const ExprPtr& operator[](size_t i) const {
    assert(i < size());
    return k_[i];
  }
  ExprPtr& back() { return k_[size() - 1]; }

  ExprPtr* begin() { return k_; }
  ExprPtr* end() { return k_ + size(); }
  const ExprPtr* begin() const { return k_; }
  const ExprPtr* end() const { return k_ + size(); }

  void push_back(ExprPtr k) {
    assert(k && !k_[1] && "an Expr has at most two non-null kids");
    k_[k_[0] ? 1 : 0] = std::move(k);
  }

 private:
  ExprPtr k_[2];
};

struct Expr {
  Op op = Op::Const;
  Type type = Type::Fix;
  // Hash-consing tag (see ir/interner.h): the interner that built this
  // canonical node (internOwner, below), and its dense ID there. Written
  // only by the interner; the ID-indexed caches (rewrite cache, BURS label
  // memo, node counts) read internId.
  mutable uint32_t internId = 0;
  int64_t value = 0;            // Const: literal; Ref: delay depth (x@value)
  const Symbol* sym = nullptr;  // Ref / ArrayRef
  ExprKids kids;
  mutable const void* internOwner = nullptr;

  // --- factories -----------------------------------------------------------
  static ExprPtr constant(int64_t v, Type t = Type::Fix);
  static ExprPtr ref(const Symbol* s, int delay = 0);
  static ExprPtr arrayRef(const Symbol* s, ExprPtr index);
  static ExprPtr unary(Op op, ExprPtr a);
  static ExprPtr binary(Op op, ExprPtr a, ExprPtr b);
  /// A node of `like`'s op (and sym) over `kids`, built by the factory
  /// above that fits: the one rebuild every tree pass shares.
  static ExprPtr withKids(const Expr& like, ExprKids kids);

  // --- structure -----------------------------------------------------------
  int numNodes() const;
  int depth() const;
  /// Structural hash over the interner's key (op, type, value, sym, kids),
  /// so hash dedup and interning agree; ignores shared-pointer identity.
  uint64_t hash() const;
  /// A canonical, parenthesized rendering, e.g. "(add (ref x) (mul ...))".
  std::string str() const;

  bool isConstValue(int64_t v) const { return op == Op::Const && value == v; }
};

/// Deep structural equality.
bool exprEquals(const Expr& a, const Expr& b);
inline bool exprEquals(const ExprPtr& a, const ExprPtr& b) {
  return exprEquals(*a, *b);
}

}  // namespace record

// Data-flow expression trees. RECORD-style code generation covers these trees
// with instruction patterns (Figs. 4/5 of the paper), and the rewrite engine
// enumerates algebraically equivalent trees before matching (§4.3.3).
//
// Nodes are immutable and shared (ExprPtr = shared_ptr<const Expr>), so
// rewriting builds new trees cheaply and structural hashing can deduplicate
// the enumeration frontier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

struct Expr {
  Op op = Op::Const;
  int64_t value = 0;            // Const: literal; Ref: delay depth (x@value)
  const Symbol* sym = nullptr;  // Ref / ArrayRef
  std::vector<ExprPtr> kids;

  Type type = Type::Fix;

  // Hash-consing tag (see ir/interner.h): the interner that built this
  // canonical node, and its dense ID there. Written only by the interner;
  // the ID-indexed caches (rewrite cache, BURS label memo) read internId.
  mutable const void* internOwner = nullptr;
  mutable uint32_t internId = 0;

  // --- factories -----------------------------------------------------------
  static ExprPtr constant(int64_t v, Type t = Type::Fix);
  static ExprPtr ref(const Symbol* s, int delay = 0);
  static ExprPtr arrayRef(const Symbol* s, ExprPtr index);
  static ExprPtr unary(Op op, ExprPtr a);
  static ExprPtr binary(Op op, ExprPtr a, ExprPtr b);

  // --- structure -----------------------------------------------------------
  int numNodes() const;
  int depth() const;
  /// Structural hash (ignores shared-pointer identity).
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

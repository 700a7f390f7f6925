// Statements and whole programs of the DFL subset after lowering.
//
// A program is a list of statements executed once per "tick" (sample).
// Delayed signals (x@k) carry state between ticks; everything else is
// recomputed. Loops have constant bounds (DFL / DSP-kernel style), which is
// what lets the code generators unroll or strength-reduce them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "ir/symbol.h"
#include "support/diag.h"

namespace record {

struct Stmt {
  enum class Kind : uint8_t { Assign, For };

  Kind kind = Kind::Assign;

  /// Source position this statement was lowered from (line/col only;
  /// `file` is left null so the location never dangles past the front
  /// end's DiagEngine). Used by optimization remarks; 0 = unknown.
  SourceLoc loc;

  // Kind::Assign -- lhs[lhsIndex] = rhs  (lhsIndex null for scalars)
  const Symbol* lhs = nullptr;
  ExprPtr lhsIndex;
  ExprPtr rhs;

  // Kind::For -- for ivar = lo .. hi step step { body }
  const Symbol* ivar = nullptr;
  int64_t lo = 0, hi = 0, step = 1;
  std::vector<Stmt> body;

  static Stmt assign(const Symbol* lhs, ExprPtr rhs, ExprPtr index = nullptr);
  static Stmt forLoop(const Symbol* ivar, int64_t lo, int64_t hi, int64_t step,
                      std::vector<Stmt> body);

  int64_t tripCount() const;  // For statements only
  std::string str(int indent = 0) const;
};

/// A complete lowered program.
struct Program {
  std::string name;
  SymbolTable symbols;
  std::vector<Stmt> body;

  std::string str() const;

  /// All symbols that occupy target data memory, in definition order.
  std::vector<const Symbol*> storageSymbols() const;
};

/// Replace every Ref of `ivar` in `e` with the constant `v`, folding
/// constant index arithmetic so array references become direct addresses.
ExprPtr substInduction(const ExprPtr& e, const Symbol* ivar, int64_t v);

/// Fully unroll all loops into a flat list of Assign statements.
/// Used by the interpreter-equivalence tests and by unrolling codegen paths.
std::vector<Stmt> flattenStmts(const std::vector<Stmt>& body);

/// Fold constant subexpressions (both children Const). Shared by the
/// baseline compiler's constant folding and by loop substitution.
ExprPtr foldConstants(const ExprPtr& e);

/// The folded value of operator `op` over constant operands (`b` ignored by
/// unary ops): the one definition foldConstants and the loop analyses share.
int64_t foldOp(Op op, int64_t a, int64_t b);

}  // namespace record

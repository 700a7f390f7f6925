// The codegen operand binder: connects BURS leaf nonterminals to the data
// layout. Handles direct scalars, delayed signals, constant-index array
// elements, pooled constants, AR-based loop streams, and dynamically indexed
// array accesses (through the reserved scratch address register).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "codegen/layout.h"
#include "isel/burs.h"
#include "regalloc/arfile.h"

namespace record {

/// How a loop stream binds: through which AR, and whether the access itself
/// post-modifies it (single-occurrence streams) or the loop epilogue steps
/// it explicitly.
struct StreamInfo {
  int ar = 0;
  PostMod post = PostMod::None;
};

class CodegenBinder : public OperandBinder {
 public:
  /// `ars` is consulted at bind time: dynamic indexing uses the reserved
  /// scratch register and must never run while that register is leased to
  /// a stream (the pipeline proves this statically; the binder enforces it).
  CodegenBinder(DataLayout& layout, const TargetConfig& cfg,
                const ArFile& ars);

  // -- configuration used by the pipeline ---------------------------------
  /// Register a synthetic symbol (loop counter var, legalization var)
  /// living at a scratch address.
  void addSyntheticAddr(const Symbol* s, int addr);
  void setStream(const Symbol* s, StreamInfo info);
  void clearStream(const Symbol* s);

  /// Statement-local temp recycling.
  void beginStatement();
  void endStatement();

  // -- OperandBinder -------------------------------------------------------
  std::optional<int> leafCost(const Expr& e, Nonterm nt) override;
  Operand bind(const Expr& e, Nonterm nt, std::vector<Instr>& out,
               bool isStoreDest) override;
  int allocTemp() override;
  void freeTemp(int addr) override;
  uint64_t stateSignature() const override { return sig_; }

  /// Resolve the base data address of any symbol (program or synthetic).
  int addrFor(const Symbol* s) const;

  /// Total allocTemp() calls over the binder's lifetime -- every spill
  /// through a memory temp (data routing + dynamic-index reads). Feeds the
  /// "binder.spill_temps" observability counter.
  int64_t tempAllocs() const { return tempAllocs_; }

 private:
  /// Emit scratch-AR setup for a dynamic array access; returns the indirect
  /// operand.
  Operand bindDynamic(const Expr& e, std::vector<Instr>& out);

  DataLayout& layout_;
  const TargetConfig& cfg_;
  const ArFile& ars_;
  std::map<const Symbol*, int> synthetic_;
  std::map<const Symbol*, StreamInfo> streams_;
  std::vector<int> stmtTemps_;
  /// Bumped whenever synthetic_/streams_ change; leafCost answers (and so
  /// the matcher's label memo) are valid only within one signature value.
  uint64_t sig_ = 0;
  int64_t tempAllocs_ = 0;
};

}  // namespace record

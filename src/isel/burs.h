// BURS-style instruction selection (Aho/Ganapathi/Tjiang dynamic programming
// over tree grammars, as popularized by iburg -- §4.3.3 of the paper).
//
// The matcher labels every node of a data-flow tree with the cheapest cost of
// producing each nonterminal (storage class), then the reducer walks the
// chosen cover emitting instructions. "Data routing" through the single
// accumulator falls out of the chain rules: `mem <- acc` spills through a
// fresh memory temp, `acc <- mem` reloads.
//
// Evaluation-order discipline (which makes covers with a single ACC/T/P
// always schedulable): for every matched rule, all Mem/Imm pattern leaves
// are reduced *before* the Acc leaf, and the rule's own instructions are
// emitted last. Mem-leaf reductions may freely clobber ACC because their
// results land in memory temps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"
#include "target/isd.h"

namespace record {

class TraceContext;

/// Cost dimension optimized by the matcher. Table 1 reports size, so Size is
/// the default; Cycles is used by the speed-oriented experiments.
enum class CostKind : uint8_t { Size, Cycles };

/// Supplies target-memory knowledge to the selector: how program leaves
/// (variables, array elements, constants) map to operands, and where
/// spill temps live. Implemented by the codegen driver.
class OperandBinder {
 public:
  virtual ~OperandBinder() = default;

  /// Extra cost (in the matcher's cost unit) of binding leaf `e` as `nt`,
  /// or nullopt if impossible. Must be consistent with bind().
  virtual std::optional<int> leafCost(const Expr& e, Nonterm nt) = 0;

  /// Produce the operand for a leaf; may emit setup code (e.g. AR loads for
  /// dynamically indexed arrays). `isStoreDest` is true when the operand is
  /// the destination of a Store pattern (the value will be written, not
  /// read, so dynamic accesses must yield a live indirect operand).
  virtual Operand bind(const Expr& e, Nonterm nt, std::vector<Instr>& out,
                       bool isStoreDest) = 0;

  /// Allocate / release a one-word spill temp in data memory.
  virtual int allocTemp() = 0;
  virtual void freeTemp(int /*addr*/) {}

  /// Version stamp of everything leafCost() depends on. The label memo is
  /// valid only while this value is unchanged; binders must bump it on any
  /// state change that can alter a leafCost() answer.
  virtual uint64_t stateSignature() const { return 0; }
};

struct CoverResult {
  bool ok = false;
  int cost = 0;
  std::vector<Instr> code;
  /// Number of rule applications in the cover (pattern count of Fig. 5).
  int patternsUsed = 0;
};

/// Result of a bounded matchCost: `pruned` means labeling was abandoned
/// because a sound lower bound already exceeded the caller's limit -- the
/// true cost is strictly greater than the limit, but unknown.
struct MatchOutcome {
  std::optional<int> cost;
  bool pruned = false;
};

class BursMatcher {
  struct Choice {
    enum class Kind : uint8_t { None, LeafBind, Rule } kind = Kind::None;
    int rule = -1;
    int cost = kInfCost;
  };
  struct NodeState {
    Choice nt[kNumNonterms];
  };
  static constexpr int kInfCost = 1 << 28;

 public:
  /// Storage of the label memo: node states indexed by intern ID. A node is
  /// labeled in the current epoch when index[id].epoch == epoch; its state
  /// is then states[index[id].slot]. The index holds two ints per ID, so
  /// growing it never constructs a NodeState, and states are stored
  /// compactly in labeling order. Kept apart from the matcher so a compiler
  /// can reuse one per search worker across compiles: the index is then
  /// sized once for the interner instead of regrown by every new matcher.
  class LabelMemo {
    friend class BursMatcher;
    struct Slot {
      uint32_t epoch = 0;
      uint32_t slot = 0;
    };
    uint32_t epoch = 1;
    std::vector<Slot> index;
    std::vector<NodeState> states;
    void newEpoch();
  };

  BursMatcher(const RuleSet& rules, CostKind costKind);

  /// Cost of covering `tree` to `goal`, or nullopt if no cover exists.
  /// Labels only -- cheap enough to call on every rewrite variant.
  std::optional<int> matchCost(const ExprPtr& tree, Nonterm goal,
                               OperandBinder& binder);

  /// Branch-and-bound matchCost: give up as soon as a lower bound on the
  /// cover cost exceeds `limit` (e.g. the best complete cover found so
  /// far). Bounding is only applied when the rule set's pattern shapes
  /// admit a sound bound (pattern depth <= 2); otherwise this is exactly
  /// matchCost.
  MatchOutcome matchCostBounded(const ExprPtr& tree, Nonterm goal,
                                OperandBinder& binder, int limit);

  /// Full selection: label then reduce, emitting code.
  CoverResult reduce(const ExprPtr& tree, Nonterm goal, OperandBinder& binder);
  /// The same, appending the code to `out` rather than to res.code, so a
  /// caller can emit every statement into one buffer.
  CoverResult reduce(const ExprPtr& tree, Nonterm goal, OperandBinder& binder,
                     std::vector<Instr>& out);

  /// Keep node labels across matchCost/reduce calls in `memo` (null turns
  /// the memo off), indexed by intern ID and valid for one binder
  /// stateSignature(). Every tree labeled with the memo on must be
  /// canonical in one ExprInterner that outlives the memo, and a memo
  /// serves one matcher at a time. Enabling, and every signature change,
  /// start a new epoch: the memo is dropped in O(1).
  void enableMemo(LabelMemo* memo);

  int64_t memoHits() const { return memoHits_; }
  int64_t memoMisses() const { return memoMisses_; }

  /// Attach an optimization-remark stream: every reduce() afterwards
  /// reports each rule fired in the winning cover ("isel.rule" remarks;
  /// the compile counts them once, as "isel.patterns_used"). `loc` (may be
  /// null) points at a caller-owned rendered source attribution, read at
  /// remark time.
  /// Observability only -- never changes labeling or reduction.
  void setTrace(TraceContext* trace, const std::string* loc = nullptr);

  const RuleSet& rules() const { return rules_; }

 private:
  int ruleCost(const Rule& r) const {
    return costKind_ == CostKind::Size ? r.size : r.cycles;
  }

  /// Structural match of `pat` against `e`; accumulates the cost of all
  /// nonterminal leaves (looked up in the label map) into `cost`. Returns
  /// false when ops/consts mismatch or a leaf has no cover.
  bool matchPattern(const PatNode& pat, const ExprPtr& e, int& cost);

  /// Post-order labeling with branch-and-bound: returns nullptr when the
  /// running lower bound exceeded limit_ (only possible when bounding is
  /// active). Completed node states are always correct and reusable. The
  /// pointer stays valid until the next label() call that labels a new node.
  const NodeState* label(const ExprPtr& e, OperandBinder& binder);

  /// The label state of `e`, or nullptr when `e` is not labeled yet.
  const NodeState* findState(const Expr* e) const;
  const NodeState* storeState(const Expr* e, const NodeState& st);

  /// Reset or revalidate the label map for a new match/reduce call.
  void beginLabeling(OperandBinder& binder);

  /// Cheapest cost of covering the subtree at `e` to any nonterminal
  /// (kInfCost when uncoverable). Requires `e` labeled.
  int subtreeMin(const Expr* e) const;

  /// Reduce `e` to `nt`; returns the operand carrying the value for
  /// Mem/Imm nonterms (unused for Acc/Stmt).
  Operand reduceTo(const ExprPtr& e, Nonterm nt, OperandBinder& binder,
                   std::vector<Instr>& out, int& patterns,
                   bool isStoreDest = false);

  const RuleSet& rules_;
  // The rule set's own index (built once per RuleSet, shared by every
  // matcher over it): the memoized fast path visits only the root-op
  // bucket and the chain-rule list, which yields label tables identical to
  // the full scan the flags-off path keeps as the reference.
  const RuleIndex& index_;
  CostKind costKind_;
  // Operand-slot frames of the reductions in flight, RuleIndex::maxSlots
  // each; reused across reduce() calls.
  std::vector<Operand> slotStack_;
  // Label states of the flags-off path, rebuilt on every call: the
  // reference implementation the memo below must agree with.
  std::unordered_map<const Expr*, NodeState> states_;
  OperandBinder* binder_ = nullptr;  // valid during a match/reduce call

  // Label memo (null = off), kept across calls while the binder signature
  // holds.
  LabelMemo* memo_ = nullptr;
  uint64_t memoSig_ = ~0ull;
  int64_t memoHits_ = 0;
  int64_t memoMisses_ = 0;

  // Optimization-remark stream (null = off).
  TraceContext* trace_ = nullptr;
  const std::string* traceLoc_ = nullptr;

  // Branch-and-bound state for the current bounded call.
  int limit_ = kInfCost;
};

}  // namespace record

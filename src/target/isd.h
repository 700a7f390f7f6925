// Instruction-set description (ISD): tree-pattern rules over the IR ops,
// the grammar the BURS matcher covers data-flow trees with (§4.3.3, the
// MSSQ/ISD heritage of RECORD). A rule rewrites a pattern of IR operators
// and nonterminal leaves (storage classes: accumulator, memory word,
// immediates) into a sequence of target instructions.
//
// The textual form is the `rule` clause of the target-description grammar
// (target/desc.h): RuleSet::str() prints a rule-only description, and
// parseTargetDesc() reads it back. A rule is one line; this one is wrapped
// here to fit:
//
//   rule mac acc <- (add acc (mul mem mem)) emit LT $1 ; MPY $2 ; APAC
//        cost 3,3
//
// `$k` refers to the k-th pattern leaf (preorder over ALL leaves): a
// storage-class leaf gives the operand slot, a `(const v)` leaf the fixed
// immediate v. `%t` is a fresh one-word memory temp. `#` only ever starts a
// comment.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "target/config.h"

namespace record {

/// Storage-class nonterminals of the tdsp grammar.
enum class Nonterm : uint8_t { Stmt, Acc, Mem, Imm8, Imm16 };
inline constexpr int kNumNonterms = 5;

const char* nontermName(Nonterm nt);
bool nontermFromName(const std::string& name, Nonterm& out);

/// A pattern-tree node. Mem/Imm8/Imm16 leaves are numbered left-to-right
/// with operand `slot`s (Acc leaves carry no value operand: slot = -1).
struct PatNode {
  enum class Kind : uint8_t { ConstLeaf, NtLeaf, OpNode };

  Kind kind = Kind::NtLeaf;
  Op op = Op::Add;            // OpNode
  int64_t cval = 0;           // ConstLeaf
  Nonterm nt = Nonterm::Acc;  // NtLeaf
  int slot = -1;              // NtLeaf: operand slot (Mem/Imm leaves only)
  std::vector<PatNode> kids;

  static PatNode leaf(Nonterm nt);
  static PatNode constant(int64_t v);
  static PatNode node(Op op, std::vector<PatNode> kids);

  std::string str() const;
};

/// Where an emitted instruction's operand comes from.
struct OperTemplate {
  enum class Kind : uint8_t { None, Slot, FixedImm, Temp };

  Kind kind = Kind::None;
  int slot = 0;  // Slot
  int imm = 0;   // FixedImm

  static OperTemplate none() { return {}; }
  static OperTemplate fromSlot(int s) { return {Kind::Slot, s, 0}; }
  static OperTemplate fixedImm(int v) { return {Kind::FixedImm, 0, v}; }
  static OperTemplate temp() { return {Kind::Temp, 0, 0}; }
};

/// One instruction of a rule's emit sequence.
struct EmitTemplate {
  Opcode op = Opcode::NOP;
  OperTemplate a;
  OperTemplate b;
};

struct Rule {
  std::string name;
  Nonterm lhs = Nonterm::Acc;
  PatNode pat;
  std::vector<EmitTemplate> emit;
  int size = 1;    // cost in program words
  int cycles = 1;  // cost in cycles
  ModeReq mode;    // OVM/SXM requirements stamped on the emitted code

  /// Chain rules convert between nonterminals without consuming IR
  /// structure (e.g. acc <- mem is a plain load).
  bool isChain() const { return pat.kind == PatNode::Kind::NtLeaf; }

  /// Does any emitted operand need a fresh memory temp?
  bool needsTemp() const;
};

/// The BURS matcher's lookup tables over a rule set, a pure function of
/// its rules (see RuleSet::index()).
struct RuleIndex {
  /// Structural rules by root op (ConstLeaf patterns under Op::Const), each
  /// bucket in ascending rule order: iterating one visits exactly the rules
  /// a full scan could match at a node of that op, in the same order.
  std::vector<std::vector<int>> byOp;
  /// Chain rules (NtLeaf patterns), in ascending rule order.
  std::vector<int> chain;
  /// Every pattern reaches at most grandchild depth, which makes the
  /// matcher's kid-sum lower bound (branch-and-bound) sound.
  bool boundable = false;
  /// Operand slots any one rule uses (pattern leaves and emit templates):
  /// the size of a reduction's slot frame.
  int maxSlots = 0;
  /// Number of rules indexed (checks that the rules were not edited since).
  size_t numRules = 0;
};

struct RuleSet {
  std::vector<Rule> rules;
  TargetConfig config;

  /// Number of operand slots (Mem/Imm leaves) of a rule's pattern.
  static int numSlots(const Rule& r);

  /// Textual ISD, one ruleText() line per rule: a rule-only description
  /// that parseTargetDesc() reads back.
  std::string str() const;

  /// The matcher's lookup tables for `rules`, built on first use and then
  /// shared by every matcher over this rule set. Safe to call from several
  /// threads at once. The index is never rebuilt, so finish editing
  /// `rules` before the first call; a copy starts without an index.
  const RuleIndex& index() const;

 private:
  /// Owner of the lazily built index. Copies start empty: the copy's rules
  /// may still be edited.
  class IndexCache {
   public:
    IndexCache() = default;
    IndexCache(const IndexCache&) {}
    IndexCache& operator=(const IndexCache&);
    ~IndexCache();
    std::atomic<const RuleIndex*> ptr{nullptr};
  };
  mutable IndexCache index_;
};

/// One rule in the textual form, without a trailing newline.
std::string ruleText(const Rule& r);

/// Preorder list of a pattern's leaves (NtLeaf and ConstLeaf alike): the
/// index space the textual `$k` operand references live in.
void collectLeaves(const PatNode& p, std::vector<const PatNode*>& out);

/// Assign slot numbers to the Mem/Imm leaves of `pat` (preorder,
/// left-to-right, starting at 0). Used by rule builders.
void assignSlots(PatNode& pat);

}  // namespace record

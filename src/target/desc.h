// Target-description compiler (the "tblgen" of this repo): parses a textual
// target description -- per-opcode `insn` clauses (operand constraints,
// encoding flags, decode cycle hints, datapath feature requirements) and
// the BURS `rule` clauses of src/target/isd.h with per-rule `when` feature
// gates -- and compiles it into the tables the rest of the system runs on:
//
//   * a RuleSet of BURS rules for src/isel/burs (rulesFor),
//   * an IsaTable driving the assembler/encoder/optimizer predicates and
//     the simulator's decode-once cycle hints (buildIsaTable), installable
//     via setActiveIsaTable.
//
// src/target/tdsp.isd is the one description of the built-in core: the
// default IsaTable and every default RuleSet are compiled from it (see
// target/tdsp.h).
//
// Grammar, the only one for description and rule text (one clause per
// physical line; '#' starts a comment and means nothing else):
//
//   target NAME
//   insn NAME class CLS operands N flags FLAGS [ar] [requires FEAT...]
//        cycles N
//   rule NAME nt <- PATTERN emit OP $k ; OP2 ... cost S,C
//        [mode ovm=V sxm=V] [when FEAT...]
//
// `target` is required exactly when there are `insn` clauses. A rule-only
// description (no `insn`, usually no `target`) keeps the default IsaTable:
// RuleSet::str() prints one, and TargetDesc::str() of one equals it.
// `$k` names the k-th pattern leaf (isd.h), `%t` a fresh memory temp. The
// `when` gate is a conjunction of feature names (mac, dualmul, sat, rpt,
// dmov); `flags` uses the opInfoFlags() alphabet ("-" = none). Every
// number is a decimal integer within +-1000000.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/diag.h"
#include "target/isa.h"
#include "target/isd.h"

namespace record {

/// One `insn` clause: every per-opcode fact an IsaTable row carries.
struct DescInsn {
  std::string name;
  OpClass cls = OpClass::AccAlu;
  OpInfo info;
  bool takesAr = false;
  uint8_t needs = 0;  // kFeat* requirement mask
  int cycles = 1;     // decode-time cycle hint
  int line = 0;       // description line (0 = synthesized)
};

/// One `rule` clause plus its feature gate.
struct DescRule {
  Rule rule;
  uint8_t when = 0;  // kFeat* conjunction; 0 = unconditional
  int line = 0;
};

/// A parsed target description. str() renders the canonical text form
/// (comments dropped); parseTargetDesc(str()) is a fixed point.
struct TargetDesc {
  std::string name;  // empty for a rule-only description
  int line = 0;  // line of the `target` clause
  std::vector<DescInsn> insns;
  std::vector<DescRule> rules;

  std::string str() const;
};

/// Feature-name vocabulary of `requires` / `when` clauses.
bool featureFromName(const std::string& name, uint8_t& out);
/// Space-separated names of the bits in `mask` ("mac sat"); "" for 0.
std::string featureMaskNames(uint8_t mask);

/// Parse a description. Returns nullopt after emitting located diagnostics
/// on any error; never throws on malformed input.
std::optional<TargetDesc> parseTargetDesc(const std::string& text,
                                          DiagEngine& diag);

/// Structural well-formedness: insn names resolve to known opcodes and are
/// unique, operand/cycle counts are in range, every emitted opcode has an
/// insn clause (unless there are none: a rule-only description keeps the
/// default table), emit operand slots are in range, the zero-cost chain-rule
/// subgraph is acyclic (positive-cost cycles like load/spill are
/// legitimate), and every rule's lhs nonterminal is reachable from the
/// start symbol (stmt). Emits located diagnostics; returns false on any.
bool validateDesc(const TargetDesc& desc, DiagEngine& diag);

/// The BURS rule set for one core variant: rules whose `when` gate is
/// satisfied by cfg's feature mask, in description order, with rs.config
/// set to cfg.
RuleSet rulesFor(const TargetDesc& desc, const TargetConfig& cfg);

/// Compile the insn clauses of a retargeting description into an IsaTable:
/// rows the description does not name keep their defaultIsaTable() values,
/// and so does the name of a rule-only description.
/// Returns nullopt with located diagnostics when an insn name is unknown.
std::optional<IsaTable> buildIsaTable(const TargetDesc& desc,
                                      DiagEngine& diag);

/// Compile a description that must stand alone: starts from an empty
/// table, and every opcode must be named by exactly one insn clause.
/// Returns nullopt with a located diagnostic naming each missing or
/// repeated opcode. defaultIsaTable() is this over tdsp.isd.
std::optional<IsaTable> buildCompleteIsaTable(const TargetDesc& desc,
                                              DiagEngine& diag);

}  // namespace record

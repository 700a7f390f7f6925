// ISE -> compiler bridge: turns extracted register-transfer patterns into a
// working code generator for the netlist itself. This closes the loop the
// paper highlights ("closes the gap which so far existed between electronic
// CAD and compiler generation"): a processor described only as an RT netlist
// gets a compiler whose instructions are netlist microinstruction words,
// executed on the RTL simulator.
//
// The generated compiler targets single-accumulator netlists (one register
// fed by the ALU, one addressable memory) and straight-line programs over
// +/-/& and constants -- the class of machine the extraction demo builds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.h"
#include "ise/extract.h"
#include "netlist/model.h"
#include "target/isd.h"

namespace record::ise {

/// Canonical capability classes recognized among extracted patterns.
enum class GenRuleKind : uint8_t {
  LoadMem,   // acc := mem[#]
  LoadImm,   // acc := #imm
  AddMem,    // acc := acc + mem[#]
  SubMem,    // acc := acc - mem[#]
  AndMem,    // acc := acc & mem[#]
  AddImm,    // acc := acc + #imm
  SubImm,    // acc := acc - #imm
  AndImm,    // acc := acc & #imm
  StoreAcc,  // mem[#] := acc
};
const char* genRuleKindName(GenRuleKind k);

struct GenRule {
  GenRuleKind kind;
  uint64_t baseWord = 0;       // instruction bits from the pattern
  std::string operandField;    // field carrying the address / immediate
  IsePattern source;           // provenance (for listings)
};

struct GenProgram {
  std::vector<uint64_t> words;
  std::vector<std::string> listing;  // one line per word
  std::map<std::string, int> varAddr;
};

class GeneratedCompiler {
 public:
  /// Classify extracted patterns into usable rules. `accStorage` and
  /// `memStorage` name the accumulator register and the data memory.
  GeneratedCompiler(const nl::Netlist& nl, std::vector<IsePattern> patterns,
                    std::string accStorage = "acc",
                    std::string memStorage = "mem");

  /// Minimum viability: load + store + at least one binary op.
  bool usable() const;
  /// Capability report (which rule kinds were derived, from which pattern).
  std::string describe() const;
  const std::vector<GenRule>& rules() const { return rules_; }

  /// Compile a straight-line scalar program (Add/Sub/Const/Ref only; loops
  /// may be present and are fully unrolled). Returns nullopt with `error`
  /// set when the program needs a capability the netlist lacks.
  std::optional<GenProgram> compile(const Program& prog,
                                    std::string* error = nullptr) const;

 private:
  const GenRule* find(GenRuleKind k) const;
  uint64_t encodeWith(const GenRule& r, int64_t operand) const;

  const nl::Netlist& nl_;
  std::string acc_, mem_;
  std::vector<GenRule> rules_;
};

/// Execute a generated program on the RTL simulator: one word per cycle.
/// Inputs are preloaded into `mem` at the program's variable addresses.
std::map<std::string, int64_t> runGenerated(
    const nl::Netlist& nl, const GenProgram& gp,
    const std::map<std::string, int64_t>& inputs,
    const std::vector<std::string>& outputs);

/// Map extracted instructions onto BURS rules of the stock grammar, so a
/// processor described only as a netlist retargets the *full* compiler
/// pipeline, not just the straight-line GeneratedCompiler. Adds the spill
/// / immediate-widening plumbing rules the matcher needs when the
/// extraction provides a store / an immediate load.
RuleSet rulesFromExtraction(const std::vector<GenRule>& extracted,
                            const TargetConfig& cfg);

}  // namespace record::ise

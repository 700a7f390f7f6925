// Data-memory layout: places program symbols (optionally split across the
// two memory banks by the §3.3 bank-assignment optimization), and manages
// the dynamically grown regions behind them: legalization scratch variables,
// spill temps (with reuse), and a deduplicated constant pool.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.h"
#include "opt/membank.h"
#include "target/config.h"

namespace record {

class DataLayout {
 public:
  DataLayout(const Program& prog, const TargetConfig& cfg,
             const BankAssignment* banks = nullptr);

  /// Base address of a program symbol (delay lines: base+k = k ticks ago;
  /// arrays: base+i = element i).
  int addrOf(const Symbol* s) const;

  /// One scratch word (legalization vars, loop counters). Never reused.
  int allocScratch(const std::string& debugName);

  /// Spill temps with free-list reuse.
  int allocTemp();
  void freeTemp(int addr);

  /// Address of a pooled 16-bit constant (deduplicated).
  int constAddr(int16_t value);

  /// (name, base) pairs for the TargetProgram, including scratch words.
  std::vector<std::pair<std::string, int>> symbolTable() const;
  /// Constant-pool initializers.
  std::vector<std::pair<int, int16_t>> dataInit() const;

  /// True if `addr` lies inside any array or delay-line region -- the only
  /// storage that indirect (*AR) operands can legally address in compiled
  /// code. Used to unlock accumulator promotion for scalar addresses.
  bool inArrayRegion(int addr) const;

 private:
  int bump(int words, int bank);

  const TargetConfig& cfg_;
  std::map<const Symbol*, int> addr_;
  std::vector<std::pair<std::string, int>> names_;
  std::map<int16_t, int> pool_;
  std::vector<int> tempFree_;
  std::vector<std::pair<int, int>> arrayRegions_;  // [base, base+size)
  int next_[2] = {0, 0};  // bump pointer per bank
};

}  // namespace record

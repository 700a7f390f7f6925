// Symbol-relative data access for the simulator engines. Machine and
// ReferenceMachine resolve a symbol name to its base data address through
// one SymbolResolver each, so writeSymbol/readSymbol share one lookup and
// one "unknown symbol" diagnostic.
//
// Hosts move data through the symbol API one word at a time (whole input
// frames and output arrays per tick), nearly always for the same symbol as
// the previous call. The resolver therefore keeps a one-entry memo -- the
// index of the last resolved TargetProgram::symbolAddr entry -- in front of
// the linear scan. A hit re-checks that entry's name against the
// requested one, so the memo can never return a stale address: a caller
// that reuses one std::string buffer for a different name, or a program
// whose symbol table changed, simply misses and rescans.
#pragma once

#include <cstddef>
#include <limits>
#include <string>

#include "target/isa.h"

namespace record {

class SymbolResolver {
 public:
  explicit SymbolResolver(const TargetProgram& prog) : prog_(prog) {}

  /// Base data address of `sym` (the first matching symbolAddr entry, as
  /// TargetProgram::addrOf). Throws std::runtime_error("unknown symbol: X")
  /// when the program has no such symbol.
  int base(const std::string& sym) const {
    const auto& tab = prog_.symbolAddr;
    if (last_ < tab.size() && tab[last_].first == sym)
      return tab[last_].second;
    return scan(sym);
  }

 private:
  int scan(const std::string& sym) const;  // full lookup; refreshes the memo

  const TargetProgram& prog_;
  // Mutable because the engines' const readSymbol resolves through it. The
  // memo needs no synchronization: an engine is single-threaded, const
  // accessors included, and each engine owns its resolver. It must not move
  // into the shared TargetProgram, which CompileService hands to many
  // threads at once.
  mutable size_t last_ = std::numeric_limits<size_t>::max();
};

}  // namespace record

// Symbol-relative data access for the simulator engines. Machine and
// ReferenceMachine resolve a symbol name to its base data address through
// one SymbolResolver each, so writeSymbol/readSymbol share one lookup and
// one "unknown symbol" diagnostic.
//
// Hosts move data through the symbol API one word at a time (whole input
// frames and output arrays per tick), nearly always for the same symbol as
// the previous call. The resolver therefore keeps a one-entry memo in
// front of the linear scan: the last resolved name (a pointer to the bytes
// of its TargetProgram::symbolAddr entry, and their length) and that
// entry's base address. A hit is a length compare and an inline byte
// compare against the requested name -- no call, no string built -- so the
// memo can never return a stale address: a caller that reuses one
// std::string buffer for a different name simply misses and rescans. The
// memo points into the program's symbol table, so the table must not
// change while the resolver lives; both engines already assume their
// program is fixed once they are constructed.
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
    const size_t n = sym.size();
    if (n == lastLen_) {
      const char* s = sym.data();
      size_t i = 0;
      while (i < n && s[i] == lastName_[i]) ++i;
      if (i == n) return lastBase_;
    }
    return scan(sym);
  }

 private:
  int scan(const std::string& sym) const;  // full lookup; refreshes the memo

  const TargetProgram& prog_;
  // Mutable because the engines' const readSymbol resolves through it. The
  // memo needs no synchronization: an engine is single-threaded, const
  // accessors included, and each engine owns its resolver. It must not move
  // into the shared TargetProgram, which CompileService hands to many
  // threads at once. No name is npos bytes long, so the memo starts empty.
  mutable const char* lastName_ = nullptr;
  mutable size_t lastLen_ = std::numeric_limits<size_t>::max();
  mutable int lastBase_ = 0;
};

}  // namespace record

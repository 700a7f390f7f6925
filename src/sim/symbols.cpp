#include "sim/symbols.h"

#include <stdexcept>

namespace record {

int SymbolResolver::scan(const std::string& sym) const {
  for (const auto& [name, addr] : prog_.symbolAddr)
    if (name == sym) {
      lastName_ = name.data();
      lastLen_ = name.size();
      lastBase_ = addr;
      return addr;
    }
  throw std::runtime_error("unknown symbol: " + sym);
}

}  // namespace record

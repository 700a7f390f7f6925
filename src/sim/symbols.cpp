#include "sim/symbols.h"

#include <stdexcept>

namespace record {

int SymbolResolver::scan(const std::string& sym) const {
  const auto& tab = prog_.symbolAddr;
  for (size_t i = 0; i < tab.size(); ++i)
    if (tab[i].first == sym) {
      last_ = i;
      return tab[i].second;
    }
  throw std::runtime_error("unknown symbol: " + sym);
}

}  // namespace record

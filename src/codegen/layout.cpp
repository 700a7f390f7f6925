#include "codegen/layout.h"

#include <stdexcept>

namespace record {

DataLayout::DataLayout(const Program& prog, const TargetConfig& cfg,
                       const BankAssignment* banks)
    : cfg_(cfg) {
  next_[0] = 0;
  next_[1] = cfg.memBanks >= 2 ? cfg.dataWords / 2 : 0;
  for (const Symbol* s : prog.storageSymbols()) {
    int bank = 0;
    if (banks && cfg.memBanks >= 2) bank = banks->bank(s);
    int base = bump(s->storageWords(), bank);
    addr_[s] = base;
    names_.emplace_back(s->name, base);
    if (s->storageWords() > 1)
      arrayRegions_.emplace_back(base, base + s->storageWords());
  }
}

int DataLayout::bump(int words, int bank) {
  if (cfg_.memBanks < 2) bank = 0;
  int base = next_[bank];
  next_[bank] += words;
  int limit = (cfg_.memBanks >= 2 && bank == 0) ? cfg_.dataWords / 2
                                                : cfg_.dataWords;
  if (next_[bank] > limit)
    throw std::runtime_error("data memory overflow (bank " +
                             std::to_string(bank) + ")");
  return base;
}

int DataLayout::addrOf(const Symbol* s) const {
  auto it = addr_.find(s);
  if (it == addr_.end())
    throw std::runtime_error("symbol has no storage: " + s->name);
  return it->second;
}

int DataLayout::allocScratch(const std::string& debugName) {
  int a = bump(1, 0);
  names_.emplace_back(debugName, a);
  return a;
}

int DataLayout::allocTemp() {
  if (!tempFree_.empty()) {
    int a = tempFree_.back();
    tempFree_.pop_back();
    return a;
  }
  return bump(1, 0);
}

void DataLayout::freeTemp(int addr) { tempFree_.push_back(addr); }

int DataLayout::constAddr(int16_t value) {
  auto it = pool_.find(value);
  if (it != pool_.end()) return it->second;
  int a = bump(1, 0);
  pool_[value] = a;
  return a;
}

std::vector<std::pair<std::string, int>> DataLayout::symbolTable() const {
  return names_;
}

std::vector<std::pair<int, int16_t>> DataLayout::dataInit() const {
  std::vector<std::pair<int, int16_t>> out;
  for (const auto& [v, a] : pool_) out.emplace_back(a, v);
  return out;
}

bool DataLayout::inArrayRegion(int addr) const {
  for (const auto& [lo, hi] : arrayRegions_)
    if (addr >= lo && addr < hi) return true;
  return false;
}

}  // namespace record

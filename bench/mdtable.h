// Markdown tables for the experiment benches. Each bench prints its tables
// as markdown rows, and EXPERIMENTS.md holds those rows verbatim: the
// ExperimentsDoc test (bench/check_experiments.cmake) fails when the two
// differ.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace record::bench {

/// printf into one table cell.
[[gnu::format(printf, 1, 2)]] inline std::string cell(const char* fmt, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// A header row, the `|---|` separator, then the body rows. Each column is
/// padded to its widest cell: the first left-aligned, the rest right.
class MdTable {
 public:
  explicit MdTable(std::vector<std::string> header) {
    rows_.push_back(std::move(header));
  }

  void add(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    // Display width: UTF-8 continuation bytes take no column.
    auto width = [](const std::string& s) {
      return static_cast<size_t>(std::count_if(
          s.begin(), s.end(), [](char c) { return (c & 0xC0) != 0x80; }));
    };
    std::vector<size_t> w(rows_[0].size(), 0);
    for (const auto& r : rows_)
      for (size_t i = 0; i < r.size(); ++i) w[i] = std::max(w[i], width(r[i]));
    for (size_t n = 0; n < rows_.size(); ++n) {
      std::string line = "|";
      for (size_t i = 0; i < rows_[n].size(); ++i) {
        std::string pad(w[i] - width(rows_[n][i]), ' ');
        line += " " + (i == 0 ? rows_[n][i] + pad : pad + rows_[n][i]) + " |";
      }
      std::puts(line.c_str());
      if (n == 0) {
        line = "|";
        for (size_t i = 0; i < w.size(); ++i) line += "---|";
        std::puts(line.c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace record::bench

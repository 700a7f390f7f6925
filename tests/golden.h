// Helpers for the frozen golden files under tests/golden/: FNV-64 digests
// and a keyed, line-by-line comparison. A golden line is keyed by its first
// four words; a differing line is reported with its actual text, so a
// deliberate change updates the file by pasting those lines.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace record::golden {

inline std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline uint64_t fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string digest(const std::string& s) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv64(s)));
  return buf;
}

/// The key of a golden line: its first four words.
inline std::string lineKey(const std::string& line) {
  std::istringstream in(line);
  std::string w, key;
  for (int i = 0; i < 4 && in >> w; ++i) key += (i ? " " : "") + w;
  return key;
}

/// Compare `actual` with the lines of `path` that start with `section`:
/// every actual line must equal the golden line of the same key, and every
/// golden line of the section must be produced.
inline void expectGoldenSection(const std::string& path,
                                const std::string& section,
                                const std::vector<std::string>& actual) {
  std::map<std::string, std::string> expected;
  {
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line))
      if (line.rfind(section + " ", 0) == 0) expected[lineKey(line)] = line;
  }
  for (const std::string& line : actual) {
    auto it = expected.find(lineKey(line));
    if (it == expected.end()) {
      ADD_FAILURE() << "no golden line for '" << lineKey(line)
                    << "'\n  actual:   " << line;
      continue;
    }
    EXPECT_EQ(it->second, line) << "\n  expected: " << it->second
                                << "\n  actual:   " << line;
    expected.erase(it);
  }
  for (const auto& [key, line] : expected)
    ADD_FAILURE() << "golden line not produced: " << line;
}

}  // namespace record::golden

#include "target/desc.h"

#include <map>
#include <sstream>

namespace record {

namespace {

struct FeatureName {
  const char* name;
  uint8_t bit;
};

// Declaration order is the canonical rendering order of `requires`/`when`
// feature lists.
const FeatureName kFeatures[] = {
    {"mac", kFeatMac},   {"dualmul", kFeatDualMul}, {"sat", kFeatSat},
    {"rpt", kFeatRpt},   {"dmov", kFeatDmov},
};

bool parseInt(const std::string& tok, int* out) {
  if (tok.empty()) return false;
  size_t i = tok[0] == '-' ? 1 : 0;
  if (i >= tok.size()) return false;
  long v = 0;
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
    v = v * 10 + (tok[i] - '0');
    if (v > 1000000) return false;
  }
  *out = tok[0] == '-' ? -static_cast<int>(v) : static_cast<int>(v);
  return true;
}

std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool opClassFromName(const std::string& name, OpClass* out) {
  for (int i = 0; i < kNumOpClasses; ++i) {
    OpClass c = static_cast<OpClass>(i);
    if (name == opClassName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

/// Nonterminals appearing as NtLeaf leaves of a pattern, as a bitmask.
uint32_t patternNonterms(const PatNode& p) {
  if (p.kind == PatNode::Kind::NtLeaf) return 1u << static_cast<int>(p.nt);
  uint32_t m = 0;
  for (const auto& k : p.kids) m |= patternNonterms(k);
  return m;
}

struct DescParser {
  DiagEngine& diag;
  int lineNo = 0;

  void error(const std::string& msg) { diag.error({lineNo, 0}, msg); }

  bool parseInsn(const std::vector<std::string>& toks, DescInsn* out) {
    if (toks.size() < 2) {
      error("insn clause missing a name");
      return false;
    }
    out->name = toks[1];
    out->line = lineNo;
    bool haveClass = false, haveOperands = false, haveFlags = false,
         haveCycles = false;
    int numOperands = 0;
    std::string flags;
    size_t i = 2;
    while (i < toks.size()) {
      const std::string& kw = toks[i];
      if (kw == "ar") {
        out->takesAr = true;
        ++i;
        continue;
      }
      if (kw == "requires") {
        ++i;
        size_t got = 0;
        uint8_t bit;
        while (i < toks.size() && featureFromName(toks[i], bit)) {
          out->needs |= bit;
          ++i;
          ++got;
        }
        if (got == 0) {
          error("insn '" + out->name + "': 'requires' lists no features");
          return false;
        }
        continue;
      }
      if (i + 1 >= toks.size()) {
        error("insn '" + out->name + "': '" + kw + "' missing its value");
        return false;
      }
      const std::string& val = toks[i + 1];
      if (kw == "class") {
        if (!opClassFromName(val, &out->cls)) {
          error("insn '" + out->name + "': unknown class '" + val + "'");
          return false;
        }
        haveClass = true;
      } else if (kw == "operands") {
        if (!parseInt(val, &numOperands)) {
          error("insn '" + out->name + "': bad operand count '" + val + "'");
          return false;
        }
        haveOperands = true;
      } else if (kw == "flags") {
        flags = val;
        haveFlags = true;
      } else if (kw == "cycles") {
        if (!parseInt(val, &out->cycles)) {
          error("insn '" + out->name + "': bad cycle count '" + val + "'");
          return false;
        }
        haveCycles = true;
      } else {
        error("insn '" + out->name + "': unknown keyword '" + kw + "'");
        return false;
      }
      i += 2;
    }
    if (!haveClass || !haveOperands || !haveFlags || !haveCycles) {
      error("insn '" + out->name +
            "' is missing a clause (need class, operands, flags, cycles)");
      return false;
    }
    if (!opInfoParseFlags(numOperands, flags, &out->info)) {
      error("insn '" + out->name + "': unknown flag char in '" + flags + "'");
      return false;
    }
    return true;
  }

  bool parseRuleLine(const std::vector<std::string>& toks, DescRule* out) {
    // The optional `when` gate trails the rule: find the last "when" token
    // that comes after the (mandatory) "cost" token, split there, and feed
    // the prefix through the stock ISD parser.
    size_t costIdx = toks.size(), whenIdx = toks.size();
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i] == "cost" && costIdx == toks.size()) costIdx = i;
      if (toks[i] == "when" && costIdx < i) whenIdx = i;
    }
    out->when = 0;
    out->line = lineNo;
    if (whenIdx < toks.size()) {
      if (whenIdx + 1 == toks.size()) {
        error("'when' gate lists no features");
        return false;
      }
      for (size_t i = whenIdx + 1; i < toks.size(); ++i) {
        uint8_t bit;
        if (!featureFromName(toks[i], bit)) {
          error("unknown feature '" + toks[i] + "' in when gate");
          return false;
        }
        out->when |= bit;
      }
    }
    std::string ruleText;
    for (size_t i = 0; i < whenIdx; ++i) {
      if (i) ruleText += ' ';
      ruleText += toks[i];
    }
    DiagEngine sub;
    auto rs = parseIsd(ruleText, sub);
    for (const Diagnostic& d : sub.all())
      diag.error({lineNo, d.loc.col}, d.message);
    if (!rs || rs->rules.size() != 1) {
      if (!sub.hasErrors()) error("rule line did not parse as one rule");
      return false;
    }
    out->rule = std::move(rs->rules[0]);
    return true;
  }
};

/// Chain-rule edge list of one cost dimension (size or cycles), restricted
/// to zero-cost edges. Positive-cost chain cycles (load/spill: acc <-> mem)
/// are legitimate -- the BURS labeler's cost comparison terminates them;
/// a ZERO-cost cycle would let the labeler loop without progress.
bool zeroCostChainCycle(const TargetDesc& desc, bool useCycles,
                        Nonterm* at) {
  // adj[a] bit b set: zero-cost chain rule b <- a (deriving b from a).
  uint32_t adj[kNumNonterms] = {};
  for (const DescRule& dr : desc.rules) {
    const Rule& r = dr.rule;
    if (!r.isChain()) continue;
    int cost = useCycles ? r.cycles : r.size;
    if (cost != 0) continue;
    adj[static_cast<int>(r.pat.nt)] |= 1u << static_cast<int>(r.lhs);
  }
  // Tiny graph: DFS with tri-color marking.
  int color[kNumNonterms] = {};  // 0 white, 1 gray, 2 black
  auto dfs = [&](auto&& self, int n) -> bool {
    color[n] = 1;
    for (int m = 0; m < kNumNonterms; ++m) {
      if (!(adj[n] & (1u << m))) continue;
      if (color[m] == 1) {
        *at = static_cast<Nonterm>(m);
        return true;
      }
      if (color[m] == 0 && self(self, m)) return true;
    }
    color[n] = 2;
    return false;
  };
  for (int n = 0; n < kNumNonterms; ++n)
    if (color[n] == 0 && dfs(dfs, n)) return true;
  return false;
}

}  // namespace

bool featureFromName(const std::string& name, uint8_t& out) {
  for (const FeatureName& f : kFeatures) {
    if (name == f.name) {
      out = f.bit;
      return true;
    }
  }
  return false;
}

std::string featureMaskNames(uint8_t mask) {
  std::string s;
  for (const FeatureName& f : kFeatures) {
    if (!(mask & f.bit)) continue;
    if (!s.empty()) s += ' ';
    s += f.name;
  }
  return s;
}

std::string TargetDesc::str() const {
  std::ostringstream os;
  os << "target " << name << "\n\n";
  for (const DescInsn& i : insns) {
    os << "insn " << i.name << " class " << opClassName(i.cls)
       << " operands " << i.info.numOperands << " flags "
       << opInfoFlags(i.info);
    if (i.takesAr) os << " ar";
    if (i.needs) os << " requires " << featureMaskNames(i.needs);
    os << " cycles " << i.cycles << "\n";
  }
  os << "\n";
  for (const DescRule& r : rules) {
    RuleSet one;
    one.rules.push_back(r.rule);
    std::string s = one.str();
    while (!s.empty() && s.back() == '\n') s.pop_back();
    os << s;
    if (r.when) os << " when " << featureMaskNames(r.when);
    os << "\n";
  }
  return os.str();
}

std::optional<TargetDesc> parseTargetDesc(const std::string& text,
                                          DiagEngine& diag) {
  const int errorsBefore = diag.errorCount();
  TargetDesc desc;
  desc.name.clear();
  DescParser p{diag};
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ++p.lineNo;
    // '#' starts a comment, exactly as in the stock ISD tokenizer.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::vector<std::string> toks = splitWords(line);
    if (toks.empty()) continue;
    if (toks[0] == "target") {
      if (toks.size() != 2) {
        p.error("target clause wants exactly one name");
        continue;
      }
      desc.name = toks[1];
      desc.line = p.lineNo;
    } else if (toks[0] == "insn") {
      DescInsn insn;
      if (p.parseInsn(toks, &insn)) desc.insns.push_back(std::move(insn));
    } else if (toks[0] == "rule") {
      DescRule rule;
      if (p.parseRuleLine(toks, &rule))
        desc.rules.push_back(std::move(rule));
    } else {
      p.error("unknown directive '" + toks[0] + "'");
    }
  }
  if (desc.name.empty()) {
    diag.error({1, 0}, "description has no 'target NAME' clause");
  }
  if (diag.errorCount() > errorsBefore) return std::nullopt;
  return desc;
}

bool validateDesc(const TargetDesc& desc, DiagEngine& diag) {
  const int errorsBefore = diag.errorCount();

  std::map<std::string, int> insnLine;
  std::map<std::string, const DescInsn*> byName;
  for (const DescInsn& i : desc.insns) {
    SourceLoc loc{i.line, 0};
    Opcode op;
    if (!opcodeFromName(i.name, op))
      diag.error(loc, "insn '" + i.name + "' names no known opcode");
    auto [it, fresh] = insnLine.emplace(i.name, i.line);
    if (!fresh)
      diag.error(loc, "duplicate insn '" + i.name + "' (first at line " +
                          std::to_string(it->second) + ")");
    else
      byName[i.name] = &i;
    if (i.info.numOperands < 0 || i.info.numOperands > 2)
      diag.error(loc, "insn '" + i.name + "': operand count " +
                          std::to_string(i.info.numOperands) +
                          " out of range [0,2]");
    if (i.cycles < 1)
      diag.error(loc, "insn '" + i.name + "': cycle count " +
                          std::to_string(i.cycles) + " must be >= 1");
  }

  std::map<std::string, int> ruleLine;
  for (const DescRule& dr : desc.rules) {
    const Rule& r = dr.rule;
    SourceLoc loc{dr.line, 0};
    auto [it, fresh] = ruleLine.emplace(r.name, dr.line);
    if (!fresh)
      diag.error(loc, "duplicate rule '" + r.name + "' (first at line " +
                          std::to_string(it->second) + ")");
    int slots = RuleSet::numSlots(r);
    for (const EmitTemplate& e : r.emit) {
      if (!byName.count(opcodeName(e.op)))
        diag.error(loc, "rule '" + r.name + "' emits " + opcodeName(e.op) +
                            " which has no insn clause");
      for (const OperTemplate* ot : {&e.a, &e.b}) {
        if (ot->kind != OperTemplate::Kind::Slot) continue;
        if (ot->slot < 0 || ot->slot >= slots)
          diag.error(loc, "rule '" + r.name + "': operand slot $" +
                              std::to_string(ot->slot) +
                              " out of range (pattern has " +
                              std::to_string(slots) + " slots)");
      }
    }
    if (r.size < 0 || r.cycles < 0)
      diag.error(loc, "rule '" + r.name + "': negative cost");
    if (r.isChain() && r.pat.nt == r.lhs)
      diag.error(loc, "rule '" + r.name + "': chain rule from " +
                          nontermName(r.lhs) + " to itself");
  }

  Nonterm cyc;
  if (zeroCostChainCycle(desc, /*useCycles=*/false, &cyc))
    diag.error({0, 0}, std::string("zero-size chain-rule cycle through ") +
                           nontermName(cyc));
  if (zeroCostChainCycle(desc, /*useCycles=*/true, &cyc))
    diag.error({0, 0}, std::string("zero-cycle chain-rule cycle through ") +
                           nontermName(cyc));

  // Reachability from the start symbol: a rule whose lhs no usable
  // derivation ever asks for is dead weight (or a typo).
  uint32_t reachable = 1u << static_cast<int>(Nonterm::Stmt);
  for (bool changed = true; changed;) {
    changed = false;
    for (const DescRule& dr : desc.rules) {
      if (!(reachable & (1u << static_cast<int>(dr.rule.lhs)))) continue;
      uint32_t add = patternNonterms(dr.rule.pat) & ~reachable;
      if (add) {
        reachable |= add;
        changed = true;
      }
    }
  }
  for (const DescRule& dr : desc.rules) {
    if (!(reachable & (1u << static_cast<int>(dr.rule.lhs))))
      diag.error({dr.line, 0},
                 "rule '" + dr.rule.name + "': nonterminal " +
                     nontermName(dr.rule.lhs) +
                     " is unreachable from the start symbol");
  }

  return diag.errorCount() == errorsBefore;
}

RuleSet rulesFor(const TargetDesc& desc, const TargetConfig& cfg) {
  RuleSet rs;
  rs.config = cfg;
  const uint8_t have = configFeatureMask(cfg);
  for (const DescRule& dr : desc.rules)
    if ((dr.when & ~have) == 0) rs.rules.push_back(dr.rule);
  return rs;
}

namespace {

/// Write the insn clauses of `desc` over the rows of `t`; `seen` counts
/// the clauses naming each opcode.
bool applyInsns(const TargetDesc& desc, IsaTable& t,
                std::array<int, kNumOpcodes>& seen, DiagEngine& diag) {
  const int errorsBefore = diag.errorCount();
  t.name = desc.name;
  for (const DescInsn& i : desc.insns) {
    Opcode op;
    if (!opcodeFromName(i.name, op)) {
      diag.error({i.line, 0}, "insn '" + i.name + "' names no known opcode");
      continue;
    }
    size_t idx = static_cast<size_t>(op);
    ++seen[idx];
    t.info[idx] = i.info;
    t.cls[idx] = i.cls;
    t.takesAr[idx] = i.takesAr;
    t.needs[idx] = i.needs;
    t.decodeCycles[idx] = static_cast<uint8_t>(i.cycles);
  }
  return diag.errorCount() == errorsBefore;
}

}  // namespace

std::optional<IsaTable> buildIsaTable(const TargetDesc& desc,
                                      DiagEngine& diag) {
  IsaTable t = defaultIsaTable();
  std::array<int, kNumOpcodes> seen{};
  if (!applyInsns(desc, t, seen, diag)) return std::nullopt;
  return t;
}

std::optional<IsaTable> buildCompleteIsaTable(const TargetDesc& desc,
                                              DiagEngine& diag) {
  IsaTable t;
  std::array<int, kNumOpcodes> seen{};
  bool ok = applyInsns(desc, t, seen, diag);
  for (int i = 0; i < kNumOpcodes; ++i) {
    if (seen[i] == 1) continue;
    std::string op = opcodeName(static_cast<Opcode>(i));
    diag.error({desc.line, 0},
               seen[i] == 0 ? "description has no insn clause for opcode '" +
                                  op + "'"
                            : "description names opcode '" + op + "' " +
                                  std::to_string(seen[i]) + " times");
    ok = false;
  }
  if (!ok) return std::nullopt;
  return t;
}

}  // namespace record

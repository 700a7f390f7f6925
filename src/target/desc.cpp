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

bool opFromName(const std::string& name, Op& out) {
  for (int i = 0; i <= static_cast<int>(Op::Store); ++i) {
    Op op = static_cast<Op>(i);
    if (name == opName(op)) {
      out = op;
      return true;
    }
  }
  return false;
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

/// Bound on every number a description holds. Costs, cycle and operand
/// counts, mode bits, leaf references and pattern constants all lie far
/// inside it, and it keeps a `(const v)` inside the `int` of the fixed
/// immediate it emits.
constexpr long kMaxDescNumber = 1000000;

/// Line `line` of the description `diag` is reading: every diagnostic
/// names the file when the caller set one (DiagEngine::setSourceName).
/// Line 0 is the whole description.
SourceLoc at(const DiagEngine& diag, int line) {
  return {line, 0, diag.sourceName()};
}

/// One parser for every clause. A line is tokenized once; the clause
/// parsers walk its tokens with a cursor.
struct DescParser {
  DiagEngine& diag;
  int lineNo = 0;
  std::vector<std::string> toks;
  size_t pos = 0;

  explicit DescParser(DiagEngine& d) : diag(d) {}

  void error(const std::string& msg) { diag.error(at(diag, lineNo), msg); }

  /// Split a line into words, with each parenthesis a token of its own;
  /// '#' starts a comment.
  void tokenize(const std::string& line) {
    toks.clear();
    pos = 0;
    std::string cur;
    auto flush = [&] {
      if (!cur.empty()) toks.push_back(std::move(cur));
      cur.clear();
    };
    for (char c : line) {
      if (c == '#') break;
      if (c == '(' || c == ')') {
        flush();
        toks.push_back(std::string(1, c));
      } else if (c == ' ' || c == '\t' || c == '\r') {
        flush();
      } else {
        cur += c;
      }
    }
    flush();
  }

  bool atEnd() const { return pos >= toks.size(); }
  const std::string& peek() const {
    static const std::string empty;
    return atEnd() ? empty : toks[pos];
  }
  std::string take() { return atEnd() ? std::string() : toks[pos++]; }

  bool expect(const std::string& word) {
    if (peek() == word) {
      ++pos;
      return true;
    }
    error("expected '" + word + "', got '" + peek() + "'");
    return false;
  }

  /// The grammar's only number reader: an optionally negative decimal
  /// integer within kMaxDescNumber. `what` names the number in the
  /// diagnostic.
  bool readInt(const std::string& tok, const std::string& what, int* out) {
    const bool neg = !tok.empty() && tok[0] == '-';
    bool ok = tok.size() > (neg ? 1u : 0u);
    long v = 0;
    for (size_t i = neg ? 1 : 0; ok && i < tok.size(); ++i) {
      ok = tok[i] >= '0' && tok[i] <= '9';
      v = v * 10 + (tok[i] - '0');
      ok = ok && v <= kMaxDescNumber;
    }
    if (!ok) {
      error("bad " + what + " '" + tok + "' (want an integer within +-" +
            std::to_string(kMaxDescNumber) + ")");
      return false;
    }
    *out = static_cast<int>(neg ? -v : v);
    return true;
  }

  bool parseInsn(DescInsn* out) {
    ++pos;  // "insn"
    out->name = take();
    out->line = lineNo;
    if (out->name.empty()) {
      error("insn clause missing a name");
      return false;
    }
    const std::string what = "insn '" + out->name + "'";
    bool haveClass = false, haveOperands = false, haveFlags = false,
         haveCycles = false;
    int numOperands = 0;
    std::string flags;
    while (!atEnd()) {
      const std::string kw = take();
      if (kw == "ar") {
        out->takesAr = true;
        continue;
      }
      if (kw == "requires") {
        size_t got = 0;
        uint8_t bit;
        for (; featureFromName(peek(), bit); ++pos, ++got) out->needs |= bit;
        if (got == 0) {
          error(what + ": 'requires' lists no features");
          return false;
        }
        continue;
      }
      if (atEnd()) {
        error(what + ": '" + kw + "' missing its value");
        return false;
      }
      const std::string val = take();
      if (kw == "class") {
        if (!opClassFromName(val, &out->cls)) {
          error(what + ": unknown class '" + val + "'");
          return false;
        }
        haveClass = true;
      } else if (kw == "operands") {
        if (!readInt(val, what + " operand count", &numOperands)) return false;
        haveOperands = true;
      } else if (kw == "flags") {
        flags = val;
        haveFlags = true;
      } else if (kw == "cycles") {
        if (!readInt(val, what + " cycle count", &out->cycles)) return false;
        haveCycles = true;
      } else {
        error(what + ": unknown keyword '" + kw + "'");
        return false;
      }
    }
    if (!haveClass || !haveOperands || !haveFlags || !haveCycles) {
      error(what + " is missing a clause (need class, operands, flags, cycles)");
      return false;
    }
    if (!opInfoParseFlags(numOperands, flags, &out->info)) {
      error(what + ": unknown flag char in '" + flags + "'");
      return false;
    }
    return true;
  }

  bool parsePattern(PatNode& out) {
    const std::string t = take();
    if (t != "(") {
      Nonterm nt;
      if (!nontermFromName(t, nt)) {
        error("unknown pattern leaf '" + t + "'");
        return false;
      }
      out = PatNode::leaf(nt);
      return true;
    }
    const std::string head = take();
    if (head == "const") {
      int v;
      if (!readInt(take(), "pattern constant", &v)) return false;
      out = PatNode::constant(v);
      return expect(")");
    }
    Op op;
    if (!opFromName(head, op)) {
      error("unknown pattern operator '" + head + "'");
      return false;
    }
    std::vector<PatNode> kids;
    while (peek() != ")") {
      if (atEnd()) {
        error("unterminated pattern");
        return false;
      }
      PatNode kid;
      if (!parsePattern(kid)) return false;
      kids.push_back(std::move(kid));
    }
    ++pos;  // ')'
    out = PatNode::node(op, std::move(kids));
    return true;
  }

  /// `$k` (the k-th pattern leaf) or `%t`; a trailing ',' separates the
  /// operands of one instruction.
  bool parseOperand(const std::string& raw,
                    const std::vector<const PatNode*>& leaves,
                    OperTemplate& out) {
    std::string t = raw;
    while (!t.empty() && t.back() == ',') t.pop_back();
    if (t == "%t") {
      out = OperTemplate::temp();
      return true;
    }
    if (t.empty() || t[0] != '$') {
      error("bad operand '" + raw + "'");
      return false;
    }
    int idx;
    if (!readInt(t.substr(1), "leaf reference", &idx)) return false;
    if (idx < 0 || static_cast<size_t>(idx) >= leaves.size()) {
      error("leaf reference " + t + " out of range");
      return false;
    }
    const PatNode* leaf = leaves[static_cast<size_t>(idx)];
    if (leaf->kind == PatNode::Kind::ConstLeaf) {
      out = OperTemplate::fixedImm(static_cast<int>(leaf->cval));
      return true;
    }
    if (leaf->slot < 0) {
      error("leaf reference " + t + " names a non-operand leaf");
      return false;
    }
    out = OperTemplate::fromSlot(leaf->slot);
    return true;
  }

  bool parseRule(DescRule* out) {
    Rule& r = out->rule;
    out->line = lineNo;
    ++pos;  // "rule"
    r.name = take();
    if (r.name.empty()) {
      error("missing rule name");
      return false;
    }
    if (!nontermFromName(take(), r.lhs)) {
      error("unknown rule lhs nonterminal");
      return false;
    }
    if (!expect("<-") || !parsePattern(r.pat)) return false;
    assignSlots(r.pat);
    std::vector<const PatNode*> leaves;
    collectLeaves(r.pat, leaves);

    if (!expect("emit")) return false;
    if (peek() == "-") ++pos;  // empty emit sequence
    while (!atEnd() && peek() != "cost") {
      if (peek() == ";") {
        ++pos;
        continue;
      }
      EmitTemplate et;
      if (!opcodeFromName(take(), et.op)) {
        error("unknown opcode in emit clause");
        return false;
      }
      for (int n = 0; !atEnd() && peek() != "cost" && peek() != ";"; ++n) {
        if (n == 2) {
          error("too many operands in emit clause");
          return false;
        }
        if (!parseOperand(take(), leaves, n == 0 ? et.a : et.b)) return false;
      }
      r.emit.push_back(et);
    }

    if (!expect("cost")) return false;
    const std::string cost = take();
    const size_t comma = cost.find(',');
    if (comma == std::string::npos) {
      error("bad cost clause '" + cost + "' (expected size,cycles)");
      return false;
    }
    if (!readInt(cost.substr(0, comma), "cost size", &r.size) ||
        !readInt(cost.substr(comma + 1), "cost cycles", &r.cycles))
      return false;

    if (peek() == "mode") {
      ++pos;
      while (!atEnd() && peek() != "when") {
        const std::string kv = take();
        const bool ovm = kv.rfind("ovm=", 0) == 0;
        if (!ovm && kv.rfind("sxm=", 0) != 0) {
          error("bad mode clause '" + kv + "'");
          return false;
        }
        int v;
        if (!readInt(kv.substr(4), "mode bit", &v)) return false;
        if (v != 0 && v != 1) {
          error("bad mode clause '" + kv + "' (a mode bit is 0 or 1)");
          return false;
        }
        (ovm ? r.mode.ovm : r.mode.sxm) = static_cast<int8_t>(v);
      }
    }

    if (peek() == "when") {
      ++pos;
      if (atEnd()) {
        error("'when' gate lists no features");
        return false;
      }
      while (!atEnd()) {
        uint8_t bit;
        if (!featureFromName(peek(), bit)) {
          error("unknown feature '" + peek() + "' in when gate");
          return false;
        }
        out->when |= bit;
        ++pos;
      }
    }
    if (!atEnd()) {
      error("trailing tokens after rule");
      return false;
    }
    return true;
  }
};

/// The cycles every simulator engine charges for `op`: the decoded and
/// translated ledgers read the description's value, ReferenceMachine has it
/// built in, so a description must agree with it. The XY conflict cycle is
/// dynamic and comes on top.
int engineCycles(Opcode op) {
  switch (op) {
    case Opcode::B:
    case Opcode::BZ:
    case Opcode::BGEZ:
    case Opcode::BANZ:
      return 2;
    default:
      return 1;
  }
}

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
  if (!name.empty()) os << "target " << name << "\n\n";
  for (const DescInsn& i : insns) {
    os << "insn " << i.name << " class " << opClassName(i.cls)
       << " operands " << i.info.numOperands << " flags "
       << opInfoFlags(i.info);
    if (i.takesAr) os << " ar";
    if (i.needs) os << " requires " << featureMaskNames(i.needs);
    os << " cycles " << i.cycles << "\n";
  }
  if (!insns.empty()) os << "\n";
  for (const DescRule& r : rules) {
    os << ruleText(r.rule);
    if (r.when) os << " when " << featureMaskNames(r.when);
    os << "\n";
  }
  return os.str();
}

std::optional<TargetDesc> parseTargetDesc(const std::string& text,
                                          DiagEngine& diag) {
  const int errorsBefore = diag.errorCount();
  TargetDesc desc;
  DescParser p(diag);
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ++p.lineNo;
    p.tokenize(line);
    if (p.toks.empty()) continue;
    const std::string& kw = p.toks[0];
    if (kw == "target") {
      if (p.toks.size() != 2) {
        p.error("target clause wants exactly one name");
        continue;
      }
      desc.name = p.toks[1];
      desc.line = p.lineNo;
    } else if (kw == "insn") {
      DescInsn insn;
      if (p.parseInsn(&insn)) desc.insns.push_back(std::move(insn));
    } else if (kw == "rule") {
      DescRule rule;
      if (p.parseRule(&rule)) desc.rules.push_back(std::move(rule));
    } else {
      p.error("unknown directive '" + kw + "'");
    }
  }
  // A rule-only description keeps the default table and needs no name.
  if (desc.name.empty() && !desc.insns.empty())
    diag.error(at(diag, desc.insns.front().line),
               "description has insn clauses but no 'target NAME' clause");
  if (diag.errorCount() > errorsBefore) return std::nullopt;
  return desc;
}

bool validateDesc(const TargetDesc& desc, DiagEngine& diag) {
  const int errorsBefore = diag.errorCount();

  std::map<std::string, int> insnLine;
  std::map<std::string, const DescInsn*> byName;
  for (const DescInsn& i : desc.insns) {
    const SourceLoc loc = at(diag, i.line);
    Opcode op;
    const bool known = opcodeFromName(i.name, op);
    if (!known) diag.error(loc, "insn '" + i.name + "' names no known opcode");
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
    else if (known && i.cycles != engineCycles(op))
      diag.error(loc, "insn '" + i.name + "': cycles " +
                          std::to_string(i.cycles) + " differs from the " +
                          std::to_string(engineCycles(op)) +
                          " every simulator engine charges");
  }

  std::map<std::string, int> ruleLine;
  for (const DescRule& dr : desc.rules) {
    const Rule& r = dr.rule;
    const SourceLoc loc = at(diag, dr.line);
    auto [it, fresh] = ruleLine.emplace(r.name, dr.line);
    if (!fresh)
      diag.error(loc, "duplicate rule '" + r.name + "' (first at line " +
                          std::to_string(it->second) + ")");
    int slots = RuleSet::numSlots(r);
    for (const EmitTemplate& e : r.emit) {
      // A rule-only description keeps the default table's every opcode.
      if (!desc.insns.empty() && !byName.count(opcodeName(e.op)))
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
    diag.error(at(diag, 0),
               std::string("zero-size chain-rule cycle through ") +
                   nontermName(cyc));
  if (zeroCostChainCycle(desc, /*useCycles=*/true, &cyc))
    diag.error(at(diag, 0),
               std::string("zero-cycle chain-rule cycle through ") +
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
      diag.error(at(diag, dr.line),
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
  if (!desc.name.empty()) t.name = desc.name;
  for (const DescInsn& i : desc.insns) {
    Opcode op;
    if (!opcodeFromName(i.name, op)) {
      diag.error(at(diag, i.line),
                 "insn '" + i.name + "' names no known opcode");
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
    diag.error(at(diag, desc.line),
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

#include "target/isd.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace record {

namespace {

const char* const kNontermNames[kNumNonterms] = {"stmt", "acc", "mem",
                                                 "imm8", "imm16"};

/// Preorder list of a pattern's leaves (NtLeaf and ConstLeaf alike) --
/// the index space the textual `$k` operand references live in.
void collectLeaves(const PatNode& p, std::vector<const PatNode*>& out) {
  switch (p.kind) {
    case PatNode::Kind::ConstLeaf:
    case PatNode::Kind::NtLeaf:
      out.push_back(&p);
      return;
    case PatNode::Kind::OpNode:
      for (const auto& k : p.kids) collectLeaves(k, out);
      return;
  }
}

void assignSlotsRec(PatNode& p, int& next) {
  if (p.kind == PatNode::Kind::NtLeaf) {
    p.slot = (p.nt == Nonterm::Mem || p.nt == Nonterm::Imm8 ||
              p.nt == Nonterm::Imm16)
                 ? next++
                 : -1;
    return;
  }
  for (auto& k : p.kids) assignSlotsRec(k, next);
}

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

}  // namespace

const char* nontermName(Nonterm nt) {
  return kNontermNames[static_cast<int>(nt)];
}

bool nontermFromName(const std::string& name, Nonterm& out) {
  for (int i = 0; i < kNumNonterms; ++i) {
    if (name == kNontermNames[i]) {
      out = static_cast<Nonterm>(i);
      return true;
    }
  }
  return false;
}

PatNode PatNode::leaf(Nonterm nt) {
  PatNode p;
  p.kind = Kind::NtLeaf;
  p.nt = nt;
  return p;
}

PatNode PatNode::constant(int64_t v) {
  PatNode p;
  p.kind = Kind::ConstLeaf;
  p.cval = v;
  return p;
}

PatNode PatNode::node(Op op, std::vector<PatNode> kids) {
  PatNode p;
  p.kind = Kind::OpNode;
  p.op = op;
  p.kids = std::move(kids);
  return p;
}

std::string PatNode::str() const {
  switch (kind) {
    case Kind::ConstLeaf:
      return "(const " + std::to_string(cval) + ")";
    case Kind::NtLeaf:
      return nontermName(nt);
    case Kind::OpNode: {
      std::string s = "(";
      s += opName(op);
      for (const auto& k : kids) {
        s += " ";
        s += k.str();
      }
      s += ")";
      return s;
    }
  }
  return "?";
}

void assignSlots(PatNode& pat) {
  int next = 0;
  assignSlotsRec(pat, next);
}

bool Rule::needsTemp() const {
  for (const auto& e : emit)
    if (e.a.kind == OperTemplate::Kind::Temp ||
        e.b.kind == OperTemplate::Kind::Temp)
      return true;
  return false;
}

int RuleSet::numSlots(const Rule& r) {
  std::vector<const PatNode*> leaves;
  collectLeaves(r.pat, leaves);
  int n = 0;
  for (const PatNode* l : leaves)
    if (l->kind == PatNode::Kind::NtLeaf && l->slot >= 0) ++n;
  return n;
}

namespace {

int patternDepth(const PatNode& p) {
  if (p.kind != PatNode::Kind::OpNode) return 0;
  int d = 0;
  for (const auto& k : p.kids) d = std::max(d, patternDepth(k));
  return d + 1;
}

int maxPatternSlot(const PatNode& p) {
  int m = p.kind == PatNode::Kind::NtLeaf ? p.slot : -1;
  for (const auto& k : p.kids) m = std::max(m, maxPatternSlot(k));
  return m;
}

RuleIndex buildIndex(const std::vector<Rule>& rules) {
  RuleIndex ix;
  ix.numRules = rules.size();
  ix.byOp.resize(static_cast<size_t>(Op::Store) + 1);
  int maxDepth = 0;
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& r = rules[ri];
    const int i = static_cast<int>(ri);
    if (r.pat.kind == PatNode::Kind::NtLeaf)
      ix.chain.push_back(i);
    else if (r.pat.kind == PatNode::Kind::OpNode)
      ix.byOp[static_cast<size_t>(r.pat.op)].push_back(i);
    else  // ConstLeaf patterns only ever match Const nodes
      ix.byOp[static_cast<size_t>(Op::Const)].push_back(i);
    maxDepth = std::max(maxDepth, patternDepth(r.pat));
    int slot = maxPatternSlot(r.pat);
    for (const EmitTemplate& t : r.emit)
      for (const OperTemplate* ot : {&t.a, &t.b})
        if (ot->kind == OperTemplate::Kind::Slot)
          slot = std::max(slot, ot->slot);
    ix.maxSlots = std::max(ix.maxSlots, slot + 1);
  }
  // The kid-sum lower bound assumes a pattern rooted at a node reaches at
  // most its grandchildren (every deeper node is then covered through its
  // own labeled cost). Rule sets with deeper patterns run unbounded.
  ix.boundable = maxDepth <= 2;
  return ix;
}

}  // namespace

const RuleIndex& RuleSet::index() const {
  const RuleIndex* ix = index_.ptr.load();
  if (!ix) {
    // Racing first callers may each build one; the first to publish wins.
    auto* built = new RuleIndex(buildIndex(rules));
    if (index_.ptr.compare_exchange_strong(ix, built))
      ix = built;
    else
      delete built;
  }
  assert(ix->numRules == rules.size() && "rules edited after indexing");
  return *ix;
}

RuleSet::IndexCache& RuleSet::IndexCache::operator=(const IndexCache&) {
  delete ptr.exchange(nullptr);
  return *this;
}

RuleSet::IndexCache::~IndexCache() { delete ptr.load(); }

std::string RuleSet::str() const {
  std::ostringstream os;
  for (const Rule& r : rules) {
    os << "rule " << r.name << " " << nontermName(r.lhs) << " <- "
       << r.pat.str();
    os << " emit";
    std::vector<const PatNode*> leaves;
    collectLeaves(r.pat, leaves);
    auto operandText = [&](const OperTemplate& ot) -> std::string {
      switch (ot.kind) {
        case OperTemplate::Kind::None:
          return "";
        case OperTemplate::Kind::Slot:
          // Render as the all-leaves index the parser's `$k` expects.
          for (size_t i = 0; i < leaves.size(); ++i)
            if (leaves[i]->kind == PatNode::Kind::NtLeaf &&
                leaves[i]->slot == ot.slot)
              return "$" + std::to_string(i);
          return "$?";
        case OperTemplate::Kind::FixedImm:
          return "#" + std::to_string(ot.imm);
        case OperTemplate::Kind::Temp:
          return "%t";
      }
      return "";
    };
    if (r.emit.empty()) os << " -";
    for (size_t j = 0; j < r.emit.size(); ++j) {
      if (j > 0) os << " ;";
      os << " " << opcodeName(r.emit[j].op);
      std::string a = operandText(r.emit[j].a);
      std::string b = operandText(r.emit[j].b);
      if (!a.empty()) os << " " << a;
      if (!b.empty()) os << ", " << b;
    }
    os << " cost " << r.size << "," << r.cycles;
    if (r.mode.ovm != -1 || r.mode.sxm != -1) {
      os << " mode";
      if (r.mode.ovm != -1) os << " ovm=" << int{r.mode.ovm};
      if (r.mode.sxm != -1) os << " sxm=" << int{r.mode.sxm};
    }
    os << "\n";
  }
  return os.str();
}

namespace {

struct IsdParser {
  DiagEngine& diag;
  int lineNo = 0;
  std::vector<std::string> toks;
  size_t pos = 0;

  explicit IsdParser(DiagEngine& d) : diag(d) {}

  void error(const std::string& msg) { diag.error({lineNo, 0}, msg); }

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

  void tokenize(const std::string& line) {
    toks.clear();
    pos = 0;
    std::string cur;
    auto flush = [&] {
      if (!cur.empty()) toks.push_back(cur);
      cur.clear();
    };
    for (char c : line) {
      if (c == '#') break;  // comment
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

  bool parsePattern(PatNode& out) {
    std::string t = take();
    if (t == "(") {
      std::string head = take();
      if (head == "const") {
        try {
          out = PatNode::constant(std::stoll(take()));
        } catch (...) {
          error("bad constant in pattern");
          return false;
        }
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
      ++pos;  // consume ')'
      out = PatNode::node(op, std::move(kids));
      return true;
    }
    Nonterm nt;
    if (!nontermFromName(t, nt)) {
      error("unknown pattern leaf '" + t + "'");
      return false;
    }
    out = PatNode::leaf(nt);
    return true;
  }

  bool parseOperand(const std::string& raw,
                    const std::vector<const PatNode*>& leaves,
                    OperTemplate& out) {
    std::string t = raw;
    while (!t.empty() && t.back() == ',') t.pop_back();
    if (t.empty()) {
      error("empty operand");
      return false;
    }
    if (t == "%t") {
      out = OperTemplate::temp();
      return true;
    }
    if (t[0] == '#') {
      try {
        out = OperTemplate::fixedImm(static_cast<int>(std::stol(t.substr(1))));
      } catch (...) {
        error("bad immediate '" + t + "'");
        return false;
      }
      return true;
    }
    if (t[0] == '$') {
      size_t idx;
      try {
        idx = static_cast<size_t>(std::stoul(t.substr(1)));
      } catch (...) {
        error("bad leaf reference '" + t + "'");
        return false;
      }
      if (idx >= leaves.size()) {
        error("leaf reference " + t + " out of range");
        return false;
      }
      const PatNode* leaf = leaves[idx];
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
    error("bad operand '" + raw + "'");
    return false;
  }

  bool parseRule(Rule& r) {
    if (!expect("rule")) return false;
    r.name = take();
    if (r.name.empty()) {
      error("missing rule name");
      return false;
    }
    if (!nontermFromName(take(), r.lhs)) {
      error("unknown rule lhs nonterminal");
      return false;
    }
    if (!expect("<-")) return false;
    if (!parsePattern(r.pat)) return false;
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
      int nOperands = 0;
      while (!atEnd() && peek() != "cost" && peek() != ";") {
        OperTemplate ot;
        if (!parseOperand(take(), leaves, ot)) return false;
        if (nOperands == 0)
          et.a = ot;
        else if (nOperands == 1)
          et.b = ot;
        else {
          error("too many operands in emit clause");
          return false;
        }
        ++nOperands;
      }
      r.emit.push_back(et);
    }

    if (!expect("cost")) return false;
    int size = 0, cycles = 0;
    if (std::sscanf(take().c_str(), "%d,%d", &size, &cycles) != 2) {
      error("bad cost clause (expected size,cycles)");
      return false;
    }
    r.size = size;
    r.cycles = cycles;

    if (peek() == "mode") {
      ++pos;
      while (!atEnd()) {
        std::string kv = take();
        int v = 0;
        const bool ovm = std::sscanf(kv.c_str(), "ovm=%d", &v) == 1;
        if ((ovm || std::sscanf(kv.c_str(), "sxm=%d", &v) == 1) &&
            (v == 0 || v == 1)) {
          (ovm ? r.mode.ovm : r.mode.sxm) = static_cast<int8_t>(v);
        } else {
          error("bad mode clause '" + kv + "'");
          return false;
        }
      }
    }
    if (!atEnd()) {
      error("trailing tokens after rule");
      return false;
    }
    return true;
  }
};

}  // namespace

std::optional<RuleSet> parseIsd(const std::string& text, DiagEngine& diag) {
  RuleSet rs;
  IsdParser p(diag);
  std::istringstream is(text);
  std::string line;
  bool ok = true;
  while (std::getline(is, line)) {
    ++p.lineNo;
    p.tokenize(line);
    if (p.toks.empty()) continue;
    Rule r;
    if (p.parseRule(r))
      rs.rules.push_back(std::move(r));
    else
      ok = false;
  }
  if (!ok || diag.hasErrors()) return std::nullopt;
  return rs;
}

}  // namespace record

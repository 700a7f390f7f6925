#include "target/isd.h"

#include <algorithm>
#include <cassert>

namespace record {

namespace {

const char* const kNontermNames[kNumNonterms] = {"stmt", "acc", "mem",
                                                 "imm8", "imm16"};

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

std::string ruleText(const Rule& r) {
  std::vector<const PatNode*> leaves;
  collectLeaves(r.pat, leaves);
  // Slot and fixed-immediate operands both print as the `$k` of the leaf
  // they came from: a fixed immediate is only ever made from a (const v).
  auto operandText = [&](const OperTemplate& ot) -> std::string {
    switch (ot.kind) {
      case OperTemplate::Kind::None:
        return "";
      case OperTemplate::Kind::Temp:
        return "%t";
      case OperTemplate::Kind::Slot:
      case OperTemplate::Kind::FixedImm:
        break;
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      const PatNode& l = *leaves[i];
      if (ot.kind == OperTemplate::Kind::Slot
              ? l.kind == PatNode::Kind::NtLeaf && l.slot == ot.slot
              : l.kind == PatNode::Kind::ConstLeaf && l.cval == ot.imm)
        return "$" + std::to_string(i);
    }
    return "$?";
  };
  std::string s = "rule " + r.name + " " + nontermName(r.lhs) + " <- " +
                  r.pat.str() + " emit";
  if (r.emit.empty()) s += " -";
  for (size_t j = 0; j < r.emit.size(); ++j) {
    if (j > 0) s += " ;";
    s += " ";
    s += opcodeName(r.emit[j].op);
    std::string a = operandText(r.emit[j].a);
    std::string b = operandText(r.emit[j].b);
    if (!a.empty()) s += " " + a;
    if (!b.empty()) s += ", " + b;
  }
  s += " cost " + std::to_string(r.size) + "," + std::to_string(r.cycles);
  if (r.mode.ovm != -1 || r.mode.sxm != -1) {
    s += " mode";
    if (r.mode.ovm != -1) s += " ovm=" + std::to_string(r.mode.ovm);
    if (r.mode.sxm != -1) s += " sxm=" + std::to_string(r.mode.sxm);
  }
  return s;
}

std::string RuleSet::str() const {
  std::string s;
  for (const Rule& r : rules) s += ruleText(r) + "\n";
  return s;
}

}  // namespace record

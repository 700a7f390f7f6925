#include "ir/interp.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace record {

namespace {

// Out of line, so the evaluator's hot paths build no strings.
[[noreturn, gnu::noinline, gnu::cold]] void fail(const std::string& msg) {
  throw std::runtime_error(msg);
}
[[noreturn, gnu::noinline, gnu::cold]] void fail(const char* what,
                                                 const Symbol* sym) {
  throw std::runtime_error(what + sym->name);
}

}  // namespace

struct Interp::Scope {
  static constexpr size_t kNoSlot = SIZE_MAX;

  // Symbols with storage and their slots, sorted by symbol.
  std::vector<std::pair<const Symbol*, size_t>> slots;
  std::vector<const Symbol*> ivars;  // loop induction symbols, by cell
  // Induction symbols bound where flattening stands: a loop binds its ivar
  // for its body and unbinds it on exit, so this is exactly the set of
  // bindings at run time there.
  std::vector<const Symbol*> bound;
  size_t nodes = 0, steps = 0;  // bounds on the size of the flat form

  static bool before(const std::pair<const Symbol*, size_t>& p,
                     const Symbol* s) {
    return std::less<const Symbol*>()(p.first, s);
  }
  size_t slot(const Symbol* s) const {
    auto it = std::lower_bound(slots.begin(), slots.end(), s, before);
    return it != slots.end() && it->first == s ? it->second : kNoSlot;
  }
  size_t ivar(const Symbol* s) const {
    return static_cast<size_t>(std::find(ivars.begin(), ivars.end(), s) -
                               ivars.begin());
  }
  bool isBound(const Symbol* s) const {
    return std::find(bound.begin(), bound.end(), s) != bound.end();
  }

  /// Collect the loop induction symbols of `body` and size its flat form.
  void survey(const std::vector<Stmt>& body) {
    for (const Stmt& s : body) {
      ++steps;
      if (s.kind == Stmt::Kind::For) {
        if (ivar(s.ivar) == ivars.size()) ivars.push_back(s.ivar);
        survey(s.body);
      } else {
        nodes += static_cast<size_t>(s.rhs->numNodes());
        if (s.lhsIndex) nodes += static_cast<size_t>(s.lhsIndex->numNodes());
      }
    }
  }
};

Interp::Interp(const Program& prog) : prog_(prog) {
  Scope sc;
  const auto& syms = prog.symbols.all();
  store_.reserve(syms.size());
  slotSym_.reserve(syms.size());
  sc.slots.reserve(syms.size());
  for (const auto& s : syms) {
    if (s->kind == SymKind::Const || s->kind == SymKind::Induction) continue;
    size_t n = s->isArray() ? static_cast<size_t>(s->arraySize)
                            : static_cast<size_t>(1 + s->delayDepth);
    sc.slots.push_back({s.get(), store_.size()});
    if (s->delayDepth > 0) delayLines_.push_back(store_.size());
    store_.emplace_back(n, 0);
    slotSym_.push_back(s.get());
    if (s->kind == SymKind::Output && s->isScalar())
      traces_.push_back({s.get(), store_.back().data(), {}});
  }
  std::sort(sc.slots.begin(), sc.slots.end(),
            [](const auto& a, const auto& b) {
              return Scope::before(a, b.first);
            });
  sc.survey(prog.body);
  ivars_.assign(sc.ivars.size(), 0);
  nodes_.reserve(sc.nodes);
  steps_.reserve(sc.steps);
  flatten(prog.body, sc);
}

uint32_t Interp::message(std::string msg) {
  traps_.push_back(std::move(msg));
  return static_cast<uint32_t>(traps_.size() - 1);
}

void Interp::flatten(const std::vector<Stmt>& body, Scope& sc) {
  for (const Stmt& s : body) {
    Step st;
    if (s.kind == Stmt::Kind::For) {
      const size_t at = steps_.size();
      st.kind = StepKind::Loop;
      st.cells = &ivars_[sc.ivar(s.ivar)];
      st.lo = s.lo;
      st.step = s.step;
      st.trips = s.tripCount();
      steps_.push_back(st);
      if (!sc.isBound(s.ivar)) sc.bound.push_back(s.ivar);
      flatten(s.body, sc);
      std::erase(sc.bound, s.ivar);
      steps_[at].end = static_cast<uint32_t>(steps_.size());
      continue;
    }
    st.rhs = flatten(*s.rhs, sc);
    const size_t slot = sc.slot(s.lhs);
    if (slot == Scope::kNoSlot) {
      st.kind = StepKind::Trap;
      st.size = message("no storage: " + s.lhs->name);
    } else if (s.lhsIndex) {
      st.kind = StepKind::StoreAt;
      st.index = flatten(*s.lhsIndex, sc);
      st.cells = store_[slot].data();
      st.size = static_cast<uint32_t>(store_[slot].size());
      st.sym = s.lhs;
    } else {
      st.cells = store_[slot].data();
    }
    steps_.push_back(st);
  }
}

uint32_t Interp::flatten(const Expr& e, Scope& sc) {
  const size_t start = nodes_.size();
  Node n;
  auto trapWith = [&](std::string msg) {
    n.kind = NodeKind::Trap;
    n.size = message(std::move(msg));
  };
  switch (e.op) {
    case Op::Const:
      n.value = e.value;
      break;
    case Op::Ref: {
      if (e.sym->kind == SymKind::Const) {
        n.value = e.sym->constValue;
      } else if (e.sym->kind == SymKind::Induction) {
        if (sc.isBound(e.sym)) {
          n.kind = NodeKind::Load;
          n.cells = &ivars_[sc.ivar(e.sym)];
        } else {
          trapWith("induction var outside loop: " + e.sym->name);
        }
      } else if (size_t slot = sc.slot(e.sym); slot == Scope::kNoSlot) {
        trapWith("no storage: " + e.sym->name);
      } else if (auto d = static_cast<size_t>(e.value);
                 d >= store_[slot].size()) {
        trapWith("delay out of range: " + e.sym->name);
      } else {
        n.kind = NodeKind::Load;
        n.cells = store_[slot].data() + d;
      }
      break;
    }
    case Op::ArrayRef: {
      if (e.kids.size() != 1) {
        trapWith("bad op");
        break;
      }
      // The index is evaluated before the storage check fires.
      n.a = flatten(*e.kids[0], sc);
      const size_t slot = sc.slot(e.sym);
      if (slot == Scope::kNoSlot) {
        trapWith("no storage: " + e.sym->name);
        break;
      }
      const Node& idx = nodes_[n.a];
      auto& c = store_[slot];
      if (idx.kind == NodeKind::Const && idx.value >= 0 &&
          static_cast<size_t>(idx.value) < c.size()) {
        // A constant in-range index resolves to its cell.
        n.kind = NodeKind::Load;
        n.cells = c.data() + static_cast<size_t>(idx.value);
        n.a = kNone;
        nodes_.resize(start);
        break;
      }
      n.kind = NodeKind::Index;
      n.cells = c.data();
      n.size = static_cast<uint32_t>(c.size());
      n.sym = e.sym;
      break;
    }
    case Op::Neg: n.kind = NodeKind::Neg; break;
    case Op::Add: n.kind = NodeKind::Add; break;
    case Op::Sub: n.kind = NodeKind::Sub; break;
    case Op::Mul: n.kind = NodeKind::Mul; break;
    case Op::SatAdd: n.kind = NodeKind::SatAdd; break;
    case Op::SatSub: n.kind = NodeKind::SatSub; break;
    case Op::Shl: n.kind = NodeKind::Shl; break;
    case Op::Shr: n.kind = NodeKind::Shr; break;
    case Op::Shru: n.kind = NodeKind::Shru; break;
    case Op::And: n.kind = NodeKind::And; break;
    case Op::Or: n.kind = NodeKind::Or; break;
    case Op::Xor: n.kind = NodeKind::Xor; break;
    case Op::Store:  // pattern-tree only; never evaluated
      trapWith("bad op");
      break;
  }
  if (n.kind >= NodeKind::Neg) {
    if (e.kids.size() != static_cast<size_t>(opArity(e.op))) {
      trapWith("bad op");
    } else {
      n.a = flatten(*e.kids[0], sc);
      if (n.kind != NodeKind::Neg) n.b = flatten(*e.kids[1], sc);
    }
  }
  nodes_.push_back(n);
  const auto self = static_cast<uint32_t>(nodes_.size() - 1);
  // Fold an operator over constants with this evaluator: the operators
  // never throw, so folding raises no error early.
  auto isConst = [&](uint32_t k) {
    return k == kNone || nodes_[k].kind == NodeKind::Const;
  };
  if (n.kind >= NodeKind::Neg && isConst(n.a) && isConst(n.b)) {
    Node folded;
    folded.value = eval(self);
    nodes_.resize(start);
    nodes_.push_back(folded);
  }
  return static_cast<uint32_t>(nodes_.size() - 1);
}

// An indexed load. Its index is most often an induction cell, read in
// place.
inline int64_t Interp::load(const Node& n) const {
  const Node& k = nodes_[n.a];
  const int64_t idx = k.kind == NodeKind::Load ? *k.cells : eval(n.a);
  if (idx < 0 || static_cast<uint64_t>(idx) >= n.size)
    fail("array index out of range: ", n.sym);
  return n.cells[idx];
}

// Leaves and indexed loads are read in place; other nodes cost a call.
inline int64_t Interp::operand(uint32_t i) const {
  const Node& n = nodes_[i];
  switch (n.kind) {
    case NodeKind::Load: return *n.cells;
    case NodeKind::Const: return n.value;
    case NodeKind::Index: return load(n);
    default: return eval(i);
  }
}

int64_t Interp::eval(uint32_t i) const {
  const Node& n = nodes_[i];
  switch (n.kind) {
    case NodeKind::Const:
      return n.value;
    case NodeKind::Load:
      return *n.cells;
    case NodeKind::Index:
      return load(n);
    case NodeKind::Trap:
      if (n.a != kNone) eval(n.a);
      fail(traps_[n.size]);
    case NodeKind::Neg:
      return wrap32(-operand(n.a));
    default:
      break;
  }
  const int64_t a = operand(n.a);
  const int64_t b = operand(n.b);
  switch (n.kind) {
    case NodeKind::Add: return wrap32(a + b);
    case NodeKind::Sub: return wrap32(a - b);
    // Mul is defined as the hardware multiplier: operands pass through a
    // 16-bit port (T register / memory word), the product keeps 32 bits.
    // This makes spilling a compound multiplicand through a 16-bit temp an
    // *exact* implementation, not an approximation the oracle must forgive.
    case NodeKind::Mul: return mul16(a, b);
    case NodeKind::SatAdd: return sat32(a + b);
    case NodeKind::SatSub: return sat32(a - b);
    case NodeKind::Shl: return wrapShl32(a, b);
    case NodeKind::Shr: return asr32(a, b);
    case NodeKind::Shru: return lsr32(a, b);
    case NodeKind::And: return and16(a, b);
    case NodeKind::Or: return or16(a, b);
    case NodeKind::Xor: return xor16(a, b);
    default: break;
  }
  fail("bad op");
}

void Interp::exec(uint32_t begin, uint32_t end) {
  for (uint32_t i = begin; i < end; ++i) {
    const Step& s = steps_[i];
    switch (s.kind) {
      case StepKind::Store:
        *s.cells = wrap16(eval(s.rhs));
        break;
      case StepKind::StoreAt: {
        int64_t v = wrap16(eval(s.rhs));
        int64_t idx = operand(s.index);
        if (idx < 0 || static_cast<uint64_t>(idx) >= s.size)
          fail("store index out of range: ", s.sym);
        s.cells[idx] = v;
        break;
      }
      case StepKind::Trap:
        eval(s.rhs);
        fail(traps_[s.size]);
      case StepKind::Loop:
        // Iterate the trip count: a step-0 loop runs no trips, and no
        // induction value steps past `hi`.
        for (int64_t k = 0; k < s.trips; ++k) {
          *s.cells = static_cast<int64_t>(
              static_cast<uint64_t>(s.lo) +
              static_cast<uint64_t>(k) * static_cast<uint64_t>(s.step));
          exec(i + 1, s.end);
        }
        i = s.end - 1;
        break;
    }
  }
}

void Interp::run(int ticks) {
  for (int t = 0; t < ticks; ++t) {
    const auto tick = static_cast<size_t>(tick_);
    for (const Stream& st : streams_) {
      if (tick >= st.vals.size()) continue;
      if (!st.cell) throw std::runtime_error("no storage: " + st.name);
      *st.cell = wrap16(st.vals[tick]);
    }
    exec(0, static_cast<uint32_t>(steps_.size()));
    for (Trace& tr : traces_) tr.vals.push_back(*tr.cell);
    // Shift delay lines: cell k becomes the value that was at k-1.
    for (size_t slot : delayLines_) {
      auto& c = store_[slot];
      std::copy_backward(c.begin(), c.end() - 1, c.end());
    }
    ++tick_;
  }
}

size_t Interp::slotFor(const Symbol* s) const {
  return static_cast<size_t>(std::find(slotSym_.begin(), slotSym_.end(), s) -
                             slotSym_.begin());
}

size_t Interp::slotOf(const std::string& name) const {
  const Symbol* s = prog_.symbols.lookup(name);
  if (!s) throw std::runtime_error("unknown symbol: " + name);
  const size_t slot = slotFor(s);
  if (slot == store_.size()) throw std::runtime_error("no storage: " + name);
  return slot;
}

void Interp::setArray(const std::string& name,
                      const std::vector<int64_t>& vals) {
  auto& c = store_[slotOf(name)];
  for (size_t i = 0; i < c.size(); ++i)
    c[i] = i < vals.size() ? wrap16(vals[i]) : 0;
}

void Interp::setScalar(const std::string& name, int64_t v) {
  store_[slotOf(name)][0] = wrap16(v);
}

void Interp::setStream(const std::string& name, std::vector<int64_t> perTick) {
  // A name outside the program is never fed; a symbol without storage
  // fails when it is.
  const Symbol* s = prog_.symbols.lookup(name);
  if (!s) return;
  const size_t slot = slotFor(s);
  int64_t* cell = slot < store_.size() ? store_[slot].data() : nullptr;
  auto it = std::lower_bound(
      streams_.begin(), streams_.end(), name,
      [](const Stream& st, const std::string& n) { return st.name < n; });
  if (it == streams_.end() || it->name != name)
    it = streams_.insert(it, Stream{name, nullptr, {}});
  it->cell = cell;
  it->vals = std::move(perTick);
}

int64_t Interp::scalar(const std::string& name) const {
  return store_[slotOf(name)][0];
}

const std::vector<int64_t>& Interp::array(const std::string& name) const {
  return store_[slotOf(name)];
}

const std::vector<int64_t>& Interp::trace(const std::string& name) const {
  // Traces exist once a tick has completed.
  if (tick_ > 0)
    for (const Trace& tr : traces_)
      if (tr.sym->name == name) return tr.vals;
  throw std::runtime_error("no trace for: " + name);
}

}  // namespace record

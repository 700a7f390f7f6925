#include "ir/program.h"

#include <cassert>
#include <sstream>

namespace record {

Stmt Stmt::assign(const Symbol* lhs, ExprPtr rhs, ExprPtr index) {
  Stmt s;
  s.kind = Kind::Assign;
  s.lhs = lhs;
  s.rhs = std::move(rhs);
  s.lhsIndex = std::move(index);
  return s;
}

Stmt Stmt::forLoop(const Symbol* ivar, int64_t lo, int64_t hi, int64_t step,
                   std::vector<Stmt> body) {
  Stmt s;
  s.kind = Kind::For;
  s.ivar = ivar;
  s.lo = lo;
  s.hi = hi;
  s.step = step;
  s.body = std::move(body);
  return s;
}

int64_t Stmt::tripCount() const {
  assert(kind == Kind::For);
  if (step == 0) return 0;
  if (step > 0 && hi < lo) return 0;
  if (step < 0 && hi > lo) return 0;
  return (hi - lo) / step + 1;
}

std::string Stmt::str(int indent) const {
  std::ostringstream os;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (kind == Kind::Assign) {
    os << pad << lhs->name;
    if (lhsIndex) os << "[" << lhsIndex->str() << "]";
    os << " := " << rhs->str() << ";";
  } else {
    os << pad << "for " << ivar->name << " := " << lo << " to " << hi;
    if (step != 1) os << " step " << step;
    os << " do\n";
    for (const auto& st : body) os << st.str(indent + 1) << "\n";
    os << pad << "endfor";
  }
  return os.str();
}

std::string Program::str() const {
  std::ostringstream os;
  os << "program " << name << ";\n";
  for (const auto& s : symbols.all()) {
    if (s->kind == SymKind::Induction) continue;
    os << symKindName(s->kind) << " " << s->name;
    if (s->isArray()) os << "[" << s->arraySize << "]";
    if (s->delayDepth > 0) os << " delay " << s->delayDepth;
    if (s->kind == SymKind::Const)
      os << " = " << s->constValue;
    else
      os << " : " << typeName(s->type);
    os << ";\n";
  }
  os << "begin\n";
  for (const auto& st : body) os << st.str(1) << "\n";
  os << "end\n";
  return os.str();
}

std::vector<const Symbol*> Program::storageSymbols() const {
  std::vector<const Symbol*> out;
  for (const auto& s : symbols.all())
    if (s->storageWords() > 0) out.push_back(s.get());
  return out;
}

int64_t foldOp(Op op, int64_t a, int64_t b) {
  switch (op) {
    // Folding must agree bit-for-bit with Interp::eval (the golden model),
    // so every case goes through the same type.h helpers.
    case Op::Add: return wrap32(a + b);
    case Op::Sub: return wrap32(a - b);
    case Op::Mul: return mul16(a, b);
    case Op::Neg: return wrap32(-a);
    case Op::SatAdd: return sat32(a + b);
    case Op::SatSub: return sat32(a - b);
    case Op::Shl: return wrapShl32(a, b);
    case Op::Shr: return asr32(a, b);
    case Op::Shru: return lsr32(a, b);
    case Op::And: return and16(a, b);
    case Op::Or: return or16(a, b);
    case Op::Xor: return xor16(a, b);
    default: return 0;
  }
}

ExprPtr foldConstants(const ExprPtr& e) {
  if (opIsLeaf(e->op)) return e;
  ExprKids kids;
  bool changed = false;
  for (const auto& k : e->kids) {
    auto f = foldConstants(k);
    changed |= (f != k);
    kids.push_back(std::move(f));
  }
  auto allConst = [&kids]() {
    for (const auto& k : kids)
      if (k->op != Op::Const) return false;
    return true;
  };
  if (e->op != Op::ArrayRef && allConst())
    return Expr::constant(
        foldOp(e->op, kids[0]->value, kids.size() > 1 ? kids[1]->value : 0),
        e->type);
  return changed ? Expr::withKids(*e, std::move(kids)) : e;
}

ExprPtr substInduction(const ExprPtr& e, const Symbol* ivar, int64_t v) {
  if (e->op == Op::Ref) {
    if (e->sym == ivar) return Expr::constant(v, Type::Int);
    return e;
  }
  if (e->op == Op::Const) return e;
  ExprKids kids;
  bool changed = false;
  for (const auto& k : e->kids) {
    auto s = substInduction(k, ivar, v);
    changed |= (s != k);
    kids.push_back(std::move(s));
  }
  if (!changed) return e;
  return foldConstants(Expr::withKids(*e, std::move(kids)));
}

static void flattenInto(const std::vector<Stmt>& body,
                        std::vector<Stmt>& out) {
  for (const auto& s : body) {
    if (s.kind == Stmt::Kind::Assign) {
      out.push_back(Stmt::assign(s.lhs, s.rhs, s.lhsIndex));
      continue;
    }
    for (int64_t v = s.lo; (s.step > 0) ? v <= s.hi : v >= s.hi;
         v += s.step) {
      std::vector<Stmt> inner;
      for (const auto& b : s.body) {
        if (b.kind == Stmt::Kind::Assign) {
          inner.push_back(
              Stmt::assign(b.lhs, substInduction(b.rhs, s.ivar, v),
                           b.lhsIndex ? substInduction(b.lhsIndex, s.ivar, v)
                                      : nullptr));
        } else {
          // Nested loop: substitute outer induction in bounds-independent
          // bodies, then recurse. (Bounds are constants by construction.)
          Stmt nested = b;
          std::vector<Stmt> nbody;
          for (const auto& nb : b.body) {
            assert(nb.kind == Stmt::Kind::Assign &&
                   "only two levels of nesting supported");
            nbody.push_back(
                Stmt::assign(nb.lhs, substInduction(nb.rhs, s.ivar, v),
                             nb.lhsIndex
                                 ? substInduction(nb.lhsIndex, s.ivar, v)
                                 : nullptr));
          }
          nested.body = std::move(nbody);
          inner.push_back(std::move(nested));
        }
      }
      flattenInto(inner, out);
    }
  }
}

std::vector<Stmt> flattenStmts(const std::vector<Stmt>& body) {
  std::vector<Stmt> out;
  flattenInto(body, out);
  return out;
}

}  // namespace record

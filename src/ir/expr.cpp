#include "ir/expr.h"

#include <algorithm>
#include <sstream>

namespace record {

const char* opName(Op op) {
  switch (op) {
    case Op::Const: return "const";
    case Op::Ref: return "ref";
    case Op::ArrayRef: return "aref";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::Neg: return "neg";
    case Op::SatAdd: return "sadd";
    case Op::SatSub: return "ssub";
    case Op::Shl: return "shl";
    case Op::Shr: return "shr";
    case Op::Shru: return "shru";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Store: return "store";
  }
  return "?";
}

int opArity(Op op) {
  switch (op) {
    case Op::Const:
    case Op::Ref:
      return 0;
    case Op::ArrayRef:
    case Op::Neg:
      return 1;
    default:
      return 2;
  }
}

bool opCommutes(Op op) {
  // And commutes because the 16-bit mask is itself an AND; Or/Xor do not
  // (the left operand keeps its high accumulator half).
  return op == Op::Add || op == Op::Mul || op == Op::SatAdd ||
         op == Op::And;
}

bool opIsLeaf(Op op) { return op == Op::Const || op == Op::Ref; }

ExprPtr Expr::constant(int64_t v, Type t) {
  auto e = std::make_shared<Expr>();
  e->op = Op::Const;
  e->value = v;
  e->type = t;
  return e;
}

ExprPtr Expr::ref(const Symbol* s, int delay) {
  assert(s != nullptr);
  auto e = std::make_shared<Expr>();
  e->op = Op::Ref;
  e->sym = s;
  e->value = delay;
  e->type = s->type;
  return e;
}

ExprPtr Expr::arrayRef(const Symbol* s, ExprPtr index) {
  assert(s != nullptr && index != nullptr);
  auto e = std::make_shared<Expr>();
  e->op = Op::ArrayRef;
  e->sym = s;
  e->kids.push_back(std::move(index));
  e->type = s->type;
  return e;
}

ExprPtr Expr::unary(Op op, ExprPtr a) {
  assert(opArity(op) == 1);
  auto e = std::make_shared<Expr>();
  e->op = op;
  e->type = a->type;
  e->kids.push_back(std::move(a));
  return e;
}

ExprPtr Expr::binary(Op op, ExprPtr a, ExprPtr b) {
  assert(opArity(op) == 2);
  auto e = std::make_shared<Expr>();
  e->op = op;
  e->type = a->type;
  e->kids.push_back(std::move(a));
  e->kids.push_back(std::move(b));
  return e;
}

ExprPtr Expr::withKids(const Expr& like, ExprKids kids) {
  if (like.op == Op::ArrayRef) return arrayRef(like.sym, std::move(kids[0]));
  if (kids.size() == 1) return unary(like.op, std::move(kids[0]));
  return binary(like.op, std::move(kids[0]), std::move(kids[1]));
}

int Expr::numNodes() const {
  int n = 1;
  for (const auto& k : kids) n += k->numNodes();
  return n;
}

int Expr::depth() const {
  int d = 0;
  for (const auto& k : kids) d = std::max(d, k->depth());
  return d + 1;
}

uint64_t Expr::hash() const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(op));
  mix(static_cast<uint64_t>(type));
  mix(static_cast<uint64_t>(value));
  mix(reinterpret_cast<uint64_t>(sym));
  for (const auto& k : kids) mix(k->hash());
  return h;
}

std::string Expr::str() const {
  std::ostringstream os;
  switch (op) {
    case Op::Const:
      os << value;
      break;
    case Op::Ref:
      os << sym->name;
      if (value > 0) os << "@" << value;
      break;
    case Op::ArrayRef:
      os << sym->name << "[" << kids[0]->str() << "]";
      break;
    default: {
      os << "(" << opName(op);
      for (const auto& k : kids) os << " " << k->str();
      os << ")";
    }
  }
  return os.str();
}

bool exprEquals(const Expr& a, const Expr& b) {
  if (a.op != b.op || a.value != b.value || a.sym != b.sym ||
      a.kids.size() != b.kids.size())
    return false;
  for (size_t i = 0; i < a.kids.size(); ++i)
    if (!exprEquals(*a.kids[i], *b.kids[i])) return false;
  return true;
}

}  // namespace record

#include "sim/translate.h"

#include <algorithm>

namespace record {

namespace {

/// True when the decoded op may appear inside a superblock body: an
/// ordinary effective opcode (not a decode-trap sink) that neither
/// transfers control nor arms a repeat. Control closes a block; trap sinks
/// refuse translation entirely (that is the fault-injection deopt).
bool bodyLegal(const DecodedOp& d) {
  if (d.handler == kTrapHandler) return false;
  switch (d.op) {
#define RECORD_TB_CONTROL(op) case Opcode::op:
    RECORD_OPCODES(RECORD_SIM_NONE, RECORD_TB_CONTROL)
#undef RECORD_TB_CONTROL
      return false;
    default:
      return true;
  }
}

/// Lower one body-legal decoded op to its translated micro-op. Operands
/// are copied verbatim (same pre-split form the decoded handlers use).
TransOp lower(const DecodedOp& d) {
  TransOp t;
  t.a = d.a;
  t.b = d.b;
  switch (d.op) {
#define RECORD_TB_LOWER(op) \
  case Opcode::op:          \
    t.kind = TK::op;        \
    break;
    RECORD_OPCODES(RECORD_TB_LOWER, RECORD_SIM_NONE)
#undef RECORD_TB_LOWER
    default:
      break;  // control never reaches a block body (bodyLegal)
  }
  // XY ops charge the bank-conflict cycle up front (see RECORD_SEM_MPYXY).
  const bool xy = d.op == Opcode::MPYXY || d.op == Opcode::MACXY;
  t.cycMax = static_cast<uint8_t>(d.cyc + (xy ? 1 : 0));
  return t;
}

/// The fused idiom table: (first, second) -> fused kind. Fusion halves the
/// dispatch count for the pairs DSPStone code actually emits (multiply
/// chains and accumulator spills). Each fused kind's body is defined next
/// to RECORD_TB_FUSED in sim/translate.h.
bool fusePair(TK k1, TK k2, TK* out) {
  if (k2 == TK::MPY) {
    if (k1 == TK::LT) { *out = TK::LtMpy; return true; }
    if (k1 == TK::LTA) { *out = TK::LtaMpy; return true; }
    if (k1 == TK::LTP) { *out = TK::LtpMpy; return true; }
  }
  if (k2 == TK::SACL) {
    if (k1 == TK::LAC) { *out = TK::LacSacl; return true; }
    if (k1 == TK::APAC) { *out = TK::ApacSacl; return true; }
    if (k1 == TK::SPAC) { *out = TK::SpacSacl; return true; }
  }
  if (k2 == TK::ADD && k1 == TK::PAC) { *out = TK::PacAdd; return true; }
  return false;
}

void fuse(std::vector<TransOp>& body) {
  std::vector<TransOp> out;
  out.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    TK fk;
    if (i + 1 < body.size() && body[i].insns == 1 &&
        body[i + 1].insns == 1 && fusePair(body[i].kind, body[i + 1].kind, &fk)) {
      TransOp t;
      t.kind = fk;
      t.insns = 2;
      t.cycMax = static_cast<uint8_t>(body[i].cycMax + body[i + 1].cycMax);
      t.a = body[i].a;      // first instruction's operand
      t.b = body[i + 1].a;  // second instruction's operand
      out.push_back(t);
      ++i;
      continue;
    }
    out.push_back(body[i]);
  }
  body = std::move(out);
  // Second pass: grow LT;MPY into the full multiply-accumulate triple when
  // an APAC follows -- the inner-loop idiom of every MAC kernel.
  out.clear();
  out.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    if (i + 1 < body.size() && body[i].kind == TK::LtMpy &&
        body[i + 1].kind == TK::APAC && body[i + 1].insns == 1) {
      TransOp t = body[i];
      t.kind = TK::LtMpyApac;
      t.insns = 3;
      t.cycMax = static_cast<uint8_t>(t.cycMax + body[i + 1].cycMax);
      out.push_back(t);
      ++i;
      continue;
    }
    out.push_back(body[i]);
  }
  body = std::move(out);
}

/// Terminate the body with the End sentinel (the executor's walk dispatches
/// into close handling instead of checking a length) and fill the per-op
/// worst-case ledger prefixes plus the whole-pass totals the executor and
/// its trap path work from.
void finalizeBody(Superblock& b) {
  TransOp end;
  end.kind = TK::End;
  end.insns = 0;
  end.cycMax = 0;
  b.body.push_back(end);
  uint32_t cp = 0, np = 0;
  for (TransOp& op : b.body) {
    op.cPre = static_cast<uint8_t>(cp);
    op.nPre = static_cast<uint8_t>(np);
    cp += op.cycMax;
    np += op.insns;
  }
  b.passCycles = cp;
  b.passInsns = static_cast<int>(np);
}

/// True when operand `slot` (0 = a, 1 = b) of a body op is only read. Every
/// other memory operand counts as a store: SACL and its kin, and DMOV and
/// LTD, which read their word and store the next (a store over both words,
/// AffineAccess::span). A kind missing here only keeps a loop off the
/// column walk.
bool onlyReads(TK k, int slot) {
  switch (k) {
    case TK::LAC:
    case TK::ADD:
    case TK::SUB:
    case TK::AND:
    case TK::OR:
    case TK::XOR:
    case TK::LT:
    case TK::MPY:
    case TK::LTA:
    case TK::LTP:
    case TK::MPYXY:
    case TK::MACXY:
    case TK::LtMpy:
    case TK::LtaMpy:
    case TK::LtpMpy:
    case TK::PacAdd:
    case TK::LtMpyApac:
      return true;
    case TK::LacSacl:
      return slot == 0;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Column walk of affine loops
// ---------------------------------------------------------------------------

/// The registers a column loop passes between body ops, as mask bits (the
/// index of each in ColumnRun::cur and ColumnRun::buf).
enum : unsigned { kAcc = 1, kT = 2, kP = 4 };

/// What one body op does to ACC/T/P: `in` are the registers it reads
/// before it writes them itself, `out` those it writes. `column` is false
/// for the kinds no column loop runs: the mode switches (op-major order
/// would change which switch an op sees) and the AR-file ops, which an
/// affine body never holds. A kind missing here only keeps a loop off the
/// column walk.
struct RegUse {
  unsigned in = 0, out = 0;
  bool column = false;
};

/// `x` followed by `y` within one op (a fused kind, or LTA = APAC; LT).
constexpr RegUse then(RegUse x, RegUse y) {
  return {x.in | (y.in & ~x.out), x.out | y.out, x.column && y.column};
}

constexpr RegUse regUse(TK k) {
  switch (k) {
    case TK::LAC:
    case TK::LACK:
    case TK::ZAC:
      return {0, kAcc, true};
    case TK::SACL:
    case TK::SACH:
      return {kAcc, 0, true};
    case TK::ADD:
    case TK::ADDK:
    case TK::SUB:
    case TK::SUBK:
    case TK::NEG:
    case TK::AND:
    case TK::ANDK:
    case TK::OR:
    case TK::XOR:
    case TK::SFL:
    case TK::SFR:
      return {kAcc, kAcc, true};
    case TK::LT:
      return {0, kT, true};
    case TK::MPY:
    case TK::MPYK:
      return {kT, kP, true};
    case TK::PAC:
      return {kP, kAcc, true};
    case TK::APAC:
    case TK::SPAC:
      return {kAcc | kP, kAcc, true};
    case TK::SPL:
      return {kP, 0, true};
    case TK::LTA:
    case TK::LTD:
      return then(regUse(TK::APAC), regUse(TK::LT));
    case TK::LTP:
      return then(regUse(TK::PAC), regUse(TK::LT));
    case TK::MPYXY:
      return {0, kP, true};
    case TK::MACXY:
      return then(regUse(TK::APAC), regUse(TK::MPYXY));
    case TK::DMOV:
    case TK::NOP:
      return {0, 0, true};
    case TK::LtMpy:
      return then(regUse(TK::LT), regUse(TK::MPY));
    case TK::LtaMpy:
      return then(regUse(TK::LTA), regUse(TK::MPY));
    case TK::LtpMpy:
      return then(regUse(TK::LTP), regUse(TK::MPY));
    case TK::LacSacl:
      return then(regUse(TK::LAC), regUse(TK::SACL));
    case TK::PacAdd:
      return then(regUse(TK::PAC), regUse(TK::ADD));
    case TK::ApacSacl:
      return then(regUse(TK::APAC), regUse(TK::SACL));
    case TK::SpacSacl:
      return then(regUse(TK::SPAC), regUse(TK::SACL));
    case TK::LtMpyApac:
      return then(regUse(TK::LtMpy), regUse(TK::APAC));
    default:
      return {};
  }
}

}  // namespace

/// State of one column run: the chunk being walked, the registers entering
/// it, and the per-pass register buffers the body ops hand on to each other.
struct ColumnRun {
  int64_t* data = nullptr;
  const TargetConfig* cfg = nullptr;
  const int64_t* slots = nullptr;  // Superblock::slots, set for this run
  int64_t k0 = 0;                  // first pass of the chunk
  int n = 0;                       // passes in the chunk
  bool ovm = false, sxm = false;   // constant: the body switches no mode
  int64_t cur[3] = {};             // ACC/T/P entering the chunk's first pass
  int64_t extra = 0;               // XY bank-discount refunds
  /// ACC/T/P per pass of the chunk, as the latest op that wrote each left
  /// it; never zeroed (an op reads only what an earlier op wrote).
  int64_t buf[3][kColumnChunk];
};

namespace {

/// One operand of a column loop: immediate (kind 0), or a stream whose
/// address moves by `step` per pass (0 for a direct address).
struct ColumnOperand {
  int addr = 0, step = 0;
  int32_t val = 0;
  uint8_t kind = 0;
  int8_t bank = -1;
};

/// `o` at the chunk's first pass.
ColumnOperand columnOperand(const DecOperand& o, const ColumnRun& r) {
  ColumnOperand c{static_cast<int>(o.val), 0, o.val, o.kind, o.bank};
  if (o.kind == 2) {
    const int64_t* x = r.slots + 2 * o.val;
    c.addr = static_cast<int>(x[0] + r.k0 * x[1]);
    c.step = static_cast<int>(x[1]);
  }
  return c;
}

/// Data memory as a column loop sees it: the SimMemory interface over
/// ColumnOperand streams, with no bounds checks (the run was proven in
/// range). `ar` only lets the AR-file bodies compile; no column runs them.
struct ColumnMemory {
  int64_t* data;
  const TargetConfig* cfg;
  int* ar;

  int64_t loadWord(int addr) const {
    return data[static_cast<unsigned>(addr)];
  }
  void storeWord(int addr, int64_t v) const {
    data[static_cast<unsigned>(addr)] = wrap16(v);
  }
  int addrOf(const ColumnOperand& o) const { return o.addr; }
  int64_t readOp(const ColumnOperand& o) const {
    return o.kind == 0 ? static_cast<int64_t>(o.val) : loadWord(o.addr);
  }
  int bank(const ColumnOperand& o, int addr) const {
    return o.bank >= 0 ? o.bank : cfg->bankOf(addr);
  }
};

/// Op kind `K` over every pass of the chunk. Carried registers `C` (a
/// subset of what K reads first) start from ColumnRun::cur and stay in
/// machine registers: invariant ones, or the op's own scan. Every other
/// register K reads comes from the buffer an earlier op filled; every one
/// it writes goes to its buffer.
template <TK K, unsigned C>
void runColumn(const TransOp& op, ColumnRun& r) {
  constexpr RegUse u = regUse(K);
  ColumnOperand a = columnOperand(op.a, r), b = columnOperand(op.b, r);
  // Each kind's body names only some of these.
  [[maybe_unused]] const ColumnMemory mem{r.data, r.cfg, nullptr};
  [[maybe_unused]] const bool ovm = r.ovm, sxm = r.sxm;
  [[maybe_unused]] int64_t acc = r.cur[0], tr = r.cur[1], pr = r.cur[2];
  int64_t* const bufAcc = r.buf[0];
  int64_t* const bufT = r.buf[1];
  int64_t* const bufP = r.buf[2];
  int64_t extra = 0;
  [[maybe_unused]] int sub = 0;  // fused bodies mark their halves
  [[maybe_unused]] auto xyConflict = [&extra](bool conflict) {
    if (!conflict) extra -= 1;
  };
  const int n = r.n;
  for (int i = 0; i < n; ++i) {
    if constexpr ((u.in & ~C & kAcc) != 0) acc = bufAcc[i];
    if constexpr ((u.in & ~C & kT) != 0) tr = bufT[i];
    if constexpr ((u.in & ~C & kP) != 0) pr = bufP[i];
#define RECORD_COLUMN_SEM(k) \
  if constexpr (K == TK::k) {  \
    RECORD_SEM_##k(a, b);      \
  } else
    RECORD_TB_KINDS(RECORD_COLUMN_SEM) {}
#undef RECORD_COLUMN_SEM
    if constexpr ((u.out & kAcc) != 0) bufAcc[i] = acc;
    if constexpr ((u.out & kT) != 0) bufT[i] = tr;
    if constexpr ((u.out & kP) != 0) bufP[i] = pr;
    a.addr += a.step;
    b.addr += b.step;
  }
  r.extra += extra;
}

/// The column loop of kind `K` with carried registers `C`, or null when no
/// column runs K or K never reads one of `C` first (so only the subsets a
/// kind can carry are instantiated).
template <TK K, unsigned C>
constexpr ColumnFn columnFn() {
  constexpr RegUse u = regUse(K);
  if constexpr (!u.column || (C & ~u.in) != 0)
    return nullptr;
  else
    return &runColumn<K, C>;
}

/// Column loops by [kind][carried registers].
constexpr ColumnFn kColumnFns[][8] = {
#define RECORD_COLUMN_FNS(k)                                        \
  {columnFn<TK::k, 0>(), columnFn<TK::k, 1>(), columnFn<TK::k, 2>(), \
   columnFn<TK::k, 3>(), columnFn<TK::k, 4>(), columnFn<TK::k, 5>(), \
   columnFn<TK::k, 6>(), columnFn<TK::k, 7>()},
    RECORD_TB_KINDS(RECORD_COLUMN_FNS)
#undef RECORD_COLUMN_FNS
};

/// The column walk's formation-time rules (see the header comment): every
/// op has a column loop, and a register an op reads before any write of it
/// in the pass is written by no other op. Two direct words never move, so
/// their pairs are decided here too; the other pairs the memory rule must
/// check are kept for the run. Leaves `columns` empty when a rule refuses.
void formColumns(Superblock& b) {
  const std::vector<TransOp>& body = b.affineBody;
  const size_t ops = body.size() - 1;  // the End sentinel has no column
  std::vector<ColumnFn> fns;
  unsigned written = 0;  // by the ops before the current one
  for (size_t i = 0; i < ops; ++i) {
    const RegUse u = regUse(body[i].kind);
    if (!u.column) return;
    unsigned others = 0;  // written by any other op of the body
    for (size_t j = 0; j < ops; ++j)
      if (j != i) others |= regUse(body[j].kind).out;
    const unsigned carried = u.in & ~written;
    if (carried & others) return;
    fns.push_back(kColumnFns[static_cast<size_t>(body[i].kind)][carried]);
    written |= u.out;
  }
  std::vector<std::array<int, 2>> pairs;
  for (size_t p = 0; p < b.accesses.size(); ++p)
    for (size_t q = p + 1; q < b.accesses.size(); ++q) {
      const AffineAccess& x = b.accesses[p];
      const AffineAccess& y = b.accesses[q];
      if (x.op == y.op || !(x.write || y.write)) continue;
      if (x.ar < 0 && y.ar < 0) {
        if (x.offset < y.offset + y.span && y.offset < x.offset + x.span)
          return;  // one word written and used by two ops every pass
        continue;
      }
      pairs.push_back({static_cast<int>(p), static_cast<int>(q)});
    }
  b.columns = std::move(fns);
  b.columnDefs = written;
  b.columnPairs = std::move(pairs);
}

/// The column walk's per-run memory rule over `trips` passes, on the slot
/// addresses affineSlots set: every pair of formColumns touches disjoint
/// words over the run, or both step alike by a non-zero step and each
/// collision between passes keeps its order -- the access of the earlier
/// pass belongs to the op that comes first in the body.
bool columnsLegal(const Superblock& b, int64_t trips) {
  if (b.columns.empty()) return false;
  for (const auto& [p, q] : b.columnPairs) {
    const AffineAccess& x = b.accesses[static_cast<size_t>(p)];
    const AffineAccess& y = b.accesses[static_cast<size_t>(q)];
    const int64_t x0 = b.slots[2 * p], xs = b.slots[2 * p + 1];
    const int64_t y0 = b.slots[2 * q], ys = b.slots[2 * q + 1];
    const int64_t xLo = std::min(x0, x0 + (trips - 1) * xs);
    const int64_t xHi = std::max(x0, x0 + (trips - 1) * xs) + x.span;
    const int64_t yLo = std::min(y0, y0 + (trips - 1) * ys);
    const int64_t yHi = std::max(y0, y0 + (trips - 1) * ys) + y.span;
    if (xHi <= yLo || yHi <= xLo) continue;
    if (xs != ys || xs == 0) return false;
    // Word u of x at pass k meets word v of y at pass k + d.
    for (int u = 0; u < x.span; ++u)
      for (int v = 0; v < y.span; ++v) {
        const int64_t diff = x0 + u - y0 - v;
        if (diff % xs != 0) continue;
        const int64_t d = diff / xs;
        if (d == 0 || d >= trips || d <= -trips) continue;
        if ((d > 0) != (x.op < y.op)) return false;
      }
  }
  return true;
}

/// The column walk of an affine run of `trips` passes (see the header
/// comment): each chunk runs every body op's column loop in body order, then
/// takes each written register from the chunk's last pass. Writes ACC/T/P
/// back to `st`; returns the XY refunds.
int64_t affineColumns(const Superblock& b, const TargetConfig& cfg,
                      int64_t* data, int64_t trips, SimState& st) {
  ColumnRun r;
  r.data = data;
  r.cfg = &cfg;
  r.slots = b.slots.data();
  r.ovm = st.ovm;
  r.sxm = st.sxm;
  r.cur[0] = st.acc;
  r.cur[1] = st.t;
  r.cur[2] = st.p;
  for (; r.k0 < trips; r.k0 += kColumnChunk) {
    r.n = static_cast<int>(std::min<int64_t>(kColumnChunk, trips - r.k0));
    for (size_t i = 0; i < b.columns.size(); ++i)
      b.columns[i](b.affineBody[i], r);
    for (int x = 0; x < 3; ++x)
      if (b.columnDefs >> x & 1) r.cur[x] = r.buf[x][r.n - 1];
  }
  st.acc = r.cur[0];
  st.t = r.cur[1];
  st.p = r.cur[2];
  return r.extra;
}

// ---------------------------------------------------------------------------
// Row walk of affine loops
// ---------------------------------------------------------------------------

/// Data memory as an affine loop pass sees it: the SimMemory interface with
/// every indirect address computed from the pass index `k` (operand val is
/// the access slot), and no bounds checks -- the executor proved every
/// access of the whole run in range before taking this path. The AR-file
/// bodies expand over it too but never run: formation drops ADRK/SBRK from
/// an affine body and refuses LAR/LARK/SAR.
struct AffineMemory {
  int64_t* data;
  const int64_t* slot;  // Superblock::slots
  int64_t k;            // pass index
  int* ar;
  const TargetConfig* cfg;

  int64_t loadWord(int addr) const {
    return data[static_cast<unsigned>(addr)];
  }
  void storeWord(int addr, int64_t v) const {
    data[static_cast<unsigned>(addr)] = wrap16(v);
  }
  int addrOf(const DecOperand& o) const {
    if (o.kind != 2) return static_cast<int>(o.val);
    const int64_t* x = slot + 2 * o.val;
    return static_cast<int>(x[0] + k * x[1]);
  }
  int64_t readOp(const DecOperand& o) const {
    return o.kind == 0 ? static_cast<int64_t>(o.val) : loadWord(addrOf(o));
  }
  int bank(const DecOperand& o, int addr) const {
    return o.bank >= 0 ? o.bank : cfg->bankOf(addr);
  }
};

/// The row walk of an affine run of `trips` passes: every pass dispatches
/// the whole body. Writes ACC/T/P back to `st`; returns the XY refunds. Out
/// of line on purpose: GCC lets a computed goto reach every address-taken
/// label of its function, so sharing a function with another walk would
/// merge their dispatch graphs.
[[gnu::noinline]] int64_t affineRows(const Superblock& b,
                                     const TargetConfig& cfg, int64_t* data,
                                     int* ar, int64_t trips, SimState& st) {
  int64_t acc = st.acc, tr = st.t, pr = st.p;
  bool ovm = st.ovm, sxm = st.sxm;
  int sub = 0;        // fused bodies mark their halves; nothing reads it here
  int64_t extra = 0;  // XY bank-discount refunds
  auto xyConflict = [&](bool conflict) {
    if (!conflict) extra -= 1;
  };
  AffineMemory mem{data, b.slots.data(), 0, ar, &cfg};
  const TransOp* op = nullptr;
  static const void* const kTbl[] = {
#define RECORD_TB_LABEL(k) &&TA_##k,
      RECORD_TB_KINDS(RECORD_TB_LABEL)
#undef RECORD_TB_LABEL
      &&TA_End,
  };
#define TA_DISPATCH() goto* kTbl[static_cast<size_t>(op->kind)]
ta_pass:
  op = b.affineBody.data();
  TA_DISPATCH();
#define RECORD_TB_EXEC(k)          \
  TA_##k : {                       \
    RECORD_SEM_##k(op->a, op->b);  \
  }                                \
  ++op;                            \
  TA_DISPATCH();
  RECORD_TB_KINDS(RECORD_TB_EXEC)
#undef RECORD_TB_EXEC
#undef TA_DISPATCH
TA_End:
  if (++mem.k < trips) goto ta_pass;
  (void)sub;
  st = SimState{acc, tr, pr, ovm, sxm, st.pc};
  return extra;
}

/// Mark a BANZ-closed loop block affine if its body never touches the
/// counter AR, never loads or stores an AR, and so moves every AR it uses by
/// a constant step per pass; record its access slots and AR steps (see
/// Superblock::affine), then its column loops. Otherwise leave the block as
/// it is.
void formAffine(Superblock& b) {
  std::vector<TransOp> body;
  std::vector<AffineAccess> accesses;
  std::vector<ArStep> steps;
  auto stepOf = [&steps](int r) -> int64_t& {
    for (ArStep& s : steps)
      if (s.ar == r) return s.step;
    steps.push_back({r, 0});
    return steps.back().step;
  };
  for (TransOp t : b.body) {
    switch (t.kind) {
      case TK::LAR:
      case TK::LARK:
      case TK::SAR:
        return;
      case TK::ADRK:
      case TK::SBRK:
        if (t.a.val == b.closeAr) return;
        stepOf(t.a.val) += t.kind == TK::ADRK ? t.b.val : -int64_t{t.b.val};
        continue;  // folded into the slot addresses
      default:
        break;
    }
    const int span = t.kind == TK::DMOV || t.kind == TK::LTD ? 2 : 1;
    const int opIndex = static_cast<int>(body.size());
    for (int slot = 0; slot < 2; ++slot) {
      DecOperand* o = slot == 0 ? &t.a : &t.b;
      if (o->kind == 0) continue;  // immediate or no operand
      AffineAccess x{-1, span, o->val, opIndex, !onlyReads(t.kind, slot)};
      if (o->kind == 2) {
        if (o->val == b.closeAr) return;
        int64_t& at = stepOf(o->val);
        x.ar = o->val;
        x.offset = at;
        at += o->post;
        o->val = static_cast<int32_t>(accesses.size());
      }
      accesses.push_back(x);
    }
    body.push_back(t);
  }
  // Each indirect slot steps by its AR's whole-pass step; direct ones stay.
  b.slots.assign(2 * accesses.size(), 0);
  for (size_t j = 0; j < accesses.size(); ++j)
    if (accesses[j].ar >= 0) b.slots[2 * j + 1] = stepOf(accesses[j].ar);
  b.affine = true;
  b.affineBody = std::move(body);
  b.accesses = std::move(accesses);
  b.arSteps = std::move(steps);
  formColumns(b);
}

/// Set each access slot's pass-0 address for an affine run of `trips`
/// passes from the current ARs. False when some access of some pass would
/// leave data memory (or the 16-bit AR range, where the register would
/// wrap): the exact walk then traps where the decoded loop does. Addresses
/// are affine in the pass index, so the first and last pass bound every
/// other.
bool affineSlots(Superblock& b, const int* ar, int64_t trips,
                 unsigned dataSize) {
  const int64_t limit = std::min<int64_t>(dataSize, 0x10000);
  for (size_t j = 0; j < b.accesses.size(); ++j) {
    const AffineAccess& x = b.accesses[j];
    const int64_t first = (x.ar < 0 ? 0 : ar[x.ar]) + x.offset;
    const int64_t last = first + (trips - 1) * b.slots[2 * j + 1];
    if (std::min(first, last) < 0 || std::max(first, last) + x.span > limit)
      return false;
    b.slots[2 * j] = first;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Affine execution
// ---------------------------------------------------------------------------

bool runAffine(Superblock& b, const TargetConfig& cfg, int64_t* data,
               unsigned dataSize, int* ar, SimState& st, int64_t maxCycles,
               int64_t& cycles, int64_t& instructions, TranslateStats& stats) {
  // The loop runs the counter's value + 1 passes from here. Its worst case
  // fitting the budget means no pass of the exact walk would deopt; every
  // access in range means none would trap.
  const int64_t trips = static_cast<int64_t>(ar[b.closeAr]) + 1;
  if (cycles + trips * b.maxCyclesPerPass > maxCycles ||
      !affineSlots(b, ar, trips, dataSize))
    return false;

  int64_t extra;  // XY bank-discount refunds
  if (columnsLegal(b, trips)) {
    extra = affineColumns(b, cfg, data, trips, st);
    ++stats.columnRuns;
  } else {
    extra = affineRows(b, cfg, data, ar, trips, st);
  }

  for (const ArStep& s : b.arSteps)
    ar[s.ar] = static_cast<int>((ar[s.ar] + trips * s.step) & 0xffff);
  ar[b.closeAr] = 0;
  st.pc = b.exitPc;
  const int64_t n = trips * (b.passInsns + 1);
  cycles += trips * (b.passCycles + b.ctlCyc) + extra;
  instructions += n;
  stats.blockInstructions += n;
  ++stats.blockRuns;
  ++stats.affineRuns;
  b.passes += trips;
  return true;
}

// ---------------------------------------------------------------------------
// Formation
// ---------------------------------------------------------------------------

void TranslationSet::install(Superblock b) {
  if (blocks_.size() >= 32000) return;  // int16_t key space; never in practice
  blockAt_[static_cast<size_t>(b.entry)] = static_cast<int16_t>(blocks_.size());
  blocks_.push_back(std::move(b));
}

void TranslationSet::rebuild(const std::vector<DecodedOp>& ops) {
  blocks_.clear();
  blockAt_.assign(ops.size(), -1);
  backEdge_.assign(ops.size(), 0);
  entry_.assign(ops.size(), 0);
  stats_ = TranslateStats{};
  // RPT bodies are hot by construction: form their blocks statically. A
  // decode fault that turns the RPT or its body into a trap sink (or into
  // control flow) simply refuses formation here, so the faulted program
  // runs decoded and traps identically; clearDecodeFault re-decodes and
  // re-forms the original block.
  for (size_t pc = 0; pc + 1 < ops.size(); ++pc) {
    const DecodedOp& d = ops[pc];
    if (d.op != Opcode::RPT ||
        d.handler != static_cast<uint8_t>(Opcode::RPT))
      continue;
    if (!bodyLegal(ops[pc + 1])) continue;
    Superblock b;
    b.kind = Superblock::Kind::Rpt;
    b.close = Superblock::Close::None;
    b.entry = static_cast<int>(pc);
    b.closePc = static_cast<int>(pc);
    b.exitPc = static_cast<int>(pc) + 2;
    b.rptReps = d.a.val;
    b.ctlCyc = d.cyc;
    b.body.push_back(lower(ops[pc + 1]));
    finalizeBody(b);
    // Informational for RPT blocks (their budget handling is exact, not
    // worst-case -- see runSuperblock).
    b.maxCyclesPerPass =
        b.ctlCyc + static_cast<int64_t>(b.rptReps + 1) * b.body[0].cycMax;
    ++stats_.rptBlocks;
    install(std::move(b));
  }
}

void TranslationSet::tryFormLoop(const std::vector<DecodedOp>& ops,
                                 int target, int branchPc) {
  if (target < 0 || target >= branchPc) return;  // need a non-empty body
  if (branchPc - target > kMaxBlockLen) return;
  if (static_cast<size_t>(branchPc) >= ops.size()) return;
  const DecodedOp& br = ops[branchPc];
  if (br.handler == kTrapHandler) return;
  if (br.target != target) return;
  Superblock::Close close;
  switch (br.op) {
    case Opcode::B: close = Superblock::Close::B; break;
    case Opcode::BZ: close = Superblock::Close::Bz; break;
    case Opcode::BGEZ: close = Superblock::Close::Bgez; break;
    case Opcode::BANZ: close = Superblock::Close::Banz; break;
    default: return;
  }
  // Loop blocks may subsume an entry block keyed at the same PC, never a
  // peer loop or an RPT block.
  int existing = blockAt_[static_cast<size_t>(target)];
  if (existing >= 0 &&
      blocks_[static_cast<size_t>(existing)].kind != Superblock::Kind::Entry)
    return;
  Superblock b;
  b.kind = Superblock::Kind::Loop;
  b.close = close;
  b.entry = target;
  b.closePc = branchPc;
  b.exitPc = branchPc + 1;
  b.closeAr = br.a.val;
  b.ctlCyc = br.cyc;
  for (int pc = target; pc < branchPc; ++pc) {
    if (!bodyLegal(ops[static_cast<size_t>(pc)])) return;
    b.body.push_back(lower(ops[static_cast<size_t>(pc)]));
  }
  fuse(b.body);
  finalizeBody(b);
  b.maxCyclesPerPass = b.passCycles + b.ctlCyc;  // + closing branch
  if (close == Superblock::Close::Banz) formAffine(b);
  ++stats_.loopBlocks;
  install(std::move(b));
}

void TranslationSet::tryFormEntry(const std::vector<DecodedOp>& ops, int pc) {
  if (pc < 0 || static_cast<size_t>(pc) >= ops.size()) return;
  if (blockAt_[static_cast<size_t>(pc)] >= 0) return;
  Superblock b;
  b.kind = Superblock::Kind::Entry;
  b.entry = pc;
  int end = pc;
  while (static_cast<size_t>(end) < ops.size() && end - pc < kMaxBlockLen &&
         bodyLegal(ops[static_cast<size_t>(end)])) {
    b.body.push_back(lower(ops[static_cast<size_t>(end)]));
    ++end;
  }
  if (end - pc < 2) return;  // too short to pay for the block check
  if (static_cast<size_t>(end) < ops.size() &&
      ops[static_cast<size_t>(end)].op == Opcode::HALT &&
      ops[static_cast<size_t>(end)].handler ==
          static_cast<uint8_t>(Opcode::HALT)) {
    b.close = Superblock::Close::Halt;
    b.closePc = end;
    b.exitPc = end + 1;
    b.ctlCyc = ops[static_cast<size_t>(end)].cyc;
  } else {
    b.close = Superblock::Close::None;
    b.closePc = end;
    b.exitPc = end;
  }
  fuse(b.body);
  finalizeBody(b);
  b.maxCyclesPerPass = b.passCycles + b.ctlCyc;
  ++stats_.entryBlocks;
  install(std::move(b));
}

TranslateStats TranslationSet::stats() const {
  TranslateStats s = stats_;
  for (const Superblock& b : blocks_)
    for (const TransOp& op : b.body)
      if (int f = fusedIndex(op.kind); f >= 0)
        s.fusedFires[static_cast<size_t>(f)] += b.passes;
  return s;
}

}  // namespace record

#include "sim/translate.h"

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
  if (d.op == Opcode::MPYXY || d.op == Opcode::MACXY) t.cycMax = 2;
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

}  // namespace

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
    b.body.push_back(lower(ops[pc + 1]));
    finalizeBody(b);
    // Informational for RPT blocks (their budget handling is exact, not
    // worst-case -- see runSuperblock).
    b.maxCyclesPerPass =
        1 + static_cast<int64_t>(b.rptReps + 1) * b.body[0].cycMax;
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
  for (int pc = target; pc < branchPc; ++pc) {
    if (!bodyLegal(ops[static_cast<size_t>(pc)])) return;
    b.body.push_back(lower(ops[static_cast<size_t>(pc)]));
  }
  fuse(b.body);
  finalizeBody(b);
  b.maxCyclesPerPass = b.passCycles + 2;  // + closing branch
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
  } else {
    b.close = Superblock::Close::None;
    b.closePc = end;
    b.exitPc = end;
  }
  fuse(b.body);
  finalizeBody(b);
  b.maxCyclesPerPass =
      b.passCycles + (b.close == Superblock::Close::Halt ? 1 : 0);
  ++stats_.entryBlocks;
  install(std::move(b));
}

}  // namespace record

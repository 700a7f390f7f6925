#include "opt/peephole.h"

#include "trace/trace.h"

namespace record {

namespace {

bool blockBoundary(const Instr& in) {
  return opInfo(in.op).isBranch || in.op == Opcode::HALT ||
         in.op == Opcode::RPT;
}

/// Is ACC dead at position i (next ACC touch is a write)?
bool accDeadAfter(const std::vector<Instr>& code, size_t i) {
  for (size_t j = i + 1; j < code.size(); ++j) {
    const Instr& in = code[j];
    if (!in.label.empty() || blockBoundary(in)) return false;  // unknown
    const OpInfo& info = opInfo(in.op);
    if (info.readsAcc) return false;
    if (info.writesAcc) return true;
  }
  return false;
}

/// May the SACL x ; LAC x -> SACL x forwarding at position i (the LAC) be
/// observed? Forwarding keeps the full 32-bit accumulator where the reload
/// would have truncated to the low 16 bits and sign-extended. Wrap-around
/// arithmetic, shifts left, and bitwise ops all preserve "low 16 bits
/// equal", so the difference is confined to the high half until ACC is
/// redefined -- but SFR shifts the high half into view, SACH stores it, and
/// saturating adds/subtracts under OVM=1 read the full value (difftest
/// caught exactly this: a0 := i*i ; y := a0 >>> 3 shifted the raw 32-bit
/// product). Conservative over labels and branches.
bool truncationObservable(const std::vector<Instr>& code, size_t i) {
  // OVM state at i from the nearest dominating mode set in straight-line
  // code; unknown (-1) at labels/branches, 0 at program start (reset).
  int ovm = 0;
  for (size_t k = i; k-- > 0;) {
    const Instr& b = code[k];
    if (b.op == Opcode::SOVM) { ovm = 1; break; }
    if (b.op == Opcode::ROVM) { ovm = 0; break; }
    if (!b.label.empty() || opInfo(b.op).isBranch) { ovm = -1; break; }
  }
  for (size_t j = i + 1; j < code.size(); ++j) {
    const Instr& in = code[j];
    if (!in.label.empty()) return true;  // unknown join point
    if (in.op == Opcode::SOVM) { ovm = 1; continue; }
    if (in.op == Opcode::ROVM) { ovm = 0; continue; }
    const OpInfo& info = opInfo(in.op);
    if (info.readsAcc) {
      if (in.op == Opcode::SFR || in.op == Opcode::SACH) return true;
      if (ovm != 0) return true;  // saturation observes the high half
    }
    if (info.writesAcc && !info.readsAcc) return false;  // ACC redefined
    if (blockBoundary(in)) return true;  // path escapes the window
  }
  return false;  // fell off the end: nothing observed the difference
}

}  // namespace

void peephole(std::vector<Instr>& code, const TargetConfig& cfg,
              PeepholeStats* stats, TraceContext* trace) {
  // Each sweep rewrites `code` into `out`; the lookahead checks read the
  // unchanged input.
  std::vector<Instr> out;
  bool changed = true;
  while (changed) {
    changed = false;
    out.clear();
    out.reserve(code.size());
    for (size_t i = 0; i < code.size(); ++i) {
      const Instr& in = code[i];
      bool joinable = !out.empty() && in.label.empty() &&
                      !blockBoundary(out.back());

      // SACL x ; LAC x -> SACL x  (only while the skipped 16-bit
      // truncate + sign-extend round trip stays unobservable)
      if (joinable && in.op == Opcode::LAC &&
          out.back().op == Opcode::SACL &&
          in.a.mode == AddrMode::Direct && out.back().a == in.a &&
          !truncationObservable(code, i)) {
        if (stats) ++stats->removedLoads;
        if (trace)
          trace->remark("peephole",
                        "removed reload '" + in.str() + "' (ACC holds it)");
        changed = true;
        continue;
      }
      // LARK ARk,#a ; LARK ARk,#b -> LARK ARk,#b
      if (joinable && in.op == Opcode::LARK &&
          out.back().op == Opcode::LARK &&
          out.back().a.value == in.a.value) {
        Instr repl = in;
        repl.label = out.back().label;
        out.back() = repl;
        if (stats) ++stats->deadArLoads;
        if (trace)
          trace->remark("peephole", "dropped dead AR load before '" +
                                        in.str() + "'");
        changed = true;
        continue;
      }
      // LAC m ; SACL m+1 -> DMOV m  (requires ACC dead after the store)
      if (joinable && cfg.hasDmov && in.op == Opcode::SACL &&
          out.back().op == Opcode::LAC &&
          in.a.mode == AddrMode::Direct &&
          out.back().a.mode == AddrMode::Direct &&
          in.a.value == out.back().a.value + 1 && accDeadAfter(code, i)) {
        Instr dmov;
        dmov.op = Opcode::DMOV;
        dmov.a = out.back().a;
        dmov.label = out.back().label;
        dmov.srcLine = out.back().srcLine;
        dmov.srcCol = out.back().srcCol;
        out.back() = dmov;
        if (stats) ++stats->dmovFusions;
        if (trace)
          trace->remark("peephole",
                        "fused LAC/SACL pair into '" + dmov.str() + "'");
        changed = true;
        continue;
      }
      out.push_back(in);
    }
    code.swap(out);
  }
}

}  // namespace record

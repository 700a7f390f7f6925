#include "opt/accpromote.h"

#include <algorithm>
#include <map>

#include "trace/trace.h"

namespace record {

namespace {

/// Does the instruction access direct data address `addr`?
bool touchesAddr(const Instr& in, int addr,
                 const std::function<bool(int)>& indirectMayTouch) {
  const OpInfo& info = opInfo(in.op);
  auto check = [&](const Operand& o, bool isMem) {
    if (!isMem) return false;
    if (o.mode == AddrMode::Indirect)
      return indirectMayTouch ? indirectMayTouch(addr) : true;
    if (o.mode != AddrMode::Direct) return false;
    if (o.value == addr) return true;
    // DMOV/LTD also write o.value+1.
    if ((in.op == Opcode::DMOV || in.op == Opcode::LTD) &&
        o.value + 1 == addr)
      return true;
    return false;
  };
  return check(in.a, info.aIsMem) || check(in.b, info.bIsMem);
}

}  // namespace

void promoteAccumulators(std::vector<Instr>& code, AccPromoteStats* stats,
                         const std::function<bool(int)>& indirectMayTouch,
                         TraceContext* trace) {
  // Label -> number of branches targeting it.
  std::map<std::string, int> targetCount;
  for (const auto& in : code)
    if (opInfo(in.op).isBranch) ++targetCount[in.targetLabel];

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i + 1 < code.size() && !changed; ++i) {
      Instr& head = code[i];
      if (head.label.empty() || head.op != Opcode::LAC ||
          head.a.mode != AddrMode::Direct)
        continue;
      if (targetCount[head.label] != 1) continue;
      // Find the BANZ closing this loop.
      size_t j = i + 1;
      bool clean = true;
      while (j < code.size()) {
        const Instr& in = code[j];
        if (in.op == Opcode::BANZ && in.targetLabel == head.label) break;
        if (!in.label.empty() || opInfo(in.op).isBranch ||
            in.op == Opcode::HALT || in.op == Opcode::RPT) {
          clean = false;
          break;
        }
        ++j;
      }
      if (!clean || j >= code.size()) continue;
      int addr = head.a.value;
      // Find the unique SACL addr in the body; nothing after it may touch
      // ACC, and nothing else may touch addr.
      size_t sacl = 0;
      int sacls = 0;
      bool legal = true;
      for (size_t k = i + 1; k < j; ++k) {
        const Instr& in = code[k];
        if (in.op == Opcode::SACL && in.a.mode == AddrMode::Direct &&
            in.a.value == addr) {
          ++sacls;
          sacl = k;
          continue;
        }
        // Promotion keeps the carried value live in the 32-bit accumulator
        // where the SACL/LAC round trip truncates to 16 bits and
        // sign-extends. That is invisible to wrap-around arithmetic (the
        // low 16 bits of every later result are unchanged) but NOT to
        // instructions that observe the high accumulator half: right
        // shifts, high-word stores, and anything running under OVM=1
        // (saturation reads the full 32-bit value). A saturating MAC loop
        // must therefore keep truncating -- difftest caught this at
        // 0x40000000-scale partial sums.
        if (opInfo(in.op).readsAcc &&
            (in.op == Opcode::SFR || in.op == Opcode::SACH ||
             in.need.ovm == 1))
          legal = false;
        if (touchesAddr(in, addr, indirectMayTouch)) legal = false;
      }
      if (!legal || sacls != 1) continue;
      for (size_t k = sacl + 1; k < j; ++k) {
        const OpInfo& info = opInfo(code[k].op);
        if (info.readsAcc || info.writesAcc) legal = false;
      }
      if (!legal) continue;

      // Transform: LAC moves before the label (into the preheader), SACL
      // moves after the BANZ, and the label migrates to the instruction
      // after the LAC (at least the BANZ is left between them).
      if (trace)
        trace->remark("accpromote", "hoisted '" + head.str() +
                                        "' out of loop '" + head.label +
                                        "', sunk matching SACL past BANZ");
      auto at = [&](size_t k) { return code.begin() + static_cast<long>(k); };
      std::rotate(at(sacl), at(sacl + 1), at(j + 1));
      code[i + 1].label = std::move(head.label);
      head.label.clear();
      if (stats) ++stats->promotions;
      changed = true;
    }
  }
}

}  // namespace record

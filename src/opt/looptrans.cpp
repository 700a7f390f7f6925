#include "opt/looptrans.h"

#include <map>
#include <optional>

namespace record {

namespace {

bool usesAr(const Instr& in, int ar) {
  if (in.a.mode == AddrMode::Indirect && in.a.value == ar) return true;
  if (in.b.mode == AddrMode::Indirect && in.b.value == ar) return true;
  if (opTakesArIndex(in.op) && in.a.mode == AddrMode::Imm &&
      in.a.value == ar)
    return true;
  return false;
}

bool repeatable(const Instr& in) {
  return !opInfo(in.op).isBranch && in.op != Opcode::RPT &&
         in.op != Opcode::HALT;
}

struct Loop {
  size_t lark;   // counter init (LARK ARc,#n), somewhere in the preheader
  size_t head;   // labeled first body instruction
  size_t banz;   // closing branch
  int ctr;
  int count;     // n (body executes n+1 times)
};

/// Find the next transformable counted loop at or after `from`.
/// The counter LARK may be separated from the loop head by other preheader
/// instructions (stream-AR setup, promoted accumulator loads), as long as
/// none of them touches the counter register or changes control flow.
std::optional<Loop> findLoop(const std::vector<Instr>& code, size_t from,
                             const std::map<std::string, int>& targetCount) {
  for (size_t p = from; p < code.size(); ++p) {
    const std::string& label = code[p].label;
    if (label.empty()) continue;
    auto tc = targetCount.find(label);
    if (tc == targetCount.end() || tc->second != 1) continue;
    // Find the closing BANZ; body must be clean straight-line code.
    size_t j = p;
    int ctr = -1;
    bool clean = true;
    while (j < code.size()) {
      const Instr& in = code[j];
      if (in.op == Opcode::BANZ && in.targetLabel == label) {
        ctr = in.a.value;
        break;
      }
      if ((j > p && !in.label.empty()) || opInfo(in.op).isBranch ||
          in.op == Opcode::HALT || in.op == Opcode::RPT) {
        clean = false;
        break;
      }
      ++j;
    }
    if (!clean || j >= code.size() || ctr < 0) continue;
    for (size_t k = p; k < j; ++k)
      if (!repeatable(code[k]) || usesAr(code[k], ctr)) clean = false;
    if (!clean) continue;
    // Walk backwards for the counter init.
    std::optional<size_t> larkIdx;
    for (size_t b = p; b-- > 0;) {
      const Instr& in = code[b];
      if (in.op == Opcode::LARK && in.a.mode == AddrMode::Imm &&
          in.a.value == ctr) {
        larkIdx = b;
        break;
      }
      if (!in.label.empty() || opInfo(in.op).isBranch ||
          in.op == Opcode::HALT || usesAr(in, ctr))
        break;
    }
    if (!larkIdx) continue;
    int n = code[*larkIdx].b.value;
    if (n < 0 || n > 0x7fff) continue;
    return Loop{*larkIdx, p, j, ctr, n};
  }
  return std::nullopt;
}

}  // namespace

void applyLoopTransforms(std::vector<Instr>& code, const TargetConfig& cfg,
                         bool favorCycles, LoopTransStats* stats) {
  std::map<std::string, int> targetCount;
  for (const auto& in : code)
    if (opInfo(in.op).isBranch) ++targetCount[in.targetLabel];

  size_t searchFrom = 0;
  while (true) {
    auto loop = findLoop(code, searchFrom, targetCount);
    if (!loop) break;
    size_t bodyLen = loop->banz - loop->head;
    std::vector<Instr> repl;  // replacement for [head, banz]
    bool keepLabelOnFirst = true;
    // Synthesized instructions (RPT, P-clear, drain) attribute to the loop
    // body's source line -- they replace work that line was doing.
    auto synth = [&](Opcode op, Operand a = Operand::none()) {
      Instr in;
      in.op = op;
      in.a = a;
      in.srcLine = code[loop->head].srcLine;
      in.srcCol = code[loop->head].srcCol;
      return in;
    };

    if (bodyLen == 1 && cfg.hasRpt) {
      // RPT conversion.
      Instr rpt = synth(Opcode::RPT, Operand::imm(loop->count));
      Instr body = code[loop->head];
      body.label.clear();
      repl = {rpt, body};
      if (stats) ++stats->rptConversions;
    } else if (bodyLen == 2 && cfg.hasRpt && cfg.hasMac && cfg.hasDualMul &&
               code[loop->head].op == Opcode::MPYXY &&
               code[loop->head + 1].op == Opcode::APAC) {
      // MAC pipelining: clear P, repeat MACXY, drain the last product.
      Instr clr = synth(Opcode::MPYK, Operand::imm(0));
      Instr rpt = synth(Opcode::RPT, Operand::imm(loop->count));
      Instr mac = code[loop->head];
      mac.op = Opcode::MACXY;
      mac.label.clear();
      Instr drain = synth(Opcode::APAC);
      repl = {clr, rpt, mac, drain};
      if (stats) ++stats->macPipelined;
    } else if (bodyLen == 3 && favorCycles && cfg.hasMac &&
               code[loop->head].op == Opcode::LT &&
               code[loop->head + 1].op == Opcode::MPY &&
               code[loop->head + 2].op == Opcode::APAC) {
      // MAC rotation: fold the accumulate into the next LT (LTA); keeps
      // the counted loop but saves a cycle per iteration.
      Instr clr = synth(Opcode::MPYK, Operand::imm(0));
      Instr lark = code[loop->lark];
      Instr lta = code[loop->head];  // keeps the loop label
      lta.op = Opcode::LTA;
      Instr mpy = code[loop->head + 1];
      Instr banz = code[loop->banz];
      Instr drain = synth(Opcode::APAC);
      repl = {clr, lark, lta, mpy, banz, drain};
      keepLabelOnFirst = false;  // label stays on the LTA
      if (stats) ++stats->macRotations;
    } else {
      searchFrom = loop->head + 1;
      continue;
    }

    // The loop label had a single (now removed or kept) user; transfer it
    // to the replacement head for listing readability on RPT forms.
    if (keepLabelOnFirst && !repl.empty())
      repl[0].label = code[loop->head].label;

    // Replace the body and BANZ, then drop the counter init (it precedes
    // the head, so the head's index is still valid for the first step).
    auto at = [&](size_t k) { return code.begin() + static_cast<long>(k); };
    code.erase(at(loop->head), at(loop->banz + 1));
    code.insert(at(loop->head), repl.begin(), repl.end());
    code.erase(at(loop->lark));
    // Restart the scan: indices shifted.
    searchFrom = 0;
  }
}

}  // namespace record

#include "opt/modeopt.h"

#include <cassert>
#include <map>

namespace record {

namespace {

// Tri-state mode value.
enum class MState : int8_t { Zero = 0, One = 1, Unknown = 2 };

MState meet(MState a, MState b) {
  if (a == b) return a;
  return MState::Unknown;
}

MState fromReq(int r) { return r == 0 ? MState::Zero : MState::One; }

struct Block {
  size_t begin, end;  // [begin, end) into code
  std::vector<size_t> succs;
  MState inOvm = MState::Unknown, inSxm = MState::Unknown;
};

/// Forward dataflow over `blocks`: the mode state at each block entry.
void solveEntryStates(const std::vector<Instr>& code,
                      std::vector<Block>& blocks) {
  if (blocks.empty()) return;
  std::map<std::string, size_t> labelBlock;
  for (size_t b = 0; b < blocks.size(); ++b)
    if (!code[blocks[b].begin].label.empty())
      labelBlock[code[blocks[b].begin].label] = b;
  for (size_t b = 0; b < blocks.size(); ++b) {
    Block& blk = blocks[b];
    const Instr& last = code[blk.end - 1];
    bool uncond = (last.op == Opcode::B || last.op == Opcode::HALT);
    if (opInfo(last.op).isBranch) {
      auto it = labelBlock.find(last.targetLabel);
      if (it != labelBlock.end()) blk.succs.push_back(it->second);
    }
    if (!uncond && b + 1 < blocks.size()) blk.succs.push_back(b + 1);
  }

  // The entry block starts with the hardware reset state (OVM=0, SXM=0).
  blocks[0].inOvm = MState::Zero;
  blocks[0].inSxm = MState::Zero;
  // Transfer: walk a block propagating requirements (a requirement forces
  // the state, since we will insert a switch there if needed).
  auto transfer = [&](const Block& blk, MState ovm, MState sxm) {
    for (size_t i = blk.begin; i < blk.end; ++i) {
      const Instr& in = code[i];
      if (in.need.ovm >= 0) ovm = fromReq(in.need.ovm);
      if (in.need.sxm >= 0) sxm = fromReq(in.need.sxm);
      // Explicit switches already present (e.g. hand-written) also define.
      switch (in.op) {
        case Opcode::SOVM: ovm = MState::One; break;
        case Opcode::ROVM: ovm = MState::Zero; break;
        case Opcode::SSXM: sxm = MState::One; break;
        case Opcode::RSXM: sxm = MState::Zero; break;
        default: break;
      }
    }
    return std::pair<MState, MState>(ovm, sxm);
  };
  bool changed = true;
  std::vector<bool> reached(blocks.size(), false);
  reached[0] = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (!reached[b]) continue;
      auto [ovmOut, sxmOut] = transfer(blocks[b], blocks[b].inOvm,
                                       blocks[b].inSxm);
      for (size_t s : blocks[b].succs) {
        MState nOvm = reached[s] ? meet(blocks[s].inOvm, ovmOut) : ovmOut;
        MState nSxm = reached[s] ? meet(blocks[s].inSxm, sxmOut) : sxmOut;
        if (!reached[s] || nOvm != blocks[s].inOvm ||
            nSxm != blocks[s].inSxm) {
          blocks[s].inOvm = nOvm;
          blocks[s].inSxm = nSxm;
          reached[s] = true;
          changed = true;
        }
      }
    }
  }
}

}  // namespace

void resolveModes(std::vector<Instr>& code, const TargetConfig& cfg,
                  bool optimize, ModeOptStats* stats) {
  // Block leaders: instruction 0, labeled instructions, instructions
  // following a branch. The naive variant makes every instruction its own
  // block entered with both bits unknown, so the greedy emission below
  // switches before every mode-sensitive instruction.
  std::vector<Block> blocks;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!optimize || i == 0 || !code[i].label.empty() ||
        opInfo(code[i - 1].op).isBranch) {
      if (!blocks.empty()) blocks.back().end = i;
      blocks.push_back({i, code.size(), {}});
    }
  }
  if (optimize) solveEntryStates(code, blocks);

  // Emission with greedy switching.
  std::vector<Instr> out;
  out.reserve(code.size() + 8);
  int switches = 0;
  for (const auto& blk : blocks) {
    MState ovm = blk.inOvm, sxm = blk.inSxm;
    for (size_t i = blk.begin; i < blk.end; ++i) {
      Instr& in = code[i];
      const ModeReq need = in.need;
      bool first = true;
      auto emitSwitch = [&](Opcode op) {
        Instr& sw = out.emplace_back();
        sw.op = op;
        // The switch serves the instruction that required it, and takes
        // over its label so a branch to the label runs the switch.
        sw.srcLine = in.srcLine;
        sw.srcCol = in.srcCol;
        if (first) sw.label.swap(in.label);
        first = false;
        ++switches;
      };
      if (need.ovm >= 0) {
        assert(cfg.hasSat || need.ovm == 0);
        if (cfg.hasSat && ovm != fromReq(need.ovm))
          emitSwitch(need.ovm ? Opcode::SOVM : Opcode::ROVM);
        ovm = fromReq(need.ovm);
      }
      if (need.sxm >= 0) {
        if (sxm != fromReq(need.sxm))
          emitSwitch(need.sxm ? Opcode::SSXM : Opcode::RSXM);
        sxm = fromReq(need.sxm);
      }
      switch (in.op) {
        case Opcode::SOVM: ovm = MState::One; break;
        case Opcode::ROVM: ovm = MState::Zero; break;
        case Opcode::SSXM: sxm = MState::One; break;
        case Opcode::RSXM: sxm = MState::Zero; break;
        default: break;
      }
      out.push_back(std::move(in));
    }
  }
  code.swap(out);
  if (stats) stats->switchesInserted = switches;
}

}  // namespace record

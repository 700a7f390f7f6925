// Mode-change minimization (Liao et al., cited in §3.3): the tdsp has two
// mode bits -- OVM (saturating vs. wrap-around accumulator arithmetic) and
// SXM (arithmetic vs. logical right shift). Instructions selected from
// saturating / shifting IR operators carry mode *requirements*; this pass
// inserts the minimal number of SOVM/ROVM/SSXM/RSXM instructions so every
// requirement is met on all paths.
//
// The optimized algorithm runs a forward dataflow over basic blocks to learn
// the mode state at each block entry (meet = agreement or unknown), then
// greedily inserts a mode switch only when the known state disagrees with a
// requirement -- which is optimal per bit for straight-line requirement
// sequences. The naive variant (a compiler with no mode tracking, used as
// the ablation baseline) switches before every mode-sensitive instruction.
#pragma once

#include <vector>

#include "target/isa.h"

namespace record {

struct ModeOptStats {
  int switchesInserted = 0;
};

/// Meet every instruction's `need` by inserting mode-switch instructions
/// into `code`. `optimize` selects the dataflow algorithm vs. the naive one.
void resolveModes(std::vector<Instr>& code, const TargetConfig& cfg,
                  bool optimize, ModeOptStats* stats = nullptr);

}  // namespace record

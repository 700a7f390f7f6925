// Local peephole cleanups run after selection and compaction:
//
//   SACL x ; LAC x          ->  SACL x          (ACC already holds x)
//   LAC m ; SACL m+1        ->  DMOV m          (delay-line move; needs
//                                                ACC dead afterwards)
//   LARK ARk,#a ; LARK ARk,#b -> LARK ARk,#b    (dead AR load)
//
// All rewrites stay within basic blocks (labels and branches are barriers).
#pragma once

#include <vector>

#include "target/isa.h"

namespace record {

class TraceContext;

struct PeepholeStats {
  int removedLoads = 0;
  int dmovFusions = 0;
  int deadArLoads = 0;
};

/// `trace` (optional) receives one "peephole" remark per rewrite applied;
/// observability only.
void peephole(std::vector<Instr>& code, const TargetConfig& cfg,
              PeepholeStats* stats = nullptr, TraceContext* trace = nullptr);

}  // namespace record

// Code compaction (§3.3: Leupers/Marwedel time-constrained compaction,
// Timmer, Strik): merges sequential instruction pairs into the tdsp's
// combined "parallel" instructions:
//
//    APAC ; LT m   ->  LTA m      (accumulate previous product || load T)
//    PAC  ; LT m   ->  LTP m
//    APAC ; MPYXY  ->  MACXY      (dual-operand multiply-accumulate)
//    LTA m; DMOV m ->  LTD m      (with the delay-line move folded in)
//
// Two engines are provided: a greedy adjacent-pair scan ("list"), and an
// optimal branch-and-bound that reorders each basic block subject to data
// dependences to maximize merges ("optimal"). Mode switches and branches act
// as scheduling barriers.
#pragma once

#include <vector>

#include "target/isa.h"

namespace record {

class TraceContext;

enum class CompactMode : uint8_t { None, List, Optimal };

struct CompactStats {
  int merges = 0;
  int blocksReordered = 0;
};

/// Compacts `code` in place (CompactMode::None leaves it as it is).
/// `trace` (optional) receives one "compact" remark per merged pair and per
/// reordered block; observability only.
void compact(std::vector<Instr>& code, const TargetConfig& cfg,
             CompactMode mode, CompactStats* stats = nullptr,
             TraceContext* trace = nullptr);

/// True if instructions i and j (i before j) can be swapped without changing
/// observable behaviour. Exposed for the reordering tests.
bool independentInstrs(const Instr& a, const Instr& b);

}  // namespace record

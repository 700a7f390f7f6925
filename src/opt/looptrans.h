// Loop-level transformations that exploit the tdsp's hardware loop (RPT):
//
// 1. RPT conversion: a counted BANZ loop whose body is a single repeatable
//    instruction becomes  RPT #n ; body  -- removing the 2-cycle-per-
//    iteration branch and the counter register entirely.
//
//        LARK ARc,#n            RPT #n
//    L:  ADD *AR0+       ->     ADD *AR0+
//        BANZ ARc,L
//
// 2. MAC pipelining: a counted loop whose body is  MPYXY ; APAC  is
//    software-pipelined into the single-instruction MACXY form (the classic
//    repeated-MAC idiom of DSP inner loops):
//
//        LARK ARc,#n            MPYK #0        (clear P)
//    L:  MPYXY *a+,*b+    ->    RPT #n
//        APAC                   MACXY *a+,*b+
//        BANZ ARc,L             APAC           (drain the last product)
#pragma once

#include <vector>

#include "target/isa.h"

namespace record {

// 3. MAC rotation (enabled by `favorCycles`, costs one word but saves one
//    cycle per iteration): a LT;MPY;APAC body becomes LTA;MPY with the
//    accumulate folded into the next iteration's T load:
//
//        LARK ARc,#n            LARK ARc,#n
//    L:  LT *a+                 MPYK #0        (clear P)
//        MPY *b+          ->  L: LTA *a+
//        APAC                   MPY *b+
//        BANZ ARc,L             BANZ ARc,L
//                               APAC           (drain the last product)

struct LoopTransStats {
  int rptConversions = 0;
  int macPipelined = 0;
  int macRotations = 0;
};

void applyLoopTransforms(std::vector<Instr>& code, const TargetConfig& cfg,
                         bool favorCycles, LoopTransStats* stats = nullptr);

}  // namespace record

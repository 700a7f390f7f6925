// Accumulator promotion: the heterogeneous-register-set optimization that
// keeps a loop-carried scalar in ACC across iterations instead of
// reloading/storing it each pass (register assignment for heterogeneous
// register sets, §3.3: Wess/Araujo/Rimey/Bradlee/Hartmann).
//
//      LARK ARc,#n                LARK ARc,#n
//  L:  LAC s                      LAC s
//      LT *AR0+                L: LT *AR0+
//      MPY *AR1+        ->        MPY *AR1+
//      APAC                       APAC
//      SACL s                     BANZ ARc,L
//      BANZ ARc,L                 SACL s
//
// Legal when the body's only accesses to `s` are the leading LAC and the
// trailing SACL, the instructions after the SACL don't touch ACC, and the
// loop header is reachable only from its own BANZ.
#pragma once

#include <functional>
#include <vector>

#include "target/isa.h"

namespace record {

class TraceContext;

struct AccPromoteStats {
  int promotions = 0;
};

/// `indirectMayTouch(addr)`: can an indirect (*AR) memory operand alias data
/// address `addr`? Compiled code only ever points address registers into
/// array storage, so the codegen driver passes a predicate that returns
/// false for scalar addresses, unlocking promotion in stream loops. The
/// default is fully conservative. `trace` (optional) receives one
/// "accpromote" remark per promoted loop; observability only.
void promoteAccumulators(std::vector<Instr>& code,
                         AccPromoteStats* stats = nullptr,
                         const std::function<bool(int)>& indirectMayTouch = {},
                         TraceContext* trace = nullptr);

}  // namespace record

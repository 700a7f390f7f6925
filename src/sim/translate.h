// Hot-region translation for the decode-once simulator: superblocks.
//
// The decode-once core (sim/machine.h) still pays a per-instruction tax in
// its hot loop -- budget check, PC bounds check, dispatch branch, ledger
// update, repeat/branch bookkeeping. This unit removes that tax for the
// regions where simulated programs actually live: it detects hot
// straight-line regions in the decoded stream and translates them into
// *superblocks* -- fused handler sequences executed without per-instruction
// dispatch, with the cycle/instruction ledger accumulated in locals and
// committed in batches, and adjacent instruction idioms (LT;MPY, LAC;SACL,
// PAC;ADD, ...) fused into single handlers. A micro-op expands the same
// per-opcode body (sim/semantics.h) as the decoded loop's handler does.
//
// Region discovery, three ways:
//
//   * RPT bodies, statically at decode time: `RPT #n ; I` becomes a block
//     that retires the RPT and then runs all n+1 repeats of I as one tight
//     per-opcode loop (the AR walk and the ledger both stay in registers).
//   * Back-edge loops, dynamically: every taken branch to a lower-or-equal
//     PC bumps a per-branch-site counter (the same back-edge shape the
//     execution profiler detects); crossing kBackEdgeThreshold promotes the
//     region [target .. branchPc] into a loop block whose closing branch is
//     executed as part of the block.
//   * Run-entry regions, dynamically: the straight-line prefix starting at
//     the PC a run() begins from is promoted after kEntryThreshold runs --
//     this is what makes tiny straight-line kernels (real_update,
//     dot_product) benefit, not just loopy ones.
//
// The deopt contract (what keeps compareSimEngines green with translation
// on by default): a superblock only runs when it can be proven to behave
// exactly like the decoded loop would.
//
//   * Budget: before every pass the executor checks that a worst-case pass
//     still fits the cycle budget; if not it returns BlockExit::Stay and
//     the decoded loop executes from the block entry, instruction by
//     instruction, exhausting the budget at the exact architectural
//     instant. (Progress is guaranteed: a Stay always retires at least one
//     decoded instruction before the block can be attempted again.)
//   * Traps: memory bounds checks inside a block raise the identical
//     out-of-range exceptions; the executor commits the partial ledger
//     (completed instructions only) and partial architectural state before
//     rethrowing, so a trap inside a translated region is bit-identical --
//     same reason string, same retired-instruction count -- to the decoded
//     loop.
//   * Fault injection: setDecodeFault/clearDecodeFault re-decode the
//     program, which rebuilds the translation set from scratch (stale
//     blocks are invalidated, RPT blocks re-form against the new decode,
//     loop/entry blocks re-promote from zeroed counters). Instructions a
//     fault turned into decode-trap sinks are never translatable, so the
//     faulting program stays on the decoded path and traps identically.
//   * Profiling: a profiled run bypasses superblocks entirely (the Machine
//     picks the kProfile specialization, which never consults the
//     translation set), so per-PC attribution stays exact.
//
// Affine counted loops. A BANZ-closed loop block whose body never touches
// the counter AR, never loads or stores an AR (LAR/LARK/SAR) and moves
// every other AR only by constant steps (*ARn+/*ARn-, ADRK/SBRK) is marked
// affine at formation: each memory access gets a slot holding its AR, its
// offset within the pass and its span, and each AR its step per pass. At
// block entry the executor knows the trip count (counter + 1). When the
// whole run's worst-case ledger fits the budget and every access of every
// pass lies inside data memory, it runs the whole loop on the affine path:
// each address is entry AR + k*step + offset (no per-access bounds check,
// no AR stores), the same RECORD_SEM bodies expand over AffineMemory, the
// ledger is folded once, and the ARs and counter are written back at exit.
// When either whole-run check fails, the per-pass walk above runs
// unchanged: it stays the exact path for budget expiry and traps. At the
// sizes of the sim_long benchmark this about halves the translated time per
// tick of fir, convolution, n_real_updates and iir_biquad_n_sections
// (bench/sim_throughput's long-loop table; numbers in DESIGN.md).
//
// Translation is on for every new Machine; Machine::setTranslate(false)
// turns it off at run time. See DESIGN.md "Hot-region translation".
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/semantics.h"

namespace record {

// ---------------------------------------------------------------------------
// Translated representation
// ---------------------------------------------------------------------------

/// Translated micro-op kinds: one per straight-line opcode (TK::LAC, ...),
/// plus fused idioms (two or three architectural instructions, one
/// dispatch) and the End sentinel every block body is terminated with (so
/// the executor's walk needs no length check). Branches, RPT, HALT and
/// decode-trap sinks never appear in a block body -- control closes a block
/// (Superblock::Close) and trap sinks refuse translation.
///
/// A fused kind is its halves' RECORD_SEM bodies in order. The first half
/// reads `a` (the first instruction's operand), the second `b` (the
/// second's), and `sub` counts the halves retired before each later half,
/// so a trap there retires exactly the instructions the decoded loop would
/// have (every straight-line opcode costs 1 cycle: validateDesc refuses a
/// description that says otherwise).
#define RECORD_TB_FUSED(X)                                              \
  X(LtMpy) X(LtaMpy) X(LtpMpy) X(LacSacl) X(PacAdd) X(ApacSacl) X(SpacSacl) \
  X(LtMpyApac)
#define RECORD_SEM_LtMpy(A, B) RECORD_SEM_LT(A); sub = 1; RECORD_SEM_MPY(B)
#define RECORD_SEM_LtaMpy(A, B) RECORD_SEM_LTA(A); sub = 1; RECORD_SEM_MPY(B)
#define RECORD_SEM_LtpMpy(A, B) RECORD_SEM_LTP(A); sub = 1; RECORD_SEM_MPY(B)
#define RECORD_SEM_LacSacl(A, B) RECORD_SEM_LAC(A); sub = 1; RECORD_SEM_SACL(B)
#define RECORD_SEM_PacAdd(A, B) RECORD_SEM_PAC(); sub = 1; RECORD_SEM_ADD(B)
#define RECORD_SEM_ApacSacl(A, B) RECORD_SEM_APAC(); sub = 1; RECORD_SEM_SACL(B)
#define RECORD_SEM_SpacSacl(A, B) RECORD_SEM_SPAC(); sub = 1; RECORD_SEM_SACL(B)
#define RECORD_SEM_LtMpyApac(A, B) \
  RECORD_SEM_LtMpy(A, B); sub = 2; RECORD_SEM_APAC()

/// Every executable kind, in TK order: the enum, the executor's label table
/// and both block walkers are expanded from it.
#define RECORD_TB_KINDS(X) RECORD_OPCODES(X, RECORD_SIM_NONE) RECORD_TB_FUSED(X)

enum class TK : uint8_t {
#define RECORD_TB_ENUMERATOR(k) k,
  RECORD_TB_KINDS(RECORD_TB_ENUMERATOR)
#undef RECORD_TB_ENUMERATOR
  End
};

/// Fused kind names, in RECORD_TB_FUSED order (the TranslateStats::fusedFires
/// index).
inline constexpr const char* kFusedKindNames[] = {
#define RECORD_TB_NAME(k) #k,
    RECORD_TB_FUSED(RECORD_TB_NAME)
#undef RECORD_TB_NAME
};
inline constexpr int kNumFusedKinds =
    static_cast<int>(std::size(kFusedKindNames));

/// Index of a fused kind in kFusedKindNames, or -1 for any other kind (the
/// fused kinds are the last ones before End).
inline int fusedIndex(TK k) {
  const int first = static_cast<int>(TK::End) - kNumFusedKinds;
  const int i = static_cast<int>(k) - first;
  return i >= 0 && i < kNumFusedKinds ? i : -1;
}

/// One translated micro-op.
struct TransOp {
  TK kind = TK::NOP;
  uint8_t insns = 1;   // architectural instructions retired (2-3 when fused)
  uint8_t cycMax = 1;  // worst-case cycles: DecodedOp::cyc, + 1 for the XY
                       // conflict cycle, summed over fused halves
  // Worst-case ledger prefix of the ops before this one in the body (filled
  // at formation): the executor's hot walk keeps no per-op ledger and the
  // trap path reconstructs the exact decoded-loop ledger/PC from these.
  uint8_t cPre = 0;    // cycles charged before this op within a pass
  uint8_t nPre = 0;    // instructions retired before this op within a pass
  DecOperand a;
  DecOperand b;
};

/// One memory access of an affine loop body (see Superblock::affine): the
/// AR it goes through (-1 for a direct address), its address relative to
/// that AR's value at pass entry (the direct address itself when ar < 0)
/// and the words it touches from there (DMOV/LTD also touch addr+1).
struct AffineAccess {
  int ar = -1;
  int span = 1;
  int64_t offset = 0;
};

/// One AR an affine loop body moves, with its step per pass.
struct ArStep {
  int ar = 0;
  int64_t step = 0;
};

/// One superblock: a straight-line region executed without per-instruction
/// dispatch. Loop blocks additionally execute their closing branch and
/// iterate in place; RPT blocks run the whole repeat batch fused.
struct Superblock {
  enum class Kind : uint8_t { Entry, Loop, Rpt };
  /// How the block hands control back: fall out (None), stop (Halt), or a
  /// closing branch at `closePc` targeting `entry` (Loop blocks only).
  enum class Close : uint8_t { None, Halt, B, Bz, Bgez, Banz };

  Kind kind = Kind::Entry;
  Close close = Close::None;
  int entry = 0;    // first PC of the region (block is keyed here)
  int exitPc = 0;   // PC to fetch after falling out
  int closePc = 0;  // PC of the closing branch / HALT (ledger-neutral info)
  int closeAr = 0;  // Banz close: counter AR index
  /// Cycles of the block's control instruction (DecodedOp::cyc of the
  /// closing branch, the closing HALT, or an Rpt block's leading RPT).
  uint8_t ctlCyc = 0;
  std::vector<TransOp> body;
  // Rpt blocks: the single body op repeats `rptReps` times after the RPT
  // instruction itself retires.
  int rptReps = 0;
  /// Whole-body ledger totals (worst-case cycles / exact instructions) of
  /// one pass, folded into the run ledger once at the End sentinel.
  int64_t passCycles = 0;
  int passInsns = 0;
  /// Worst-case charged cycles of one full pass (body + closing control):
  /// the budget pre-check guarantees every intra-pass fetch the decoded
  /// loop would have made passes its budget test.
  int64_t maxCyclesPerPass = 0;
  /// Completed passes over the block's lifetime (Loop and Entry blocks):
  /// the fused-kind fire counts in TranslateStats derive from it.
  int64_t passes = 0;

  /// Affine BANZ loops (see the header comment): `affineBody` is `body`
  /// with ADRK/SBRK dropped and every indirect operand's val re-pointed at
  /// its slot in `accesses` (direct accesses have slots too, for the range
  /// check); `arSteps` lists every AR the body moves. `slots` holds two
  /// words per access, the AffineMemory layout: its address at pass 0
  /// (set at each affine run) and its step per pass.
  bool affine = false;
  std::vector<TransOp> affineBody;
  std::vector<AffineAccess> accesses;
  std::vector<ArStep> arSteps;
  std::vector<int64_t> slots;
};

/// Formation/execution counters, exposed through Machine::translateStats()
/// so tests can pin block formation and promotion without peeking at
/// internals.
struct TranslateStats {
  int rptBlocks = 0;    // formed statically at (re)decode
  int loopBlocks = 0;   // promoted from hot back-edges
  int entryBlocks = 0;  // promoted from hot run entries
  int64_t blockRuns = 0;          // superblock executions
  int64_t blockInstructions = 0;  // architectural instructions retired inside
  int64_t deopts = 0;             // budget pre-check bailouts (Stay exits)
  int64_t affineRuns = 0;         // loop-block runs taken on the affine path
  /// Fires per fused kind (kFusedKindNames order): completed passes times
  /// the kind's occurrences in the body, summed over the blocks.
  std::array<int64_t, kNumFusedKinds> fusedFires{};
};

/// Architectural state handed to the block executor and written back on
/// every exit path (including the trap unwind). Passed as one small struct
/// rather than per-field references so only the struct's address escapes
/// into the executor's unwind path -- the caller's run-loop locals stay in
/// registers.
struct SimState {
  int64_t acc = 0, t = 0, p = 0;
  bool ovm = false, sxm = false;
  int pc = 0;
};

/// How a superblock execution ended. Traps leave via the same exceptions
/// the decoded loop throws (with state and ledger already written back).
enum class BlockExit : uint8_t {
  Flow,  // block done, st.pc is the next fetch address
  Stay,  // deopt: execute from st.pc (== entry) on the decoded path
};

/// Dynamic promotion thresholds. Small enough that a 4-tick harness run
/// exercises entry blocks and a 16-iteration loop promotes mid-run; large
/// enough that cold code never pays formation cost.
inline constexpr int kBackEdgeThreshold = 12;
inline constexpr int kEntryThreshold = 3;
/// Longest translatable region, in instructions.
inline constexpr int kMaxBlockLen = 64;

/// Data memory as an affine loop pass sees it: the SimMemory interface with
/// every indirect address computed from the pass index `k` (operand val is
/// the access slot), and no bounds checks -- the executor proved every
/// access of the whole run in range before taking this path. The AR-file
/// bodies expand over it too but never run: formation drops ADRK/SBRK from
/// an affine body and refuses LAR/LARK/SAR.
struct AffineMemory {
  int64_t* data;
  const int64_t* slot;  // Superblock::slots
  int64_t k;            // pass index
  int* ar;
  const TargetConfig* cfg;

  int64_t loadWord(int addr) const {
    return data[static_cast<unsigned>(addr)];
  }
  void storeWord(int addr, int64_t v) const {
    data[static_cast<unsigned>(addr)] = wrap16(v);
  }
  int addrOf(const DecOperand& o) const {
    if (o.kind != 2) return static_cast<int>(o.val);
    const int64_t* x = slot + 2 * o.val;
    return static_cast<int>(x[0] + k * x[1]);
  }
  int64_t readOp(const DecOperand& o) const {
    return o.kind == 0 ? static_cast<int64_t>(o.val) : loadWord(addrOf(o));
  }
  int bank(const DecOperand& o, int addr) const {
    return o.bank >= 0 ? o.bank : cfg->bankOf(addr);
  }
};

/// Set each access slot's pass-0 address for an affine run of `trips`
/// passes from the current ARs. False when some access of some pass would
/// leave data memory (or the 16-bit AR range, where the register would
/// wrap): the exact walk then traps where the decoded loop does. Addresses
/// are affine in the pass index, so the first and last pass bound every
/// other.
inline bool affineSlots(Superblock& b, const int* ar, int64_t trips,
                        unsigned dataSize) {
  const int64_t limit = std::min<int64_t>(dataSize, 0x10000);
  for (size_t j = 0; j < b.accesses.size(); ++j) {
    const AffineAccess& x = b.accesses[j];
    const int64_t first = (x.ar < 0 ? 0 : ar[x.ar]) + x.offset;
    const int64_t last = first + (trips - 1) * b.slots[2 * j + 1];
    if (std::min(first, last) < 0 || std::max(first, last) + x.span > limit)
      return false;
    b.slots[2 * j] = first;
  }
  return true;
}

/// The affine path of a Loop block (see the header comment): run the whole
/// BANZ loop from its entry, or return false -- touching nothing -- when the
/// whole run's worst-case ledger does not fit the budget or some access
/// would leave data memory. Out of line on purpose: GCC lets a computed goto
/// reach every address-taken label of its function, so sharing
/// runSuperblock's body would merge the two walks' dispatch graphs.
[[gnu::noinline]] inline bool runAffine(Superblock& b, const TargetConfig& cfg,
                                        int64_t* data, unsigned dataSize,
                                        int* ar, SimState& st,
                                        int64_t maxCycles, int64_t& cycles,
                                        int64_t& instructions,
                                        TranslateStats& stats) {
  // The loop runs the counter's value + 1 passes from here. Its worst case
  // fitting the budget means no pass of the exact walk would deopt; every
  // access in range means none would trap.
  const int64_t trips = static_cast<int64_t>(ar[b.closeAr]) + 1;
  if (cycles + trips * b.maxCyclesPerPass > maxCycles ||
      !affineSlots(b, ar, trips, dataSize))
    return false;

  int64_t acc = st.acc, tr = st.t, pr = st.p;
  bool ovm = st.ovm, sxm = st.sxm;
  int sub = 0;        // fused bodies mark their halves; nothing reads it here
  int64_t extra = 0;  // XY bank-discount refunds
  auto xyConflict = [&](bool conflict) {
    if (!conflict) extra -= 1;
  };
  AffineMemory mem{data, b.slots.data(), 0, ar, &cfg};
  const TransOp* op = nullptr;
  static const void* const kTbl[] = {
#define RECORD_TB_LABEL(k) &&TA_##k,
      RECORD_TB_KINDS(RECORD_TB_LABEL)
#undef RECORD_TB_LABEL
      &&TA_End,
  };
#define TA_DISPATCH() goto* kTbl[static_cast<size_t>(op->kind)]
ta_pass:
  op = b.affineBody.data();
  TA_DISPATCH();
#define RECORD_TB_EXEC(k)          \
  TA_##k : {                       \
    RECORD_SEM_##k(op->a, op->b);  \
  }                                \
  ++op;                            \
  TA_DISPATCH();
  RECORD_TB_KINDS(RECORD_TB_EXEC)
#undef RECORD_TB_EXEC
#undef TA_DISPATCH
TA_End:
  if (++mem.k < trips) goto ta_pass;
  (void)sub;

  for (const ArStep& s : b.arSteps)
    ar[s.ar] = static_cast<int>((ar[s.ar] + trips * s.step) & 0xffff);
  ar[b.closeAr] = 0;
  st = SimState{acc, tr, pr, ovm, sxm, b.exitPc};
  const int64_t n = trips * (b.passInsns + 1);
  cycles += trips * (b.passCycles + b.ctlCyc) + extra;
  instructions += n;
  stats.blockInstructions += n;
  ++stats.blockRuns;
  ++stats.affineRuns;
  b.passes += trips;
  return true;
}

/// Execute one Loop or Rpt superblock (Entry blocks are walked inline by
/// Machine::runImpl): an affine loop whole on the affine path when its two
/// whole-run checks pass, any other pass by pass. `cycles`/`instructions`
/// are the run ledger (committed per pass); `maxCycles` the run budget. See
/// BlockExit for the contract: state is written back into `st` on every
/// exit path, including the trap unwind, so the caller's catch can adopt
/// it. Kept out of line on purpose -- inlining it into runImpl spreads its
/// unwind paths into the interpreter loop and costs more in spilled
/// run-loop locals than the call saves (measured).
///
/// The hot walk keeps NO per-op ledger: each op's worst-case ledger prefix
/// (cPre/nPre) was precomputed at formation, and the pass total is folded in
/// once at the End sentinel. Two locals patch the two ways reality can
/// deviate from the precomputed sums: `sub` (retired halves of the current
/// fused op, see RECORD_TB_FUSED) and `extra` (this engine's XY hook charges
/// the conflict cycle in the prefix and refunds it here when the banks
/// differ).
inline BlockExit runSuperblock(Superblock& b, const TargetConfig& cfg,
                               int64_t* data, unsigned dataSize, int* ar,
                               SimState& st, int64_t maxCycles,
                               int64_t& cycles, int64_t& instructions,
                               TranslateStats& stats) {
  if (b.affine && runAffine(b, cfg, data, dataSize, ar, st, maxCycles, cycles,
                            instructions, stats))
    return BlockExit::Flow;

  // Loop-carried architectural state in locals for the whole block run;
  // written back through st on every exit, including the trap unwind (the
  // catch below sees the locals' values at the throw point).
  int64_t acc = st.acc, tr = st.t, pr = st.p;
  bool ovm = st.ovm, sxm = st.sxm;
  int64_t c = 0, n = 0;  // block-local ledger batch, folded in on exit
  int64_t done = 0;      // passes completed by the exact walk
  int sub = 0;           // halves retired inside the current fused op
  int64_t extra = 0;     // XY bank-discount corrections, not yet folded
  const SimMemory<NoNote> mem{data, dataSize, ar, &cfg, {}};
  auto xyConflict = [&](bool conflict) {
    if (!conflict) extra -= 1;
  };

  // Forced inline: an out-of-line writeBack takes the address of every
  // local it captures, which keeps acc/tr/pr in memory through the walk.
  auto writeBack = [&](int pc) __attribute__((always_inline)) {
    st.acc = acc;
    st.t = tr;
    st.p = pr;
    st.ovm = ovm;
    st.sxm = sxm;
    st.pc = pc;
    cycles += c;
    instructions += n;
    stats.blockInstructions += n;
    b.passes += done;
  };

  ++stats.blockRuns;

  const TransOp* op = b.body.data();

  try {
    if (b.kind == Superblock::Kind::Rpt) {
      // The RPT itself retires first (its own fetch already passed the
      // budget check in the caller); then the decoded loop would fetch the
      // body once, budget-checked, and run ALL repeats without further
      // checks -- an RPT batch overshoots maxCycles exactly like the
      // decoded loop does.
      c += b.ctlCyc;
      n += 1;
      if (cycles + c >= maxCycles) {
        // The body fetch would have hit the budget: stop at the body PC
        // with the pending repeat count lost, as the decoded loop does.
        writeBack(b.entry + 1);
        return BlockExit::Flow;
      }
      // A monomorphic switch (one single-op kind for the whole batch)
      // dispatched per rep. Worst-case cycles charged per rep, with XY bank
      // discounts accumulating in `extra` (folded below; the trap path
      // folds them too).
      for (int r = b.rptReps + 1; r > 0; --r) {
        switch (op->kind) {
#define RECORD_TB_EXEC_RPT(k)          \
  case TK::k: {                        \
    RECORD_SEM_##k(op->a, op->b);      \
  } break;
          RECORD_OPCODES(RECORD_TB_EXEC_RPT, RECORD_SIM_NONE)
#undef RECORD_TB_EXEC_RPT
          default:
            __builtin_unreachable();  // an RPT body is one unfused op
        }
        c += op->cycMax;
        n += 1;
      }
      c += extra;
      writeBack(b.entry + 2);
      return BlockExit::Flow;
    }

    // Loop blocks: straight-line passes, re-entered in place while the
    // closing branch stays taken. Each op's retire site hosts its own
    // indirect branch (the BTB gets a per-predecessor successor slot -- the
    // same rationale as the decoded loop's dispatch), and the walk lands on
    // the End sentinel at the body's end.
    static const void* const kTbl[] = {
#define RECORD_TB_LABEL(k) &&TB_##k,
        RECORD_TB_KINDS(RECORD_TB_LABEL)
#undef RECORD_TB_LABEL
        &&TB_End,
    };
#define TB_DISPATCH() goto* kTbl[static_cast<size_t>(op->kind)]

  tb_pass:
    if (cycles + c + b.maxCyclesPerPass > maxCycles) {
      // A worst-case pass might fail an intra-pass fetch budget check the
      // decoded loop would make; deopt and replay this iteration on the
      // decoded path from the block entry.
      ++stats.deopts;
      writeBack(b.entry);
      return BlockExit::Stay;
    }
    sub = 0;
    op = b.body.data();
    TB_DISPATCH();

#define RECORD_TB_EXEC(k)          \
  TB_##k : {                       \
    RECORD_SEM_##k(op->a, op->b);  \
  }                                \
  sub = 0;                         \
  ++op;                            \
  TB_DISPATCH();
    RECORD_TB_KINDS(RECORD_TB_EXEC)
#undef RECORD_TB_EXEC
#undef TB_DISPATCH

  TB_End:
    // The pass completed: fold its precomputed totals (worst-case cycles
    // corrected by the XY discounts) into the block ledger, then retire the
    // closing branch. Close control never touches data memory, so nothing
    // past this point throws mid-pass.
    c += b.passCycles + extra + b.ctlCyc;
    n += b.passInsns + 1;
    extra = 0;
    ++done;
    switch (b.close) {
      case Superblock::Close::B:
        goto tb_pass;
      case Superblock::Close::Bz:
        if (acc == 0) goto tb_pass;
        break;
      case Superblock::Close::Bgez:
        if (acc >= 0) goto tb_pass;
        break;
      case Superblock::Close::Banz: {
        int& reg = ar[b.closeAr];
        if (reg != 0) {
          reg = (reg - 1) & 0xffff;
          goto tb_pass;
        }
        break;
      }
      default:
        __builtin_unreachable();  // None/Halt close only Entry blocks
    }
    writeBack(b.exitPc);
    return BlockExit::Flow;
  } catch (...) {
    // Trap inside the block: reconstruct the exact decoded-loop ledger and
    // PC. The faulting (half-)instruction itself never retires. On the RPT
    // path c/n are maintained per rep (only the XY discounts are pending)
    // and every repeat executes at the body PC; on the pass walk the
    // current op's precomputed prefix plus the retired fused halves (each
    // 1 cycle / 1 instruction) give the mid-pass state.
    if (b.kind == Superblock::Kind::Rpt) {
      c += extra;
      writeBack(b.entry + 1);
    } else {
      c += op->cPre + extra + sub;
      n += op->nPre + sub;
      writeBack(b.entry + op->nPre + sub);
    }
    throw;
  }
}

/// The per-Machine translation set: formed blocks keyed by entry PC plus
/// the promotion counters. Rebuilt from scratch on every re-decode.
class TranslationSet {
 public:
  /// Reset everything and re-form RPT blocks from the fresh decode.
  void rebuild(const std::vector<DecodedOp>& ops);

  /// Raw per-PC block map for the interpreter's fetch path (one load per
  /// fetch instead of a member-chain): block index or -1. Stable across
  /// block formation: the map is sized once per (re)decode and install()
  /// only writes elements.
  const int16_t* blockMap() const { return blockAt_.data(); }
  const Superblock& block(int i) const {
    return blocks_[static_cast<size_t>(i)];
  }
  Superblock& block(int i) { return blocks_[static_cast<size_t>(i)]; }

  /// Count one taken back-edge at `branchPc`; true exactly once, when the
  /// count reaches kBackEdgeThreshold (the caller should then tryFormLoop).
  /// The count stops there, so a loop that never forms a block cannot
  /// overflow it.
  bool noteBackEdge(int branchPc) {
    return bump(backEdge_[static_cast<size_t>(branchPc)], kBackEdgeThreshold);
  }
  /// Count one run() entry at `pc`; true exactly once, at kEntryThreshold.
  bool noteEntry(int pc) {
    return pc >= 0 && static_cast<size_t>(pc) < entry_.size() &&
           bump(entry_[static_cast<size_t>(pc)], kEntryThreshold);
  }

  /// Promote the loop [target .. branchPc] (closing branch included) if the
  /// region is translatable. Loop blocks may replace an entry block keyed
  /// at the same PC (they strictly subsume it).
  void tryFormLoop(const std::vector<DecodedOp>& ops, int target,
                   int branchPc);
  /// Promote the straight-line region starting at `pc`.
  void tryFormEntry(const std::vector<DecodedOp>& ops, int pc);

  /// Snapshot of the counters, with the fused-kind fire counts filled in
  /// from the blocks' pass counts.
  TranslateStats stats() const;
  /// The counters the executors bump.
  TranslateStats& counters() { return stats_; }

 private:
  static bool bump(int32_t& count, int threshold) {
    return count < threshold && ++count == threshold;
  }
  void install(Superblock b);

  std::vector<Superblock> blocks_;
  std::vector<int16_t> blockAt_;   // per PC: block index or -1
  std::vector<int32_t> backEdge_;  // taken back-edge count per branch PC
  std::vector<int32_t> entry_;     // run() entry count per PC
  TranslateStats stats_;
};

}  // namespace record

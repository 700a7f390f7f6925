// What each tdsp instruction does, written once for every Machine engine.
//
// The decode-once loop (sim/machine.cpp), the superblock executor and the
// inline entry-block walker (sim/translate.h) all expand the per-opcode
// bodies RECORD_SEM_<OP> below over DecodedOp operands, through one set of
// data-memory helpers (SimMemory). ReferenceMachine (sim/reference.cpp)
// keeps its own independent switch: it is the oracle these bodies are held
// against (compareSimEngines in dspstone/harness.h).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ir/type.h"
#include "target/isa.h"

// Both engines dispatch through computed goto (labels as values).
#if !defined(__GNUC__) && !defined(__clang__)
#error "the simulator needs the GNU labels-as-values extension (GCC or Clang)"
#endif

namespace record {

// ---------------------------------------------------------------------------
// Decoded representation
// ---------------------------------------------------------------------------

/// One pre-split operand. kind 0 = immediate/none (val is the literal or
/// AR index), 1 = direct (val is the data address), 2 = indirect (val is
/// a validated AR index, post the auto-modify delta).
struct DecOperand {
  uint8_t kind = 0;
  int8_t post = 0;   // -1 / 0 / +1, applied to the AR after use
  int8_t bank = -1;  // XY ops: memory bank when static (direct), else -1
  int32_t val = 0;
};

/// Dispatch index of the decode-trap sink (one past the last opcode).
inline constexpr uint8_t kTrapHandler = kNumOpcodes;

/// One decode-once instruction: everything the hot loop needs, flat.
struct DecodedOp {
  uint8_t handler = 0;   // dispatch index: opcode value, or kTrapHandler
  Opcode op = Opcode::NOP;  // effective (fault-remapped) opcode
  uint8_t cyc = 0;       // static cycle hint (branches 2, rest 1)
  DecOperand a;
  DecOperand b;
  int32_t target = -1;   // raw branch target (-1 when not a branch site)
};

// ---------------------------------------------------------------------------
// Data access
// ---------------------------------------------------------------------------

// Cold throw paths, out of line so a bounds check in a hot loop is a
// compare and a predicted-not-taken branch with no string construction
// nearby. Machine::readData/writeData raise the same reasons.
[[noreturn, gnu::noinline]] inline void badRead(int addr) {
  throw std::runtime_error("data read out of range: " + std::to_string(addr));
}
[[noreturn, gnu::noinline]] inline void badWrite(int addr) {
  throw std::runtime_error("data write out of range: " + std::to_string(addr));
}

/// The no-op access observer of unprofiled runs.
struct NoNote {
  void operator()(int) const {}
};

/// Data memory and the AR file as the instruction bodies see them. `note`
/// observes every data access (the profiler's hook in profiled runs).
template <class Note>
struct SimMemory {
  int64_t* data;
  unsigned size;
  int* ar;
  const TargetConfig* cfg;
  Note note;

  int64_t loadWord(int addr) const {
    if (static_cast<unsigned>(addr) >= size) badRead(addr);
    note(addr);
    return data[static_cast<unsigned>(addr)];
  }
  void storeWord(int addr, int64_t v) const {
    if (static_cast<unsigned>(addr) >= size) badWrite(addr);
    note(addr);
    data[static_cast<unsigned>(addr)] = wrap16(v);
  }
  /// Address of a memory operand. Indirect ARs were validated at decode, so
  /// no bounds check remains; the post-modification writeback is
  /// unconditional (delta 0 re-stores the same masked value).
  int addrOf(const DecOperand& o) const {
    if (o.kind == 2) {
      int a = ar[o.val];
      ar[o.val] = (a + o.post) & 0xffff;
      return a;
    }
    return static_cast<int>(o.val);
  }
  int64_t readOp(const DecOperand& o) const {
    return o.kind == 0 ? static_cast<int64_t>(o.val) : loadWord(addrOf(o));
  }
  /// Bank of an XY operand at `addr`: static for direct operands.
  int bank(const DecOperand& o, int addr) const {
    return o.bank >= 0 ? o.bank : cfg->bankOf(addr);
  }
};

inline int64_t addOvm(bool ovm, int64_t a, int64_t b) {
  return ovm ? sat32(a + b) : wrap32(a + b);
}
inline int64_t subOvm(bool ovm, int64_t a, int64_t b) {
  return ovm ? sat32(a - b) : wrap32(a - b);
}

// ---------------------------------------------------------------------------
// Instruction semantics
// ---------------------------------------------------------------------------
// RECORD_SEM_<OP>(A, B) is the effect of one straight-line opcode (an X
// entry of RECORD_OPCODES) with operands A and B. A body names the locals of
// the engine that expands it: acc/tr/pr/ovm/sxm (architectural state), mem
// (a SimMemory) and xyConflict(bool), the engine's hook for the MPYXY/MACXY
// bank-conflict cycle. A body that reads one operand takes it as A, so a
// fused idiom can hand its second half the second instruction's operand.

/// Expands to nothing: the X or C argument of RECORD_OPCODES that skips.
#define RECORD_SIM_NONE(op)

#define RECORD_SEM_LAC(A, ...) acc = mem.readOp(A)
#define RECORD_SEM_LACK(A, ...) acc = (A).val
#define RECORD_SEM_ZAC(...) acc = 0
#define RECORD_SEM_SACL(A, ...) mem.storeWord(mem.addrOf(A), acc)
#define RECORD_SEM_SACH(A, ...) \
  mem.storeWord(mem.addrOf(A), (acc >> 16) & 0xffff)
#define RECORD_SEM_ADD(A, ...) acc = addOvm(ovm, acc, mem.readOp(A))
#define RECORD_SEM_ADDK(A, ...) acc = addOvm(ovm, acc, (A).val)
#define RECORD_SEM_SUB(A, ...) acc = subOvm(ovm, acc, mem.readOp(A))
#define RECORD_SEM_SUBK(A, ...) acc = subOvm(ovm, acc, (A).val)
#define RECORD_SEM_NEG(...) acc = ovm ? sat32(-acc) : wrap32(-acc)
#define RECORD_SEM_AND(A, ...) acc = and16(acc, mem.readOp(A))
#define RECORD_SEM_ANDK(A, ...) acc = and16(acc, (A).val)
#define RECORD_SEM_OR(A, ...) acc = or16(acc, mem.readOp(A))
#define RECORD_SEM_XOR(A, ...) acc = xor16(acc, mem.readOp(A))
// Shifts go through the uint64-based helpers: `acc << 1` on a negative
// accumulator is flagged by -fsanitize=shift. SXM picks the shift-in.
#define RECORD_SEM_SFL(...) acc = wrapShl32(acc, 1)
#define RECORD_SEM_SFR(...) acc = sxm ? asr32(acc, 1) : lsr32(acc, 1)
#define RECORD_SEM_LT(A, ...) tr = mem.readOp(A)
#define RECORD_SEM_MPY(A, ...) pr = mul16(tr, mem.readOp(A))
#define RECORD_SEM_MPYK(A, ...) pr = mul16(tr, (A).val)
#define RECORD_SEM_PAC(...) acc = pr
#define RECORD_SEM_APAC(...) acc = addOvm(ovm, acc, pr)
#define RECORD_SEM_SPAC(...) acc = subOvm(ovm, acc, pr)
#define RECORD_SEM_SPL(A, ...) mem.storeWord(mem.addrOf(A), pr)
#define RECORD_SEM_LTA(A, ...) RECORD_SEM_APAC(); RECORD_SEM_LT(A)
#define RECORD_SEM_LTP(A, ...) RECORD_SEM_PAC(); RECORD_SEM_LT(A)
// One architectural read feeds both T and the delay-line shift (so an
// attached profiler counts exactly one access for it).
#define RECORD_SEM_LTD(A, ...)     \
  RECORD_SEM_APAC();               \
  {                                \
    int addr = mem.addrOf(A);      \
    tr = mem.loadWord(addr);       \
    mem.storeWord(addr + 1, tr);   \
  }
#define RECORD_SEM_MPYXY(A, B)                                   \
  {                                                              \
    int addrA = mem.addrOf(A);                                   \
    int addrB = mem.addrOf(B);                                   \
    pr = mul16(mem.loadWord(addrA), mem.loadWord(addrB));        \
    xyConflict(mem.bank(A, addrA) == mem.bank(B, addrB));        \
  }
#define RECORD_SEM_MACXY(A, B) RECORD_SEM_APAC(); RECORD_SEM_MPYXY(A, B)
#define RECORD_SEM_LARK(A, B) mem.ar[(A).val] = (B).val & 0xffff
#define RECORD_SEM_LAR(A, B) \
  mem.ar[(A).val] =          \
      static_cast<int>(static_cast<uint64_t>(mem.readOp(B)) & 0xffff)
#define RECORD_SEM_SAR(A, B) mem.storeWord(mem.addrOf(B), mem.ar[(A).val])
#define RECORD_SEM_ADRK(A, B) \
  mem.ar[(A).val] = (mem.ar[(A).val] + (B).val) & 0xffff
#define RECORD_SEM_SBRK(A, B) \
  mem.ar[(A).val] = (mem.ar[(A).val] - (B).val) & 0xffff
// One read, one write: a single architectural access pair.
#define RECORD_SEM_DMOV(A, ...)                       \
  {                                                   \
    int addr = mem.addrOf(A);                         \
    mem.storeWord(addr + 1, mem.loadWord(addr));      \
  }
#define RECORD_SEM_SOVM(...) ovm = true
#define RECORD_SEM_ROVM(...) ovm = false
#define RECORD_SEM_SSXM(...) sxm = true
#define RECORD_SEM_RSXM(...) sxm = false
#define RECORD_SEM_NOP(...) (void)0

}  // namespace record

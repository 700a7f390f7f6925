// The tdsp instruction set: a TI TMS320C1x-flavoured single-accumulator
// fixed-point DSP core, which is the running example target of the paper
// (§2: "TMS320C2x-like core processors"). The ISA is deliberately small --
// accumulator machine with a T/P multiplier pipeline, an AR file for
// indirect addressing, and OVM/SXM mode bits that the mode-change
// minimization pass manages.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace record {

struct TargetConfig;

// The opcode list, in encoding order: the only place an opcode is named.
// X(op) lists a straight-line instruction, C(op) one that transfers
// control, arms a repeat or stops. enum Opcode, the mnemonic table and the
// simulator's dispatch tables are all expanded from it.
#define RECORD_OPCODES(X, C)                                              \
  /* Accumulator loads / stores */                                        \
  X(LAC)   /* ACC := mem */                                               \
  X(LACK)  /* ACC := imm8 */                                              \
  X(ZAC)   /* ACC := 0 */                                                 \
  X(SACL)  /* mem := ACC (low word) */                                    \
  X(SACH)  /* mem := ACC >> 16 (high word) */                             \
  /* Accumulator arithmetic */                                            \
  X(ADD)   /* ACC += mem        (OVM-sensitive) */                        \
  X(ADDK)  /* ACC += imm        (OVM-sensitive) */                        \
  X(SUB)   /* ACC -= mem */                                               \
  X(SUBK)  /* ACC -= imm */                                               \
  X(NEG)   /* ACC := -ACC */                                              \
  /* Bitwise (right operand zero-extended 16-bit) */                      \
  X(AND)   /* ACC &= mem */                                               \
  X(ANDK)  /* ACC &= imm */                                               \
  X(OR)    /* ACC |= mem */                                               \
  X(XOR)   /* ACC ^= mem */                                               \
  /* Shifts */                                                            \
  X(SFL)   /* ACC <<= 1 */                                                \
  X(SFR)   /* ACC >>= 1 (arithmetic when SXM=1, logical when SXM=0) */    \
  /* Multiplier pipeline (hasMac) */                                      \
  X(LT)    /* T := mem */                                                 \
  X(MPY)   /* P := T * mem */                                             \
  X(MPYK)  /* P := T * imm */                                             \
  X(PAC)   /* ACC := P */                                                 \
  X(APAC)  /* ACC += P */                                                 \
  X(SPAC)  /* ACC -= P */                                                 \
  X(SPL)   /* mem := P (low word) */                                      \
  X(LTA)   /* ACC += P; T := mem */                                       \
  X(LTP)   /* ACC := P; T := mem */                                       \
  X(LTD)   /* ACC += P; T := mem; mem+1 := mem (hasMac && hasDmov) */     \
  /* Dual-multiplier datapath (hasDualMul): both operands from memory, */ \
  /* single-cycle when the operands sit in different banks. */            \
  X(MPYXY) /* P := memA * memB */                                         \
  X(MACXY) /* ACC += P; P := memA * memB */                               \
  /* Address-register file */                                             \
  X(LARK)  /* ARn := imm8 */                                              \
  X(LAR)   /* ARn := mem */                                               \
  X(SAR)   /* mem := ARn */                                               \
  X(ADRK)  /* ARn += imm8 */                                              \
  X(SBRK)  /* ARn -= imm8 */                                              \
  /* Control */                                                           \
  C(B)     /* branch always */                                            \
  C(BZ)    /* branch if ACC == 0 */                                       \
  C(BGEZ)  /* branch if ACC >= 0 */                                       \
  C(BANZ)  /* branch if ARn != 0, post-decrementing ARn */                \
  C(RPT)   /* repeat next instruction imm+1 times (hasRpt) */             \
  X(DMOV)  /* mem+1 := mem (delay-line shift, hasDmov) */                 \
  /* Mode bits */                                                         \
  X(SOVM)  /* set saturation mode       (hasSat) */                       \
  X(ROVM)  /* reset saturation mode     (hasSat) */                       \
  X(SSXM)  /* set sign-extension mode */                                  \
  X(RSXM)  /* reset sign-extension mode */                                \
  X(NOP)                                                                  \
  C(HALT)  /* stop the simulator (assembler-level convenience) */

enum class Opcode : uint8_t {
#define RECORD_OPCODE_ENUMERATOR(op) op,
  RECORD_OPCODES(RECORD_OPCODE_ENUMERATOR, RECORD_OPCODE_ENUMERATOR)
#undef RECORD_OPCODE_ENUMERATOR
};

inline constexpr int kNumOpcodes = static_cast<int>(Opcode::HALT) + 1;

const char* opcodeName(Opcode op);
/// Inverse of opcodeName; returns false (and leaves `out` alone) for
/// unknown mnemonics.
bool opcodeFromName(const std::string& name, Opcode& out);

/// Is `op` implemented by the configured datapath?
bool opcodeAvailable(Opcode op, const TargetConfig& cfg);

/// Does `op` carry an address-register index in operand a (printed "ARn")?
bool opTakesArIndex(Opcode op);

/// Mode-bit requirements of an instruction: -1 = don't care, 0/1 = the
/// bit must hold that value when the instruction executes. Resolved into
/// SOVM/ROVM/SSXM/RSXM instructions by mode-change minimization.
struct ModeReq {
  int8_t ovm = -1;
  int8_t sxm = -1;

  bool operator==(const ModeReq&) const = default;
};

enum class AddrMode : uint8_t { None, Direct, Indirect, Imm };
enum class PostMod : uint8_t { None, Inc, Dec };

/// One instruction operand. Direct: value = data address. Indirect:
/// value = AR index, post = auto-modify. Imm: value = literal (also used
/// for AR indices of opTakesArIndex instructions).
struct Operand {
  AddrMode mode = AddrMode::None;
  int value = 0;
  PostMod post = PostMod::None;

  static Operand none() { return {}; }
  static Operand direct(int addr) { return {AddrMode::Direct, addr, PostMod::None}; }
  static Operand indirect(int ar, PostMod p = PostMod::None) {
    return {AddrMode::Indirect, ar, p};
  }
  static Operand imm(int v) { return {AddrMode::Imm, v, PostMod::None}; }

  bool operator==(const Operand&) const = default;

  std::string str() const;
};

/// One target instruction, possibly labeled, possibly a branch.
struct Instr {
  Opcode op = Opcode::NOP;
  /// Mode bits this instruction needs, stamped by selection and met by
  /// mode-change minimization (opt/modeopt.h); encode, asmtext and decode
  /// ignore it. Sits in the padding after `op`, so it costs no space.
  ModeReq need;
  Operand a;
  Operand b;
  std::string label;        // definition: this instruction carries a label
  std::string targetLabel;  // branches: where to go

  /// Debug info: 1-based DFL source position of the statement this
  /// instruction was generated for (0 = compiler scaffolding such as loop
  /// counters, delay shifts, mode switches, HALT). Stamped by the code
  /// generator, preserved through every late pass, and consumed by the
  /// execution profiler's source-line rollup (sim/profile.h).
  int srcLine = 0;
  int srcCol = 0;

  std::string str() const;
};

/// Coarse datapath classification of an opcode, used by the execution
/// profiler's cycle histograms ("where do the cycles go": multiplier
/// pipeline vs. plain accumulator ALU vs. memory movement vs. address
/// generation vs. control).
enum class OpClass : uint8_t {
  Mac,        // multiplier pipeline: LT/MPY/PAC/APAC/.../MPYXY/MACXY
  AccAlu,     // accumulator ALU: ADD/SUB/NEG/bitwise/shifts/LACK/ZAC
  LoadStore,  // memory movement: LAC/SACL/SACH/DMOV
  Agu,        // address-register file: LARK/LAR/SAR/ADRK/SBRK
  Branch,     // control transfer: B/BZ/BGEZ/BANZ
  Mode,       // mode-bit switches: SOVM/ROVM/SSXM/RSXM
  Control,    // RPT/NOP/HALT
};

inline constexpr int kNumOpClasses = static_cast<int>(OpClass::Control) + 1;

OpClass opClassOf(Opcode op);
const char* opClassName(OpClass c);

/// Static per-opcode facts used by the optimization passes (dependence
/// testing, compaction, accumulator promotion, self-test generation).
struct OpInfo {
  int numOperands = 0;
  bool aIsMem = false;   // operand a is a memory reference
  bool bIsMem = false;   // operand b is a memory reference
  bool isBranch = false;
  bool readsAcc = false, writesAcc = false;
  bool readsT = false, writesT = false;
  bool readsP = false, writesP = false;
  bool readsMem = false, writesMem = false;
};

const OpInfo& opInfo(Opcode op);

/// Parse an OpInfo from its compact flag string ("amC", "aMc", ...; "-" =
/// no flags). Each char sets one field: a/b = operand-is-mem, B = branch,
/// c/C = reads/writes ACC, t/T = T register, p/P = P register, m/M = data
/// memory. Returns false on an unknown flag char (out is left
/// partially filled). Inverse of opInfoFlags(); the target-description
/// parser reads `insn` flags with it.
bool opInfoParseFlags(int numOperands, const std::string& flags, OpInfo* out);

/// Canonical flag rendering of an OpInfo ("-" when no flag is set).
/// opInfoParseFlags(n, opInfoFlags(i)) reproduces `i` exactly.
std::string opInfoFlags(const OpInfo& info);

/// Structural parameters of a tdsp core variant. RECORD's retargeting story
/// (§2) is exactly this: the same generator drives many ASIP variants that
/// differ in datapath features (MAC unit, dual multiplier, saturation,
/// hardware loops) and memory organisation (banks, AR file size).
struct TargetConfig {
  bool hasMac = true;      // T/P multiplier pipeline (LT/MPY/PAC/...)
  bool hasDualMul = false; // dual-memory-operand multiplier (MPYXY/MACXY)
  bool hasSat = true;      // saturation mode bit (SOVM/ROVM)
  bool hasRpt = true;      // single-instruction hardware repeat (RPT)
  bool hasDmov = true;     // delay-line data move (DMOV, LTD)

  int memBanks = 1;        // X/Y data memory banks (dual-mul wants 2)
  int dataWords = 2048;    // total data memory size in 16-bit words
  int numAddrRegs = 8;     // AR file size

  /// Bank of a data address: banks split the address space evenly, so with
  /// two banks the boundary sits at dataWords/2.
  int bankOf(int addr) const {
    if (memBanks <= 1) return 0;
    int bankSize = dataWords / memBanks;
    if (bankSize <= 0) return 0;
    int b = addr / bankSize;
    return b < memBanks ? b : memBanks - 1;
  }

  /// Short human-readable variant description, e.g.
  /// "tdsp[mac,sat,rpt,dmov banks=1 ars=8]".
  std::string describe() const;
};

// ---------------------------------------------------------------------------
// ISA tables
// ---------------------------------------------------------------------------
// Every per-opcode fact above except the mnemonic (OpInfo, class, AR-index
// flag, feature availability, decode-time cycle hint) is one row of an
// IsaTable. The default table is compiled from src/target/tdsp.isd (see
// target/desc.h); a retargeting description can compile its own and
// install it here, swapping the tables under the assembler, encoder,
// optimizer and the simulator's decode-once lowering in one move.
// Mnemonics are fixed by enum Opcode: no description can rename one.

/// Datapath feature bits, the availability vocabulary of opcodeAvailable():
/// an opcode is implemented iff its requirement mask is a subset of the
/// config's feature mask.
inline constexpr uint8_t kFeatMac = 1 << 0;
inline constexpr uint8_t kFeatDualMul = 1 << 1;
inline constexpr uint8_t kFeatSat = 1 << 2;
inline constexpr uint8_t kFeatRpt = 1 << 3;
inline constexpr uint8_t kFeatDmov = 1 << 4;
inline constexpr uint8_t kFeatAll =
    kFeatMac | kFeatDualMul | kFeatSat | kFeatRpt | kFeatDmov;

/// The kFeat* bits a config's datapath provides.
uint8_t configFeatureMask(const TargetConfig& cfg);

/// One complete set of per-opcode tables. Plain value type, built
/// field-by-field from a description's insn clauses.
struct IsaTable {
  std::string name = "tdsp";
  std::array<OpInfo, kNumOpcodes> info;
  std::array<OpClass, kNumOpcodes> cls{};
  std::array<bool, kNumOpcodes> takesAr{};
  /// Feature-requirement masks (kFeat* bits) behind opcodeAvailable().
  std::array<uint8_t, kNumOpcodes> needs{};
  /// Decode-time cycle hints consumed by Machine::decodeOne (branches cost
  /// 2, everything else 1 on tdsp; MPYXY/MACXY bank-conflict cycles stay
  /// dynamic in the simulator).
  std::array<uint8_t, kNumOpcodes> decodeCycles{};
};

/// The tdsp table compiled from the embedded src/target/tdsp.isd on first
/// use (never mutated). Throws std::logic_error if the description does
/// not name every opcode exactly once.
const IsaTable& defaultIsaTable();

/// The table opcodeAvailable/opTakesArIndex/opInfo/opClassOf and the
/// simulator decode currently route through; the default table unless one
/// was installed.
const IsaTable& activeIsaTable();

/// Install `t` as the active table (null restores the default). The
/// pointed-to table must outlive its installation; the slot is atomic, but
/// swapping tables while other threads compile is the caller's hazard --
/// intended use is single-threaded tools (recordc --isd). Returns the
/// previously installed table (null = default).
const IsaTable* setActiveIsaTable(const IsaTable* t);

/// A compiled (or assembled) program for one tdsp variant: instructions plus
/// the data-memory layout the code was generated against.
struct TargetProgram {
  TargetConfig config;
  std::vector<Instr> code;
  /// Symbol name -> base data address.
  std::vector<std::pair<std::string, int>> symbolAddr;
  /// Initial data memory contents as (address, value) pairs.
  std::vector<std::pair<int, int16_t>> dataInit;
  /// Name of the DFL source the per-instruction srcLine/srcCol debug info
  /// refers to (the compiled Program's name; empty for assembled programs).
  std::string sourceName;

  /// Base address of `name`, or -1 when unknown.
  int addrOf(const std::string& name) const;

  /// Instruction index carrying label `l`, or -1. Labels of the form "@N"
  /// (produced by the decoder) resolve numerically.
  int labelIndex(const std::string& l) const;

  int sizeWords() const { return static_cast<int>(code.size()); }

  /// Assembly-style rendering, one instruction per line. With `withSource`
  /// each line carries a `; source:line` comment from the debug info.
  std::string listing(bool withSource = false) const;
};

}  // namespace record

#include "opt/compact.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "trace/trace.h"

namespace record {

namespace {

bool isModeSet(Opcode op) {
  return op == Opcode::SOVM || op == Opcode::ROVM || op == Opcode::SSXM ||
         op == Opcode::RSXM;
}

bool isBarrier(const Instr& in) {
  return opInfo(in.op).isBranch || in.op == Opcode::RPT ||
         in.op == Opcode::HALT || isModeSet(in.op);
}

/// Memory footprint of one instruction: specific direct address, or "any"
/// when indirect / unknown.
struct MemFoot {
  bool reads = false, writes = false;
  bool anyAddr = false;    // indirect access: may touch anything
  int readAddr = -1;       // valid when !anyAddr
  int writeAddr = -1;
};

MemFoot memFoot(const Instr& in) {
  MemFoot f;
  const OpInfo& info = opInfo(in.op);
  auto classify = [&](const Operand& o, bool isMemOperand) {
    if (!isMemOperand) return;
    if (o.mode == AddrMode::Indirect) f.anyAddr = true;
  };
  classify(in.a, info.aIsMem);
  classify(in.b, info.bIsMem);
  // Dual-memory-operand instructions touch two addresses; the single
  // readAddr/writeAddr summary below cannot represent that, so be
  // conservative.
  if (info.aIsMem && info.bIsMem) f.anyAddr = true;
  f.reads = info.readsMem;
  f.writes = info.writesMem;
  if (!f.anyAddr) {
    // Reads/writes go to operand a for all current opcodes except LAR/SAR
    // (operand b) and MPYXY/MACXY (both operands read).
    int addrA = (info.aIsMem && in.a.mode == AddrMode::Direct) ? in.a.value : -1;
    int addrB = (info.bIsMem && in.b.mode == AddrMode::Direct) ? in.b.value : -1;
    if (f.reads) f.readAddr = info.aIsMem ? addrA : addrB;
    if (f.writes) f.writeAddr = info.aIsMem ? addrA : addrB;
    // DMOV/LTD write addr+1 while reading addr; approximate by marking the
    // written address explicitly.
    if (in.op == Opcode::DMOV || in.op == Opcode::LTD) {
      f.readAddr = addrA;
      f.writeAddr = addrA >= 0 ? addrA + 1 : -1;
    }
    // Dual reads (MPYXY/MACXY) with two different addresses: treat as any
    // unless both direct; conflicts are then checked against both.
  }
  return f;
}

/// Address registers read / written by an instruction.
void arUse(const Instr& in, uint32_t& reads, uint32_t& writes) {
  reads = writes = 0;
  auto operandAr = [&](const Operand& o) {
    if (o.mode != AddrMode::Indirect) return;
    reads |= 1u << o.value;
    if (o.post != PostMod::None) writes |= 1u << o.value;
  };
  operandAr(in.a);
  operandAr(in.b);
  if (opTakesArIndex(in.op) && in.a.mode == AddrMode::Imm) {
    uint32_t bit = 1u << in.a.value;
    switch (in.op) {
      case Opcode::LARK: writes |= bit; break;
      case Opcode::LAR: writes |= bit; break;
      case Opcode::SAR: reads |= bit; break;
      case Opcode::ADRK:
      case Opcode::SBRK:
      case Opcode::BANZ: reads |= bit; writes |= bit; break;
      default: break;
    }
  }
}

bool memConflict(const MemFoot& a, const MemFoot& b) {
  auto overlap = [](int x, int y) { return x >= 0 && y >= 0 && x == y; };
  if (a.anyAddr || b.anyAddr) {
    // Conservative: any-addr access conflicts with any memory access of the
    // conflicting kind.
    return (a.writes && (b.reads || b.writes)) ||
           (b.writes && (a.reads || a.writes));
  }
  if (a.writes && b.reads && overlap(a.writeAddr, b.readAddr)) return true;
  if (b.writes && a.reads && overlap(b.writeAddr, a.readAddr)) return true;
  if (a.writes && b.writes && overlap(a.writeAddr, b.writeAddr)) return true;
  // Unknown direct address (-1) with a write: be conservative.
  if ((a.writes && a.writeAddr < 0 && (b.reads || b.writes)) ||
      (b.writes && b.writeAddr < 0 && (a.reads || a.writes)))
    return true;
  return false;
}

}  // namespace

bool independentInstrs(const Instr& a, const Instr& b) {
  if (isBarrier(a) || isBarrier(b)) return false;
  if (!b.label.empty()) return false;
  const OpInfo& ia = opInfo(a.op);
  const OpInfo& ib = opInfo(b.op);
  auto regConflict = [](bool ra, bool wa, bool rb, bool wb) {
    return (wa && (rb || wb)) || (wb && ra);
  };
  if (regConflict(ia.readsAcc, ia.writesAcc, ib.readsAcc, ib.writesAcc))
    return false;
  if (regConflict(ia.readsT, ia.writesT, ib.readsT, ib.writesT)) return false;
  if (regConflict(ia.readsP, ia.writesP, ib.readsP, ib.writesP)) return false;
  uint32_t ra, wa, rb, wb;
  arUse(a, ra, wa);
  arUse(b, rb, wb);
  if ((wa & (rb | wb)) || (wb & ra)) return false;
  if (memConflict(memFoot(a), memFoot(b))) return false;
  return true;
}

namespace {

/// Try to merge `a` followed by `b` into one combined instruction.
std::optional<Instr> tryMerge(const Instr& a, const Instr& b,
                              const TargetConfig& cfg) {
  if (!b.label.empty()) return std::nullopt;
  auto withLabel = [&](Instr m) {
    m.label = a.label;
    // Merged debug info: the pair usually comes from one statement; when
    // not, attribute to whichever half has an attribution.
    m.srcLine = a.srcLine > 0 ? a.srcLine : b.srcLine;
    m.srcCol = a.srcLine > 0 ? a.srcCol : b.srcCol;
    return m;
  };
  // APAC ; LT m  or  LT m ; APAC  ->  LTA m
  if (cfg.hasMac) {
    if ((a.op == Opcode::APAC && b.op == Opcode::LT) ||
        (a.op == Opcode::LT && b.op == Opcode::APAC)) {
      Instr m;
      m.op = Opcode::LTA;
      m.a = (a.op == Opcode::LT) ? a.a : b.a;
      return withLabel(m);
    }
    if ((a.op == Opcode::PAC && b.op == Opcode::LT) ||
        (a.op == Opcode::LT && b.op == Opcode::PAC)) {
      Instr m;
      m.op = Opcode::LTP;
      m.a = (a.op == Opcode::LT) ? a.a : b.a;
      return withLabel(m);
    }
  }
  // APAC ; MPYXY x,y -> MACXY x,y   (accumulates the *previous* product)
  if (cfg.hasDualMul && a.op == Opcode::APAC && b.op == Opcode::MPYXY) {
    Instr m;
    m.op = Opcode::MACXY;
    m.a = b.a;
    m.b = b.b;
    return withLabel(m);
  }
  // LTA m ; DMOV m (same direct address, either order) -> LTD m
  if (cfg.hasMac && cfg.hasDmov) {
    const Instr* lta = nullptr;
    const Instr* dmov = nullptr;
    if (a.op == Opcode::LTA && b.op == Opcode::DMOV) {
      lta = &a;
      dmov = &b;
    } else if (a.op == Opcode::DMOV && b.op == Opcode::LTA) {
      lta = &b;
      dmov = &a;
    }
    if (lta && dmov && lta->a.mode == AddrMode::Direct &&
        dmov->a == lta->a) {
      Instr m;
      m.op = Opcode::LTD;
      m.a = lta->a;
      return withLabel(m);
    }
  }
  return std::nullopt;
}

/// Greedy adjacent-pair merging of `block`, appended to `out`. Merges
/// never reach the instructions `out` held before the call.
void compactList(std::span<const Instr> block, const TargetConfig& cfg,
                 std::vector<Instr>& out, CompactStats* stats,
                 TraceContext* trace) {
  const size_t base = out.size();
  for (const auto& in : block) {
    if (out.size() > base && !isBarrier(out.back()) && !isBarrier(in)) {
      if (auto m = tryMerge(out.back(), in, cfg)) {
        if (trace)
          trace->remark("compact", "merged '" + out.back().str() + "' + '" +
                                       in.str() + "' -> '" + m->str() + "'");
        out.back() = *m;
        if (stats) ++stats->merges;
        continue;
      }
    }
    out.push_back(in);
  }
}

/// Optimal reordering of one dependence-closed block (no barriers inside):
/// DP over subsets maximizing pairwise merges. Falls back to the input order
/// plus greedy merging for large blocks. Appends to `out` like compactList.
void compactOptimal(std::span<const Instr> block, const TargetConfig& cfg,
                    std::vector<Instr>& out, CompactStats* stats,
                    TraceContext* trace) {
  const size_t n = block.size();
  constexpr size_t kMaxN = 14;
  if (n > kMaxN || n < 2) return compactList(block, cfg, out, stats, trace);

  // deps[j] = bitmask of instructions that must precede j.
  std::vector<uint32_t> deps(n, 0);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = i + 1; j < n; ++j)
      if (!independentInstrs(block[i], block[j]))
        deps[j] |= 1u << i;

  // mergeable[i][j]: scheduling j right after i allows a combine.
  std::vector<std::vector<bool>> mergeable(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      if (i != j) mergeable[i][j] = tryMerge(block[i], block[j], cfg).has_value();

  // DP state: (scheduled mask, last index, last already consumed by merge).
  const int kUnset = -1;
  const uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1);
  // best[mask][last][consumed]
  std::vector<std::array<std::array<int, 2>, kMaxN>> best(full + 1);
  std::vector<std::array<std::array<std::pair<int8_t, int8_t>, 2>, kMaxN>>
      parent(full + 1);
  for (auto& perMask : best)
    for (auto& perLast : perMask) perLast = {kUnset, kUnset};

  // Seed: schedule any dep-free instruction first.
  for (size_t j = 0; j < n; ++j)
    if (deps[j] == 0) best[1u << j][j][0] = 0;

  for (uint32_t mask = 1; mask <= full; ++mask) {
    for (size_t last = 0; last < n; ++last) {
      if (!(mask & (1u << last))) continue;
      for (int consumed = 0; consumed < 2; ++consumed) {
        int cur = best[mask][last][consumed];
        if (cur == kUnset) continue;
        for (size_t j = 0; j < n; ++j) {
          if (mask & (1u << j)) continue;
          if ((deps[j] & mask) != deps[j]) continue;
          uint32_t nmask = mask | (1u << j);
          // Option 1: no merge.
          if (cur > best[nmask][j][0]) {
            best[nmask][j][0] = cur;
            parent[nmask][j][0] = {static_cast<int8_t>(last),
                                   static_cast<int8_t>(consumed)};
          }
          // Option 2: merge with last (if last not already consumed).
          if (!consumed && mergeable[last][j]) {
            if (cur + 1 > best[nmask][j][1]) {
              best[nmask][j][1] = cur + 1;
              parent[nmask][j][1] = {static_cast<int8_t>(last),
                                     static_cast<int8_t>(consumed)};
            }
          }
        }
      }
    }
  }

  // Pick the best final state.
  int bestVal = kUnset;
  size_t bestLast = 0;
  int bestConsumed = 0;
  for (size_t last = 0; last < n; ++last)
    for (int c = 0; c < 2; ++c)
      if (best[full][last][c] > bestVal) {
        bestVal = best[full][last][c];
        bestLast = last;
        bestConsumed = c;
      }
  if (bestVal <= 0) return compactList(block, cfg, out, stats, trace);

  // Reconstruct the order.
  std::vector<size_t> order;
  uint32_t mask = full;
  size_t last = bestLast;
  int consumed = bestConsumed;
  while (true) {
    order.push_back(last);
    uint32_t pmask = mask & ~(1u << last);
    if (pmask == 0) break;
    auto [plast, pconsumed] = parent[mask][last][consumed];
    mask = pmask;
    last = static_cast<size_t>(plast);
    consumed = pconsumed;
  }
  std::reverse(order.begin(), order.end());

  std::vector<Instr> reordered;
  reordered.reserve(n);
  // A label can only sit on the first instruction; blocks are split on
  // labels so any label in this block is at position 0 of the input.
  std::string label = block[0].label;
  for (size_t idx : order) {
    Instr in = block[idx];
    in.label.clear();
    reordered.push_back(std::move(in));
  }
  if (!reordered.empty()) reordered[0].label = label;
  if (stats) ++stats->blocksReordered;
  if (trace)
    trace->remark("compact",
                  "reordered a " + std::to_string(n) +
                      "-instruction block for " + std::to_string(bestVal) +
                      " merge(s)");
  compactList(reordered, cfg, out, stats, trace);
}

}  // namespace

void compact(std::vector<Instr>& code, const TargetConfig& cfg,
             CompactMode mode, CompactStats* stats, TraceContext* trace) {
  if (mode == CompactMode::None) return;
  std::vector<Instr> out;
  out.reserve(code.size());
  size_t begin = 0;  // first instruction of the open block
  auto flush = [&](size_t end) {
    std::span<const Instr> block(code.data() + begin, end - begin);
    if (block.empty()) return;
    if (mode == CompactMode::Optimal)
      compactOptimal(block, cfg, out, stats, trace);
    else
      compactList(block, cfg, out, stats, trace);
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    if (!in.label.empty()) {
      flush(i);
      begin = i;
    }
    if (isBarrier(in)) {
      flush(i);
      out.push_back(in);
      // Keep an RPT glued to its repeated instruction.
      if (in.op == Opcode::RPT && i + 1 < code.size()) out.push_back(code[++i]);
      begin = i + 1;
    }
  }
  flush(code.size());
  code.swap(out);
}

}  // namespace record

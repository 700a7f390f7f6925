#include "dspstone/harness.h"

#include "ir/interp.h"
#include "sim/machine.h"
#include "sim/reference.h"
#include "support/strings.h"

namespace record {

Measurement runAndCompare(const TargetProgram& tp, const Program& prog,
                          const Stimulus& stim, Profile* profile) {
  Measurement m;
  m.sizeWords = tp.sizeWords();

  // Golden model.
  Interp gold(prog);
  for (const auto& [name, vals] : stim.arrays) gold.setArray(name, vals);
  for (const auto& [name, vals] : stim.scalars) gold.setStream(name, vals);

  Machine mach(tp);
  mach.attachProfile(profile);
  // Preload arrays / initial values.
  for (const auto& [name, vals] : stim.arrays) {
    if (tp.addrOf(name) < 0) {
      m.error = "target program lacks symbol '" + name + "'";
      return m;
    }
    for (size_t i = 0; i < vals.size(); ++i)
      mach.writeSymbol(name, static_cast<int>(i), vals[i]);
  }

  for (int t = 0; t < stim.ticks; ++t) {
    // Per-tick scalar inputs.
    for (const auto& [name, vals] : stim.scalars) {
      int64_t v = vals.empty()
                      ? 0
                      : vals[std::min<size_t>(static_cast<size_t>(t),
                                              vals.size() - 1)];
      mach.writeSymbol(name, 0, v);
    }
    gold.run(1);
    auto rr = mach.run();
    if (rr.status != RunStatus::Halted) {
      m.error = formatv("tick %d: simulator did not halt (%s: %s)", t,
                        runStatusName(rr.status), rr.trapReason.c_str());
      return m;
    }
    m.cycles += rr.cycles;
    m.instructions += rr.instructions;
    // Compare output symbols after every tick.
    for (const auto& sym : prog.symbols.all()) {
      if (sym->kind != SymKind::Output) continue;
      int words = sym->isArray() ? sym->arraySize : 1;
      const std::vector<int64_t>& golden = gold.array(sym->name);
      for (int i = 0; i < words; ++i) {
        int64_t want = golden[static_cast<size_t>(i)];
        int64_t got = mach.readSymbol(sym->name, i);
        if (want != got) {
          m.error = formatv("tick %d: %s[%d] = %lld, golden model says %lld",
                            t, sym->name.c_str(), i,
                            static_cast<long long>(got),
                            static_cast<long long>(want));
          return m;
        }
      }
    }
    // Re-arm for the next tick without clearing data memory.
    mach.reset(false);
  }
  m.ok = true;
  return m;
}

namespace {

/// Compare one engine's post-run state and result against another's,
/// field by field; empty string when identical. Both Machine and
/// ReferenceMachine satisfy the accessor surface.
template <class EngineA, class EngineB>
std::string compareEnginePair(int t, EngineA& a, const char* an,
                              const RunResult& ra, EngineB& b, const char* bn,
                              const RunResult& rb, const TargetProgram& tp) {
  if (ra.status != rb.status)
    return formatv("tick %d: status %s (%s) vs %s (%s)", t,
                   runStatusName(ra.status), an, runStatusName(rb.status), bn);
  if (ra.trapReason != rb.trapReason)
    return formatv("tick %d: trap reason '%s' (%s) vs '%s' (%s)", t,
                   ra.trapReason.c_str(), an, rb.trapReason.c_str(), bn);
  if (ra.cycles != rb.cycles)
    return formatv("tick %d: cycles %lld (%s) vs %lld (%s)", t,
                   static_cast<long long>(ra.cycles), an,
                   static_cast<long long>(rb.cycles), bn);
  if (ra.instructions != rb.instructions)
    return formatv("tick %d: instructions %lld (%s) vs %lld (%s)", t,
                   static_cast<long long>(ra.instructions), an,
                   static_cast<long long>(rb.instructions), bn);
  if (a.acc() != b.acc() || a.treg() != b.treg() || a.preg() != b.preg())
    return formatv(
        "tick %d: ACC/T/P %lld/%lld/%lld (%s) vs %lld/%lld/%lld (%s)", t,
        static_cast<long long>(a.acc()), static_cast<long long>(a.treg()),
        static_cast<long long>(a.preg()), an,
        static_cast<long long>(b.acc()), static_cast<long long>(b.treg()),
        static_cast<long long>(b.preg()), bn);
  for (int i = 0; i < tp.config.numAddrRegs; ++i)
    if (a.ar(i) != b.ar(i))
      return formatv("tick %d: AR%d = %d (%s) vs %d (%s)", t, i, a.ar(i), an,
                     b.ar(i), bn);
  if (a.ovm() != b.ovm() || a.sxm() != b.sxm())
    return formatv("tick %d: OVM/SXM mode bits diverge (%s vs %s)", t, an, bn);
  if (a.pc() != b.pc())
    return formatv("tick %d: PC %d (%s) vs %d (%s)", t, a.pc(), an, b.pc(),
                   bn);
  for (int addr = 0; addr < tp.config.dataWords; ++addr)
    if (a.readData(addr) != b.readData(addr))
      return formatv("tick %d: data[%d] = %lld (%s) vs %lld (%s)", t, addr,
                     static_cast<long long>(a.readData(addr)), an,
                     static_cast<long long>(b.readData(addr)), bn);
  return "";
}

}  // namespace

std::string compareWithReference(Machine& m, const RunResult& rm,
                                 ReferenceMachine& ref, const RunResult& rr,
                                 const TargetProgram& tp) {
  return compareEnginePair(0, m, "machine", rm, ref, "reference", rr, tp);
}

std::string compareSimEngines(const TargetProgram& tp, const Stimulus& stim) {
  // Three-way: the superblock-translated Machine and the plain decoded
  // Machine are each held against the pre-decode ReferenceMachine (and so,
  // transitively, against each other), tick by tick, over results, all
  // architectural registers, and full data memory. This is the deopt
  // contract's enforcement point: translation on must be bit-identical to
  // translation off.
  Machine tra(tp);
  tra.setTranslate(true);
  Machine dec(tp);
  dec.setTranslate(false);
  ReferenceMachine ref(tp);

  for (const auto& [name, vals] : stim.arrays) {
    if (tp.addrOf(name) < 0)
      return "target program lacks symbol '" + name + "'";
    for (size_t i = 0; i < vals.size(); ++i) {
      tra.writeSymbol(name, static_cast<int>(i), vals[i]);
      dec.writeSymbol(name, static_cast<int>(i), vals[i]);
      ref.writeSymbol(name, static_cast<int>(i), vals[i]);
    }
  }

  for (int t = 0; t < stim.ticks; ++t) {
    for (const auto& [name, vals] : stim.scalars) {
      int64_t v = vals.empty()
                      ? 0
                      : vals[std::min<size_t>(static_cast<size_t>(t),
                                              vals.size() - 1)];
      tra.writeSymbol(name, 0, v);
      dec.writeSymbol(name, 0, v);
      ref.writeSymbol(name, 0, v);
    }
    auto rt = tra.run();
    auto rd = dec.run();
    auto rr = ref.run();
    std::string diff =
        compareEnginePair(t, tra, "translated", rt, ref, "reference", rr, tp);
    if (diff.empty())
      diff = compareEnginePair(t, dec, "decoded", rd, ref, "reference", rr, tp);
    if (!diff.empty()) return diff;
    // A trap or budget exit is terminal and already proven identical;
    // further ticks would just replay it from a stale PC.
    if (rd.status != RunStatus::Halted) break;
    tra.reset(false);
    dec.reset(false);
    ref.reset(false);
  }
  return "";
}

Stimulus defaultStimulus(const Program& prog, uint32_t seed, int ticks) {
  Stimulus stim;
  stim.ticks = ticks;
  uint32_t state = seed * 2654435761u + 12345u;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    // Small values: products and short accumulations stay within 16 bits.
    return static_cast<int64_t>((state >> 16) % 21) - 10;
  };
  for (const auto& sym : prog.symbols.all()) {
    if (sym->kind != SymKind::Input) continue;
    if (sym->isArray()) {
      std::vector<int64_t> vals(static_cast<size_t>(sym->arraySize));
      for (auto& v : vals) v = next();
      stim.arrays[sym->name] = std::move(vals);
    } else {
      std::vector<int64_t> vals(static_cast<size_t>(ticks));
      for (auto& v : vals) v = next();
      stim.scalars[sym->name] = std::move(vals);
    }
  }
  return stim;
}

}  // namespace record

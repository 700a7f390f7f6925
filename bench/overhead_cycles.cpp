// E2 -- the §3.1 DSPStone claim: "overhead of compiled code (in terms of
// code size and clock cycles) typically ranges between 2 and 8" for the
// compilers of the era. Reproduced with the deliberately naive compiler
// (pre-optimization-era code generation) against hand assembly, and
// contrasted with the baseline and RECORD configurations.
#include <benchmark/benchmark.h>

#include "benchutil.h"
#include "sim/machine.h"
#include "sim/profile.h"

namespace record {
namespace {

/// One compact per-config attribution line for the breakdown table: where
/// the cycles go by opcode class, plus the hottest DFL source line.
std::string breakdownLine(const Profile& p) {
  int64_t tot = p.totalCycles() > 0 ? p.totalCycles() : 1;
  auto pct = [&](OpClass c) {
    return 100.0 * static_cast<double>(p.classCycles(c)) /
           static_cast<double>(tot);
  };
  int hotLine = 0;
  int64_t hotCycles = 0;
  for (const auto& [line, cyc] : p.lineCycles())
    if (line > 0 && cyc > hotCycles) {
      hotLine = line;
      hotCycles = cyc;
    }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "mac %4.1f%%  mem %4.1f%%  agu %4.1f%%  br %4.1f%%  "
                "conflicts %lld  hot line %d (%.0f%%)",
                pct(OpClass::Mac), pct(OpClass::LoadStore), pct(OpClass::Agu),
                pct(OpClass::Branch),
                static_cast<long long>(p.bankConflicts()), hotLine,
                100.0 * static_cast<double>(hotCycles) /
                    static_cast<double>(tot));
  return buf;
}

/// Compile `prog` under (cfg, opt), run it under the profiler (verified
/// against the golden model), record the breakdown as stats row
/// "<kernel>.<config>.profile", and return the rendered attribution line.
/// (The Profile itself references the compiled program and cannot outlive
/// this scope.)
std::string profileConfig(const Program& prog, const TargetConfig& cfg,
                          const CodegenOptions& opt, const Kernel& k,
                          const char* config) {
  auto res = RecordCompiler(cfg, opt).compile(prog);
  Profile prof(res.prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, k.ticks),
                         &prof);
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: %s (%s) failed verification under "
                 "profiling: %s\n",
                 k.name.c_str(), config, m.error.c_str());
    std::exit(1);
  }
  bench::recordProfileStats(k.name + "." + config + ".profile", prof);
  return breakdownLine(prof);
}

void printTable() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf(
      "Cycle overhead of compiled code relative to hand assembly "
      "(DSPStone, §3.1)\n\n");
  MdTable t({"program", "asm cycles", "naive", "baseline", "RECORD"});
  int inBand = 0, total = 0;
  double worst = 0, best = 1e9;
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto ref = measureReference(k, prog, cfg);
    auto nai =
        measureCompiled(prog, cfg, naiveOptions(), k.ticks, k.name.c_str());
    auto bas = measureCompiled(prog, cfg, baselineOptions(), k.ticks,
                               k.name.c_str());
    auto rec = measureCompiled(prog, cfg, recordOptions(), k.ticks,
                               k.name.c_str());
    double rNaive = static_cast<double>(nai.cycles) / ref.cycles;
    double rBase = static_cast<double>(bas.cycles) / ref.cycles;
    double rRec = static_cast<double>(rec.cycles) / ref.cycles;
    t.add({k.name, cell("%lld", static_cast<long long>(ref.cycles)),
           cell("%.2f×", rNaive), cell("%.2f×", rBase), cell("%.2f×", rRec)});
    ++total;
    if (rNaive >= 2.0 && rNaive <= 8.0) ++inBand;
    worst = std::max(worst, rNaive);
    best = std::min(best, rNaive);
  }
  t.print();
  std::printf(
      "\nnaive-compiler overhead in the paper's 2x-8x band on %d/%d kernels "
      "(range %.2fx-%.2fx)\n\n",
      inBand, total, best, worst);
}

// Where does the naive-vs-RECORD overhead factor come from? Profile both
// configurations of every kernel and attribute the cycles by opcode class
// and source line (also recorded as <kernel>.<config>.profile stats rows).
void printBreakdown() {
  using namespace record::bench;
  TargetConfig cfg;
  std::printf("Cycle attribution, naive vs RECORD (execution profiler)\n");
  hr();
  for (const auto& k : dspstoneKernels()) {
    auto prog = dfl::parseDflOrDie(k.dfl);
    std::string nai = profileConfig(prog, cfg, naiveOptions(), k, "naive");
    std::string rec = profileConfig(prog, cfg, recordOptions(), k, "record");
    std::printf("%-24s naive:  %s\n", k.name.c_str(), nai.c_str());
    std::printf("%-24s RECORD: %s\n", "", rec.c_str());
  }
  hr();
  std::printf("\n");
}

void BM_SimulateKernel(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  Machine m(res.prog);
  for (auto _ : state) {
    m.reset(false);
    auto rr = m.run();
    benchmark::DoNotOptimize(rr.cycles);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_SimulateKernel)->DenseRange(0, 9);

// Same simulation with the execution profiler attached: compare against
// BM_SimulateKernel to bound the profiling overhead. The unprofiled loop is
// the zero-cost claim -- one null-pointer check per retired instruction.
void BM_SimulateKernelProfiled(benchmark::State& state) {
  const Kernel& k = dspstoneKernels()[static_cast<size_t>(state.range(0))];
  auto prog = dfl::parseDflOrDie(k.dfl);
  TargetConfig cfg;
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  Machine m(res.prog);
  Profile prof(res.prog, ProfileOptions{/*timelineLimit=*/0});
  m.attachProfile(&prof);
  for (auto _ : state) {
    m.reset(false);
    auto rr = m.run();
    benchmark::DoNotOptimize(rr.cycles);
  }
  state.SetLabel(k.name);
}
BENCHMARK(BM_SimulateKernelProfiled)->DenseRange(0, 9);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTable();
  record::printBreakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  record::bench::writeGlobalStats("overhead_cycles");
  return 0;
}

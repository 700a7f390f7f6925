// Heap-allocation budget of a cold compile.
//
// A cold compile -- a fresh RecordCompiler per program, as recordc and the
// compile_stream benchmark run it -- should allocate once per new
// expression shape, not once per node visit. This executable replaces the
// global operator new with a counting one (it is its own test binary, so
// no other suite is affected) and pins the number of allocations of one
// cold compile to a committed budget. Allocation counts are deterministic
// (single search thread, tracing off), so the budgets are exact-ish
// ceilings set just above the measured counts: a change that puts heap
// traffic back on a per-node path fails here long before it shows in
// timing noise.
//
// The simulator's host I/O is pinned the same way, at zero: after one
// warm-up call per symbol, a tick's reset(false) and whole-frame
// writeSymbol/readSymbol traffic allocates nothing on either engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "sim/machine.h"
#include "sim/reference.h"
#include "target/asmtext.h"

namespace {
std::atomic<int64_t> gNews{0};
}  // namespace

// Every unaligned form is replaced, so no runtime (a sanitizer's, say)
// pairs its own operator new with this file's free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  gNews.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}

namespace {
// Out of line: a delete that inlines to free() of an operator-new pointer
// trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace record {
namespace {

/// Allocations of one cold compile: construct the compiler, compile, and
/// drop both. Capability rejections count too (they are compiles).
int64_t coldCompileAllocs(const Program& prog, const TargetConfig& cfg) {
  CodegenOptions opt = recordOptions();
  opt.searchThreads = 1;
  const int64_t before = gNews.load(std::memory_order_relaxed);
  try {
    RecordCompiler rc(cfg, opt);
    CompileResult res = rc.compile(prog);
    (void)res;
  } catch (const std::runtime_error&) {
  }
  return gNews.load(std::memory_order_relaxed) - before;
}

/// Steady-state count of a cold compile: the first compile on a config also
/// fills the process-wide rule-set cache and function-local statics, so it
/// runs once unmeasured. Two measured runs must agree (determinism).
int64_t measured(const Program& prog, const TargetConfig& cfg) {
  coldCompileAllocs(prog, cfg);
  const int64_t a = coldCompileAllocs(prog, cfg);
  const int64_t b = coldCompileAllocs(prog, cfg);
  EXPECT_EQ(a, b) << "allocation count of a cold compile must be "
                     "deterministic";
  return a;
}

// Budgets: total allocations over every compile of the set, set ~3% above
// the counts measured when they were last tightened (11473 and 5809, once
// the late passes stopped copying the code; before that 16361 and 7343,
// and 40654 and 20748 while every node carried a heap-allocated kid
// vector and every matcher rebuilt its rule index). Lower them when a
// change cuts allocations further.
constexpr int64_t kKernelSweepBudget = 11820;
constexpr int64_t kCorpusBudget = 5980;
constexpr int kCorpusPrograms = 60;

TEST(AllocBudget, DspstoneKernelsOnTheSweep) {
  const auto sweep = difftest::defaultSweep();
  int64_t total = 0;
  int compiles = 0;
  for (const Kernel& k : dspstoneKernels()) {
    const Program prog = dfl::parseDflOrDie(k.dfl);
    for (const auto& pt : sweep) {
      total += measured(prog, pt.cfg);
      ++compiles;
    }
  }
  std::printf("kernels x sweep: %d cold compiles, %lld allocations "
              "(%.1f per compile)\n",
              compiles, static_cast<long long>(total),
              static_cast<double>(total) / compiles);
  EXPECT_LE(total, kKernelSweepBudget);
}

TEST(AllocBudget, GeneratedCorpusOnTheSweep) {
  const auto sweep = difftest::defaultSweep();
  int64_t total = 0;
  for (int i = 0; i < kCorpusPrograms; ++i) {
    const auto spec = difftest::generateProgram(static_cast<uint64_t>(i + 1));
    const Program prog = dfl::parseDflOrDie(spec.render());
    total += measured(prog, sweep[static_cast<size_t>(i) % sweep.size()].cfg);
  }
  std::printf("generated corpus: %d cold compiles, %lld allocations "
              "(%.1f per compile)\n",
              kCorpusPrograms, static_cast<long long>(total),
              static_cast<double>(total) / kCorpusPrograms);
  EXPECT_LE(total, kCorpusBudget);
}

using Frames = std::vector<std::pair<std::string, std::vector<int64_t>>>;

/// Allocations of one host tick on `m` -- reset(false), then every word of
/// every frame written and read back -- after an unmeasured warm-up tick.
template <class Engine>
int64_t symbolIoAllocs(Engine& m, const Frames& frames) {
  auto tick = [&] {
    m.reset(false);
    int64_t sum = 0;
    for (const auto& [name, vals] : frames) {
      for (size_t i = 0; i < vals.size(); ++i)
        m.writeSymbol(name, static_cast<int>(i), vals[i]);
      for (size_t i = 0; i < vals.size(); ++i)
        sum += m.readSymbol(name, static_cast<int>(i));
    }
    return sum;
  };
  const int64_t warm = tick();
  const int64_t before = gNews.load(std::memory_order_relaxed);
  EXPECT_EQ(tick(), warm);
  return gNews.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, SymbolIoAllocatesNothing) {
  // A sim_long kernel's input frames and scalars, as a host streams them.
  const Kernel& k = longKernels().front();
  const Program prog = dfl::parseDflOrDie(k.dfl);
  const TargetProgram kernel =
      RecordCompiler(TargetConfig{}, recordOptions()).compile(prog).prog;
  const Stimulus stim = defaultStimulus(prog, 1, 1);
  Frames kernelFrames(stim.arrays.begin(), stim.arrays.end());
  for (const auto& [name, vals] : stim.scalars)
    kernelFrames.push_back({name, {vals.front()}});
  ASSERT_FALSE(kernelFrames.empty());
  // Names past any std::string's inline buffer: a memo that copied or
  // built a name would allocate here.
  const TargetProgram longNames = assembleOrDie(
      ".sym coefficients_of_stage_x 8\n.sym coefficients_of_stage_y 8\n"
      ".init coefficients_of_stage_x 0 5\nHALT\n",
      TargetConfig{});
  const Frames longFrames = {{"coefficients_of_stage_x", {1, 2, 3, 4}},
                             {"coefficients_of_stage_y", {-7, 40000}}};

  auto check = [](const TargetProgram& tp, const Frames& frames) {
    Machine dec(tp);
    ReferenceMachine ref(tp);
    EXPECT_EQ(symbolIoAllocs(dec, frames), 0) << "Machine";
    EXPECT_EQ(symbolIoAllocs(ref, frames), 0) << "ReferenceMachine";
  };
  check(kernel, kernelFrames);
  check(longNames, longFrames);
}

}  // namespace
}  // namespace record

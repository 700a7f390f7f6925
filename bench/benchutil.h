// Shared helpers for the experiment benches: compile+verify a kernel under
// a compiler configuration and fail loudly if the generated code does not
// match the golden model (no unverified number is ever printed), plus a
// process-global stats sink every bench driver flushes to a
// BENCH_<name>_stats.json artifact.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "mdtable.h"
#include "sim/profile.h"
#include "support/json.h"
#include "target/asmtext.h"
#include "trace/metrics.h"

namespace record::bench {

struct Measured {
  int size = 0;
  int64_t cycles = 0;
};

// ---------------------------------------------------------------------------
// Timing: steady + wall clocks
// ---------------------------------------------------------------------------
// Benches time with steady_clock (monotonic -- immune to NTP slews that used
// to skew long soak runs timed off the wall clock alone) but also report the
// wall-clock duration so artifacts can be correlated with external logs.

struct DualTimes {
  double steadySec = 0;  // monotonic duration -- use this for speedups
  double wallSec = 0;    // system_clock duration -- for log correlation
};

class DualTimer {
 public:
  DualTimer()
      : steady0_(std::chrono::steady_clock::now()),
        wall0_(std::chrono::system_clock::now()) {}

  DualTimes elapsed() const {
    DualTimes t;
    t.steadySec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - steady0_)
                      .count();
    t.wallSec = std::chrono::duration<double>(
                    std::chrono::system_clock::now() - wall0_)
                    .count();
    return t;
  }

 private:
  std::chrono::steady_clock::time_point steady0_;
  std::chrono::system_clock::time_point wall0_;
};

// ---------------------------------------------------------------------------
// Stats sink
// ---------------------------------------------------------------------------
// Ordered rows of name -> numeric key/values; renders as a JSON object the
// tests parse back (tests/trace_test.cpp asserts the artifact is valid
// JSON). Insertion order is preserved so artifacts diff cleanly.

class StatsSink {
 public:
  void set(const std::string& row, const std::string& key, double value) {
    auto& r = rowRef(row);
    for (auto& [k, v] : r.second)
      if (k == key) {
        v = value;
        return;
      }
    r.second.emplace_back(key, value);
  }

  bool empty() const { return rows_.empty(); }

  /// {"rows": {row: {key: value, ...}, ...}}
  std::string json() const {
    std::string out = "{\"rows\": {";
    bool firstRow = true;
    for (const auto& [name, kvs] : rows_) {
      if (!firstRow) out += ", ";
      firstRow = false;
      out += "\"" + json::escape(name) + "\": {";
      bool first = true;
      for (const auto& [k, v] : kvs) {
        if (!first) out += ", ";
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        out += "\"" + json::escape(k) + "\": " + buf;
      }
      out += "}";
    }
    out += "}}";
    return out;
  }

 private:
  using Row = std::pair<std::string, std::vector<std::pair<std::string, double>>>;

  Row& rowRef(const std::string& name) {
    for (auto& r : rows_)
      if (r.first == name) return r;
    rows_.emplace_back(name, std::vector<std::pair<std::string, double>>{});
    return rows_.back();
  }

  std::vector<Row> rows_;
};

/// The process-global sink every bench records into.
inline StatsSink& globalStats() {
  static StatsSink sink;
  return sink;
}

/// Flush the global sink to BENCH_<benchName>_stats.json (skipped when no
/// stats were recorded). Returns the path written, or "".
inline std::string writeGlobalStats(const std::string& benchName) {
  if (globalStats().empty()) return "";
  std::string path = "BENCH_" + benchName + "_stats.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return "";
  }
  out << globalStats().json() << "\n";
  std::printf("stats JSON: %s\n", path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Latency percentiles
// ---------------------------------------------------------------------------

/// Exact latency percentiles from stored samples; now lives in
/// src/trace/metrics.h next to the histogram it serves as the test oracle
/// for. Aliased here because the benches and server tests use it by this
/// name.
using LatencySamples = ::record::LatencySamples;

/// Record the standard latency summary (count, mean, p50/p90/p99, max) of
/// one sample set into a stats row (ms_-prefixed keys).
inline void recordLatencyStats(StatsSink& sink, const std::string& row,
                               const LatencySamples& lat) {
  sink.set(row, "latency_samples", static_cast<double>(lat.count()));
  sink.set(row, "ms_latency_mean", lat.mean());
  sink.set(row, "ms_latency_p50", lat.percentile(50));
  sink.set(row, "ms_latency_p90", lat.percentile(90));
  sink.set(row, "ms_latency_p99", lat.percentile(99));
  sink.set(row, "ms_latency_max", lat.percentile(100));
}

/// Same latency summary, sourced from a service-side HistogramSnapshot
/// (the log-bucketed distribution): exact count/mean/max, bucket-bound
/// p50/p90/p99 clamped to the observed max. Lets the benches report the
/// service's own telemetry instead of re-measuring client-side.
inline void recordLatencyStats(StatsSink& sink, const std::string& row,
                               const HistogramSnapshot& h) {
  sink.set(row, "latency_samples", static_cast<double>(h.count));
  sink.set(row, "ms_latency_mean", h.meanMs());
  sink.set(row, "ms_latency_p50", h.percentile(50));
  sink.set(row, "ms_latency_p90", h.percentile(90));
  sink.set(row, "ms_latency_p99", h.percentile(99));
  sink.set(row, "ms_latency_max", h.maxMs());
}

/// Record one compile's statistics as a stats row.
inline void recordCompileStats(const std::string& row,
                               const CompileStats& s) {
  auto& g = globalStats();
  g.set(row, "size_words", s.sizeWords);
  g.set(row, "statements", s.statements);
  g.set(row, "variants_tried", s.variantsTried);
  g.set(row, "variants_pruned", s.variantsPruned);
  g.set(row, "patterns_used", s.patternsUsed);
  g.set(row, "memo_hits", static_cast<double>(s.memoHits));
  g.set(row, "memo_misses", static_cast<double>(s.memoMisses));
  g.set(row, "ms_rewrite", s.msRewrite);
  g.set(row, "ms_search", s.msSearch);
  g.set(row, "ms_reduce", s.msReduce);
  g.set(row, "ms_late", s.msLate);
}

/// Compile `prog` with (cfg, opt), verify against the golden model on the
/// kernel's stimulus, and return size/cycles. Aborts on any mismatch.
inline Measured measureCompiled(const Program& prog, const TargetConfig& cfg,
                                const CodegenOptions& opt, int ticks,
                                const char* what) {
  RecordCompiler rc(cfg, opt);
  auto res = rc.compile(prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, ticks));
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: %s failed verification: %s\n", what,
                 m.error.c_str());
    std::exit(1);
  }
  recordCompileStats(what, res.stats);
  globalStats().set(what, "cycles", static_cast<double>(m.cycles));
  return {m.sizeWords, m.cycles};
}

/// Record a run profile's deterministic statistics as a stats row (opcode
/// class cycle breakdown, bank pressure, hottest source line).
inline void recordProfileStats(const std::string& row, const Profile& p) {
  auto& g = globalStats();
  g.set(row, "cycles", static_cast<double>(p.totalCycles()));
  g.set(row, "instructions", static_cast<double>(p.totalInstructions()));
  for (int c = 0; c < kNumOpClasses; ++c) {
    std::string name = opClassName(static_cast<OpClass>(c));
    for (auto& ch : name)
      if (ch == '-') ch = '_';
    g.set(row, "class_" + name + "_cycles",
          static_cast<double>(p.classCycles(static_cast<OpClass>(c))));
  }
  g.set(row, "bank_conflicts", static_cast<double>(p.bankConflicts()));
  int hotLine = 0;
  int64_t hotCycles = -1;
  for (const auto& [line, cyc] : p.lineCycles())
    if (line > 0 && cyc > hotCycles) {
      hotLine = line;
      hotCycles = cyc;
    }
  if (hotCycles >= 0) {
    g.set(row, "hot_line", hotLine);
    g.set(row, "hot_line_cycles", static_cast<double>(hotCycles));
  }
}

/// Like measureCompiled, but runs under the execution profiler and records
/// the profile breakdown as a stats row named `<what>.profile`. Optionally
/// hands back the Profile's human-readable report.
inline Measured measureProfiled(const Program& prog, const TargetConfig& cfg,
                                const CodegenOptions& opt, int ticks,
                                const char* what,
                                std::string* textOut = nullptr) {
  RecordCompiler rc(cfg, opt);
  auto res = rc.compile(prog);
  Profile prof(res.prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, ticks),
                         &prof);
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: %s failed verification under profiling: %s\n",
                 what, m.error.c_str());
    std::exit(1);
  }
  recordProfileStats(std::string(what) + ".profile", prof);
  if (textOut) *textOut = prof.text();
  return {m.sizeWords, m.cycles};
}

/// Assemble + verify the hand-written reference of a kernel.
inline Measured measureReference(const Kernel& k, const Program& prog,
                                 const TargetConfig& cfg) {
  auto tp = assembleOrDie(k.refAsm, cfg);
  auto m = runAndCompare(tp, prog, defaultStimulus(prog, 1, k.ticks));
  if (!m.ok) {
    std::fprintf(stderr, "FATAL: reference %s failed verification: %s\n",
                 k.name.c_str(), m.error.c_str());
    std::exit(1);
  }
  return {m.sizeWords, m.cycles};
}

inline void hr() {
  std::printf(
      "-----------------------------------------------------------------"
      "---------------\n");
}

}  // namespace record::bench

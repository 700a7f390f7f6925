// Compilation observability: structured pass tracing, named counters, and
// optimization remarks for the whole RECORD pipeline.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   * Zero cost when disabled. Tracing is off when no TraceContext is
//     attached (CodegenOptions::trace == nullptr); every instrumentation
//     site guards on that pointer, so the disabled path is a single
//     predictable branch and the emitted code is identical with tracing on
//     or off (asserted by the determinism test).
//
//   * Thread-safe. Counters are relaxed atomics with stable addresses, so
//     the parallel variant-search workers increment them without locks;
//     span/remark recording takes a mutex (those happen on the driving
//     thread or rarely). One TraceContext may be shared across the pool.
//
//   * One counter store. The context's counters live in the
//     MetricsRegistry it owns (metrics()); a compile service attached to
//     the context records its server.* counters, gauges and histograms
//     there too, so one export carries both.
//
//   * Never perturbs codegen. Instrumentation only observes; no compiler
//     decision may read trace state.
//
// Three kinds of records:
//
//   Spans     -- scoped per-pass timers (TraceSpan RAII). Nested spans form
//                the pass tree: compile > select > stmt > rewrite/search/
//                reduce, then the late passes.
//   Counters  -- named monotonic totals (variants explored/pruned, interner
//                and memo hit rates, peephole firings, ...), kept in the
//                context's MetricsRegistry. Glossary in DESIGN.md.
//   Remarks   -- optimization decisions with optional source attribution
//                ("picked variant 3/48", "rule MAC fired", "rewrite
//                rejected: ..."), the -Rpass analog.
//
// Two sinks render a finished context: text() for humans and chromeJson()
// for `chrome://tracing` / Perfetto / jq (Chrome trace_event JSON array
// format); statsJson() summarizes counters + span totals for the bench
// artifacts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "trace/metrics.h"

namespace record {

/// One recorded event. Span names must be string literals (stored by
/// pointer); remark text is owned.
struct TraceEvent {
  char ph = 'B';            // 'B' span begin, 'E' span end, 'i' remark
  const char* name = "";    // span name, or the remark's pass name
  std::string detail;       // remark message ('i' only)
  std::string loc;          // rendered source attribution, may be empty
  uint32_t tid = 0;         // dense per-context thread id
  double tsUs = 0;          // microseconds since context creation
};

class TraceContext {
 public:
  using Clock = std::chrono::steady_clock;

  TraceContext();

  // ---- counters -----------------------------------------------------------
  /// The registry that holds this context's counters (and whatever else is
  /// recorded into it, e.g. an attached compile service's metrics).
  MetricsRegistry& metrics() { return metrics_; }
  /// Find-or-create in metrics(); the returned pointer stays valid for the
  /// context's lifetime. Hot paths should resolve once and cache it.
  TraceCounter* counter(std::string_view name) {
    return metrics_.counter(name);
  }
  /// One-shot convenience for cold paths.
  void add(std::string_view name, int64_t delta) {
    counter(name)->add(delta);
  }
  /// Final values, sorted by name. 0-valued counters are included.
  std::vector<std::pair<std::string, int64_t>> counterValues() const {
    return metrics_.snapshot().counters;
  }
  /// Value of one counter (0 when it was never touched).
  int64_t counterValue(std::string_view name) const {
    return metrics_.snapshot().counter(name);
  }

  // ---- spans & remarks ----------------------------------------------------
  /// Record a span boundary; returns the clock reading stamped on it.
  Clock::time_point beginSpan(const char* name) {
    return spanEvent('B', name);
  }
  Clock::time_point endSpan(const char* name) { return spanEvent('E', name); }
  /// `pass` must be a string literal. `loc` is a pre-rendered
  /// "source:line:col" attribution (empty = none).
  void remark(const char* pass, std::string message, std::string loc = {});

  /// Snapshot of the event stream in recording order (ts-monotonic).
  std::vector<TraceEvent> events() const;
  int remarkCount() const;

  // ---- sinks --------------------------------------------------------------
  /// Human-readable report: aggregated span tree, counters, remarks.
  std::string text() const;
  /// Chrome trace_event JSON array: 'B'/'E' duration events per span, 'i'
  /// instant events per remark, one final 'C' event per counter. Valid
  /// input for chrome://tracing, Perfetto, and validateChromeTrace().
  std::string chromeJson() const;
  /// Flat stats object: {"counters": {...}, "spans": {path: {count, ms}}}.
  std::string statsJson() const;

 private:
  double usSinceEpoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double nowUs() const { return usSinceEpoch(Clock::now()); }
  uint32_t tidOf();
  Clock::time_point spanEvent(char ph, const char* name);

  /// Aggregated span statistics keyed by slash-joined path, built by
  /// replaying the event stream (shared by text()/statsJson()).
  struct SpanAgg {
    int count = 0;
    double ms = 0;
    int depth = 0;
    int firstSeen = 0;
  };
  std::map<std::string, SpanAgg> aggregateSpans() const;

  Clock::time_point epoch_;

  mutable std::mutex eventsMu_;
  std::vector<TraceEvent> events_;

  MetricsRegistry metrics_;

  std::mutex tidMu_;
  std::map<std::thread::id, uint32_t> tids_;
};

/// RAII scoped span. No-op (one branch) when `ctx` and `ms` are both null,
/// so call sites need no `if (trace)` of their own. With `ms` set, the
/// span's duration in milliseconds is also added to `*ms`, taken from the
/// same two clock readings the trace records (or from two of its own when
/// `ctx` is null): a phase time and its span are one measurement.
class TraceSpan {
 public:
  TraceSpan(TraceContext* ctx, const char* name, double* ms = nullptr)
      : ctx_(ctx), name_(name), ms_(ms) {
    if (ctx_)
      t0_ = ctx_->beginSpan(name_);
    else if (ms_)
      t0_ = TraceContext::Clock::now();
  }
  ~TraceSpan() { close(); }
  /// End the span before scope exit; the destructor then does nothing.
  void close() {
    if (!ctx_ && !ms_) return;
    const TraceContext::Clock::time_point t1 =
        ctx_ ? ctx_->endSpan(name_) : TraceContext::Clock::now();
    if (ms_)
      *ms_ += std::chrono::duration<double, std::milli>(t1 - t0_).count();
    ctx_ = nullptr;
    ms_ = nullptr;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceContext* ctx_;
  const char* name_;
  double* ms_;
  TraceContext::Clock::time_point t0_;
};

/// Schema check for Chrome trace_event JSON (used by the golden-trace tests
/// and CI smoke): top-level array; every event an object with string "name",
/// one-char "ph" in {B,E,i,C,X}, numeric "ts" >= 0, numeric "pid"/"tid";
/// "ts" non-decreasing in array order; 'B'/'E' properly nested per tid and
/// balanced overall. Returns true on success, else false with *err filled.
bool validateChromeTrace(const std::string& jsonText, std::string* err);

}  // namespace record

// A long-lived compile *service*: the production face of the RECORD
// pipeline. Callers stream (DFL source, TargetConfig, CodegenOptions)
// requests at it; the service fronts them with a content-addressed compile
// cache and schedules the misses in batches across a worker pool, so a
// mixed multi-thousand-program stream saturates every core while repeat
// traffic is served in microseconds.
//
// Content addressing. The cache key is a 64-bit FNV-1a over
//
//     canonical DFL text  x  TargetConfig::describe() + dataWords
//                         x  CodegenOptions::fingerprint()
//
// where "canonical DFL text" is the *parsed and re-rendered* program
// (Program::str()), so formatting and comments never split the cache.
// Compilation is a pure function of that triple (the determinism tests pin
// it), hence two requests with equal keys share one immutable
// TargetProgram. The fingerprint deliberately includes the semantics-
// neutral fast-path flags: the difftest oracle compiles every program in
// both fast and slow mode *on purpose*, and serving one mode from the
// other's cache would quietly halve that coverage.
//
// Request flow:
//
//   submit() parses the source (errors fail fast, nothing enqueued),
//   computes the key, and classifies under one lock:
//     cache hit      -> fulfilled immediately (LRU touch)
//     key in flight  -> coalesced onto the running compile (single-flight)
//     otherwise      -> registered in flight, pushed on the admission queue
//   The admission queue is bounded; submit() blocks when it is full
//   (backpressure instead of unbounded memory).
//
//   A dispatcher thread drains the queue in small batches and runs each
//   batch over the service's own support/threadpool ThreadPool
//   (parallelFor), one leased per-(config x options) RecordCompiler per
//   job. Leased compilers keep their FastPathState (arena + caches) across
//   requests -- the PR-1 compile-server pattern -- and are recycled after
//   `recycleAfter` compiles to bound arena growth; the programs a lease
//   compiled are retained until recycling because interned trees point
//   into their symbol tables.
//
//   Finished programs enter the cache as immutable shared_ptr<const
//   TargetProgram>; LRU entries are evicted while the byte budget is
//   exceeded. Capability rejections (std::runtime_error from compile())
//   are cached too -- a rejection is as deterministic as a program, and a
//   production stream should not re-derive "unsupported" at full compile
//   cost per duplicate.
//
// Observability: the request/hit/miss/evict/coalesce/reject/batch counters
// ("server.cache_hits", ...) are counted once, in one MetricsRegistry: the
// attached TraceContext's when ServiceOptions::trace is set (so they appear
// in recordc --trace / --metrics next to the compile counters), else the
// service's own. stats() is a view of those counters, read under the
// service lock where every one of them is incremented.
//
// Telemetry (always on; see DESIGN.md "Service telemetry"): that registry
// also holds the service's gauges and histograms, and every request is
// stamped with a monotonic id and a per-phase timing breakdown -- parse,
// cache lookup, queue wait, batch assembly, compile, fulfillment. Phase
// durations tile the request's lifetime exactly
// (CompileResponse::msLatency == phases.totalMs(), one measurement path,
// asserted by tests/metrics_test.cpp) and feed per-phase log-bucketed
// histograms split by outcome (hit / coalesced / miss / rejected /
// parse_error), so phase-histogram counts reconcile exactly with
// ServiceStats. metricsJson() / prometheusText() export the
// registry; a slow-request tracer (ServiceOptions::slowRequestMs) keeps
// the newest-N full per-phase span captures and renders them as
// validateChromeTrace-clean Chrome trace JSON, and an optional JSONL
// request event log (ServiceOptions::requestLogPath) records one line per
// fulfilled request.
//
// Thread safety: submit()/compileSync() may be called from
// any number of threads. Responses are delivered through futures; the
// shared TargetPrograms are immutable and may be simulated concurrently.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "codegen/pipeline.h"
#include "target/config.h"

namespace record {

class TraceContext;
class MetricsRegistry;
struct MetricsSnapshot;

namespace server {

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

struct CompileRequest {
  std::string source;  // DFL program text
  TargetConfig cfg;
  CodegenOptions opt;  // trace pointer is ignored (the service owns tracing)
};

/// The phases a request's lifetime divides into. Every fulfilled request
/// records all six (zero-duration phases included, so per-phase histogram
/// counts equal the per-outcome request counts), except parse errors,
/// which never reach the lookup/queue/compile phases.
enum class Phase {
  Parse,          // DFL parse + content-key derivation
  CacheLookup,    // classification under the service lock (hit/inflight/miss)
  QueueWait,      // admission-queue residency (coalesced: wait on the
                  // in-flight compile)
  BatchAssembly,  // batch pop to compile start on a worker
  Compile,        // the RecordCompiler run
  Fulfill,        // cache insert + response delivery
};
inline constexpr int kNumPhases = 6;
const char* phaseName(Phase p);  // "parse", "cache_lookup", ...

/// How a request was ultimately served. Hit + Coalesced + Miss + Rejected
/// partition requests - parseErrors; Miss and Rejected together equal
/// ServiceStats::misses (a rejection is a compile that ran and failed).
enum class Outcome { Hit, Coalesced, Miss, Rejected, ParseError };
inline constexpr int kNumOutcomes = 5;
const char* outcomeName(Outcome o);  // "hit", "coalesced", ...

/// Per-request phase durations in milliseconds. The phases tile the
/// request's submit-to-fulfillment interval exactly: totalMs() IS the
/// request latency (no second clock, no separate bookkeeping).
struct PhaseTimes {
  double ms[kNumPhases] = {};

  double& operator[](Phase p) { return ms[static_cast<int>(p)]; }
  double operator[](Phase p) const { return ms[static_cast<int>(p)]; }
  double totalMs() const {
    double t = 0;
    for (double v : ms) t += v;
    return t;
  }
};

struct CompileResponse {
  /// Immutable compiled program, shared with the cache and every other
  /// requester of the same key. Null when `error` is set.
  std::shared_ptr<const TargetProgram> prog;
  std::string error;   // parse diagnostic or capability rejection
  bool cacheHit = false;   // served from cache (no compile ran)
  bool coalesced = false;  // attached to an in-flight compile of the key
  uint64_t key = 0;        // content address (0 on parse error)
  uint64_t requestId = 0;  // monotonic per-service request id (from 1)
  Outcome outcome = Outcome::Miss;
  /// Per-phase breakdown; msLatency == phases.totalMs() by construction
  /// (one clock, one measurement path).
  PhaseTimes phases;
  double msLatency = 0;    // submit-to-fulfillment, steady clock

  bool ok() const { return error.empty(); }
};

/// Future-like handle for one submitted request.
class Ticket {
 public:
  Ticket() = default;
  explicit Ticket(std::shared_future<CompileResponse> f) : f_(std::move(f)) {}
  /// Block until the response is ready.
  const CompileResponse& wait() const { return f_.get(); }
  bool valid() const { return f_.valid(); }

 private:
  std::shared_future<CompileResponse> f_;
};

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

struct ServiceOptions {
  /// Concurrent compile workers (dispatcher + pool threads). 0 = one per
  /// hardware thread.
  int workers = 0;
  /// Compile-cache byte budget (estimated retained bytes of the cached
  /// TargetPrograms). 0 disables caching AND single-flight coalescing --
  /// every request compiles, the `--cache=off` bench mode.
  size_t cacheBytes = 256u << 20;
  /// Admission-queue depth; submit() blocks while this many compiles are
  /// already queued (backpressure).
  int queueDepth = 256;
  /// Max compile jobs dispatched per batch (>= 1). Small batches keep the
  /// latency tail short; large ones amortize dispatch overhead.
  int batchSize = 0;  // 0 = 2x workers
  /// Recycle a leased compiler (fresh FastPathState, drop retained
  /// programs) after this many compiles, bounding arena growth.
  int recycleAfter = 256;
  /// Pin every compile to searchThreads=1 (the soak discipline): the
  /// service parallelizes across requests, not inside one compile.
  bool sequentialSearch = true;
  /// Optional trace: compiles record into it, and the service keeps its
  /// server.* counters, gauges and histograms in the trace's registry
  /// instead of its own. Services sharing a trace share those metrics.
  TraceContext* trace = nullptr;
  /// Slow-request tracing: capture the full per-phase span breakdown of
  /// every request whose latency is >= this many milliseconds (0 captures
  /// everything; < 0 disables capture). Rendered by slowTraceJson().
  double slowRequestMs = -1;
  /// Newest-N ring of captured slow requests.
  int slowTraceLimit = 64;
  /// When non-empty, append one JSON line per fulfilled request (id, key,
  /// outcome, per-phase ms) to this file -- the request event log.
  std::string requestLogPath;
};

/// One captured slow request: everything needed to render its per-phase
/// spans on an absolute (service-epoch) timeline.
struct SlowRequest {
  uint64_t id = 0;
  uint64_t key = 0;
  Outcome outcome = Outcome::Miss;
  double startMs = 0;  // submit time, ms since service construction
  PhaseTimes phases;
  double msLatency = 0;  // == phases.totalMs()
};

/// Monotonic service counters and current cache levels: stats() builds one
/// from the service's registry under the service lock, so it is consistent.
struct ServiceStats {
  int64_t requests = 0;
  int64_t parseErrors = 0;
  int64_t cacheHits = 0;     // served from a completed cache entry
  int64_t coalesced = 0;     // attached to an in-flight compile
  int64_t misses = 0;        // compiles actually run (incl. rejections)
  int64_t rejections = 0;    // compiles that ended in a capability error
  int64_t evictions = 0;     // cache entries evicted under the byte budget
  int64_t batches = 0;       // dispatcher batches executed
  int64_t cacheEntries = 0;  // current entries
  int64_t cacheBytes = 0;    // current estimated retained bytes

  /// Requests that never paid a compile (hits + coalesced).
  int64_t servedWithoutCompile() const { return cacheHits + coalesced; }
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions opt = {});
  /// Drains the admission queue (every ticket is fulfilled) and joins the
  /// workers.
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Admit one request. Parse errors are fulfilled immediately; otherwise
  /// blocks only while the admission queue is full.
  Ticket submit(CompileRequest req);

  /// submit + wait.
  CompileResponse compileSync(CompileRequest req);

  ServiceStats stats() const;
  int workers() const;

  // ---- telemetry ----------------------------------------------------------
  /// The registry the service records into (the trace's, if one is
  /// attached): server.* counters and gauges, per-phase latency histograms
  /// "server.phase.<phase>.<outcome>" and overall "server.latency.<outcome>"
  /// (milliseconds).
  MetricsRegistry& metrics() const;
  /// Consistent copy of every metric (mergeable across services/runs).
  MetricsSnapshot metricsSnapshot() const;
  /// Nested JSON export of metricsSnapshot() (counters/gauges/histograms).
  std::string metricsJson() const;
  /// Prometheus text exposition of metricsSnapshot().
  std::string prometheusText() const;
  /// Captured slow requests (newest-N ring, submit order).
  std::vector<SlowRequest> slowRequests() const;
  /// Chrome trace_event JSON of the captured slow requests: one 'X' span
  /// per request plus one per non-zero phase, tid = request id. Valid
  /// input for chrome://tracing and validateChromeTrace().
  std::string slowTraceJson() const;

  /// The content address submit() would assign: canonical program text of
  /// the parsed source x config x effective-options fingerprint. Exposed
  /// for tests and cache-key audits; parse failures return 0.
  static uint64_t contentKey(const std::string& source,
                             const TargetConfig& cfg,
                             const CodegenOptions& opt,
                             bool sequentialSearch = true);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Estimated retained bytes of a compiled program (code, labels, layout,
/// data image) -- the unit of the cache byte budget.
size_t approxProgramBytes(const TargetProgram& tp);

}  // namespace server
}  // namespace record

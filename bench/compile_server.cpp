// Compile-server throughput/latency bench: replays a mixed stream of
// compile requests (DSPStone kernels x the difftest config sweep x seeded
// generated programs) against server::CompileService and reports
// throughput plus p50/p90/p99 latency per duplicate-ratio point, with a
// cache-off rerun of the same stream as the control.
//
//   ./bench/compile_server                      # default 3000-request stream
//   ./bench/compile_server --programs 500       # CI smoke size
//   ./bench/compile_server --workers 4
//   ./bench/compile_server --slow-trace slow.json --slow-ms 1
//       --request-log requests.jsonl            # telemetry artifacts,
//                                               # one command line
//
// Latency numbers come from the service's own telemetry (the per-outcome
// server.latency.* histograms merged per run), not from client-side
// re-measurement: count/mean/max are exact, p50/p90/p99 are log-bucket
// upper bounds (<= 12.5% wide) clamped to the observed max. Per-phase keys
// (compile_ms_p50/p90/p99, queue_ms_p99) expose where the microseconds go.
// --slow-trace writes the dup90 run's slow-request spans as Chrome trace
// JSON (validated before writing); --request-log appends that run's
// per-request JSONL event log.
//
// Rows written to BENCH_compile_server_stats.json:
//   dup0 / dup50 / dup90     cached runs at 0% / 50% / 90% duplicate ratio
//   dup90_nocache            the dup90 stream with the cache disabled
//   evict                    the dup50 stream under a tiny byte budget
//
// Deterministic keys: programs, unique_programs, served_from_cache (= cache
// hits + coalesced waiters; their sum equals the duplicate count whenever
// nothing evicts, even though the hit/coalesce split is timing-dependent),
// compiled, rejections, evicted_any. Timing keys: programs_per_sec,
// ms_latency_*, wall_sec.
//
// The binary FAILS (exit 1) unless every cached run compiles each unique
// program exactly once and serves every duplicate from the cache, the
// cache-off run compiles every request, and the cached dup90 run reaches
// at least 2x the throughput of the cache-off rerun.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchutil.h"
#include "difftest/difftest.h"
#include "server/compileservice.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace {

using namespace record;

/// splitmix64, fully specified (same rationale as the difftest generator:
/// identical streams on every platform).
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int range(int n) { return static_cast<int>(next() % static_cast<uint64_t>(n)); }
};

/// The unique-request pool: every DSPStone kernel on every sweep config
/// (the production retargeting workload), topped up with seeded generated
/// programs round-robined across configs until `uniques` entries exist.
std::vector<server::CompileRequest> buildPool(int uniques) {
  std::vector<server::CompileRequest> pool;
  const auto sweep = difftest::defaultSweep();
  const CodegenOptions opt;  // default = full RECORD pipeline, fast path on
  for (const auto& k : dspstoneKernels()) {
    for (const auto& pt : sweep) {
      if (static_cast<int>(pool.size()) >= uniques) return pool;
      pool.push_back({k.dfl, pt.cfg, opt});
    }
  }
  for (uint64_t seed = 1; static_cast<int>(pool.size()) < uniques; ++seed) {
    difftest::ProgSpec spec = difftest::generateProgram(seed);
    const auto& pt = sweep[seed % sweep.size()];
    pool.push_back({spec.render(), pt.cfg, opt});
  }
  return pool;
}

/// The replay stream for one duplicate ratio: request i is a duplicate of
/// an earlier unique with probability dupPct/100, else the next fresh
/// unique. Fixed Rng seed => the stream (and so every deterministic
/// counter downstream) is identical run to run.
std::vector<int> buildStream(int programs, int dupPct, int poolSize) {
  Rng rng(0xc0ffee ^ static_cast<uint64_t>(dupPct));
  std::vector<int> stream;
  stream.reserve(programs);
  int fresh = 0;
  for (int i = 0; i < programs; ++i) {
    if (fresh > 0 && (rng.range(100) < dupPct || fresh >= poolSize))
      stream.push_back(rng.range(fresh));  // duplicate an earlier unique
    else
      stream.push_back(fresh++);
  }
  return stream;
}

/// The four outcomes a parse-clean stream can land in.
constexpr const char* kOutcomes[] = {"hit", "coalesced", "miss", "rejected"};

struct RunResult {
  server::ServiceStats stats;
  MetricsSnapshot metrics;     // the service's full registry snapshot
  HistogramSnapshot latency;   // server.latency.* merged across outcomes
  std::string slowTraceJson;   // captured when slowMs >= 0
  double steadySec = 0;
  double wallSec = 0;
  int programs = 0;
  int uniquePrograms = 0;
};

/// Merge one phase's histograms across all outcomes of a run.
HistogramSnapshot phaseHistogram(const MetricsSnapshot& m,
                                 const std::string& phase) {
  HistogramSnapshot h;
  for (const char* o : kOutcomes)
    if (const HistogramSnapshot* s =
            m.histogram("server.phase." + phase + "." + std::string(o)))
      h.merge(*s);
  return h;
}

RunResult replay(const std::vector<server::CompileRequest>& pool,
                 const std::vector<int>& stream, int workers,
                 size_t cacheBytes, double slowMs = -1,
                 const std::string& requestLogPath = "") {
  server::ServiceOptions so;
  so.workers = workers;
  so.cacheBytes = cacheBytes;
  so.slowRequestMs = slowMs;
  so.requestLogPath = requestLogPath;
  server::CompileService svc(so);

  bench::DualTimer timer;
  std::vector<server::Ticket> tickets;
  tickets.reserve(stream.size());
  for (int idx : stream) tickets.push_back(svc.submit(pool[idx]));

  RunResult r;
  int uniqueMax = -1;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const server::CompileResponse& resp = tickets[i].wait();
    if (resp.key == 0) {
      std::fprintf(stderr, "FATAL: stream request %zu failed to parse: %s\n",
                   i, resp.error.c_str());
      std::exit(1);
    }
    if (stream[i] > uniqueMax) uniqueMax = stream[i];
  }
  bench::DualTimes t = timer.elapsed();
  r.stats = svc.stats();
  r.metrics = svc.metricsSnapshot();
  for (const char* o : kOutcomes)
    if (const HistogramSnapshot* s =
            r.metrics.histogram("server.latency." + std::string(o)))
      r.latency.merge(*s);
  if (static_cast<int64_t>(r.latency.count) != r.stats.requests) {
    std::fprintf(stderr,
                 "FATAL: latency histogram count %llu != %lld requests -- "
                 "telemetry lost samples\n",
                 (unsigned long long)r.latency.count,
                 (long long)r.stats.requests);
    std::exit(1);
  }
  if (slowMs >= 0) r.slowTraceJson = svc.slowTraceJson();
  r.steadySec = t.steadySec;
  r.wallSec = t.wallSec;
  r.programs = static_cast<int>(stream.size());
  r.uniquePrograms = uniqueMax + 1;
  return r;
}

/// Exit 1 unless the run's cache counts are the stream's: with the cache
/// on, one compile per unique program and every duplicate served from the
/// cache; with it off, one compile per request.
void checkCounts(const std::string& row, const RunResult& r, bool cached) {
  const int64_t compiled = r.stats.misses;
  const int64_t served = r.stats.servedWithoutCompile();
  const int64_t wantCompiled = cached ? r.uniquePrograms : r.programs;
  const int64_t wantServed = r.programs - wantCompiled;
  if (compiled != wantCompiled || served != wantServed) {
    std::fprintf(stderr,
                 "FATAL: %s compiled %lld and served %lld from cache; the "
                 "stream needs %lld and %lld\n",
                 row.c_str(), (long long)compiled, (long long)served,
                 (long long)wantCompiled, (long long)wantServed);
    std::exit(1);
  }
}

void recordRun(const std::string& row, const RunResult& r) {
  auto& g = bench::globalStats();
  g.set(row, "programs", r.programs);
  g.set(row, "unique_programs", r.uniquePrograms);
  g.set(row, "served_from_cache",
        static_cast<double>(r.stats.servedWithoutCompile()));
  g.set(row, "compiled", static_cast<double>(r.stats.misses));
  g.set(row, "rejections", static_cast<double>(r.stats.rejections));
  g.set(row, "programs_per_sec",
        r.steadySec > 0 ? r.programs / r.steadySec : 0);
  g.set(row, "wall_sec", r.wallSec);
  bench::recordLatencyStats(g, row, r.latency);
  // Where the microseconds go: compile-phase percentiles and the queue-wait
  // tail.
  HistogramSnapshot compile = phaseHistogram(r.metrics, "compile");
  g.set(row, "compile_ms_p50", compile.percentile(50));
  g.set(row, "compile_ms_p90", compile.percentile(90));
  g.set(row, "compile_ms_p99", compile.percentile(99));
  g.set(row, "queue_ms_p99",
        phaseHistogram(r.metrics, "queue_wait").percentile(99));
}

}  // namespace

int main(int argc, char** argv) {
  int programs = 3000;
  int workers = 0;  // one per hardware thread
  std::string slowTracePath;
  std::string requestLogPath;
  double slowMs = 0;  // with --slow-trace: capture everything by default
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--programs")) programs = std::atoi(argv[++i]);
    else if (arg("--workers")) workers = std::atoi(argv[++i]);
    else if (arg("--slow-trace")) slowTracePath = argv[++i];
    else if (arg("--slow-ms")) slowMs = std::atof(argv[++i]);
    else if (arg("--request-log")) requestLogPath = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: %s [--programs N] [--workers N] [--slow-trace "
                   "FILE] [--slow-ms MS] [--request-log FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (programs < 10) programs = 10;

  // The pool never needs more uniques than the least-duplicated stream
  // (dup0) can consume.
  std::vector<server::CompileRequest> pool = buildPool(programs);
  std::string workersDesc =
      workers ? "workers=" + std::to_string(workers) : "workers=auto";
  std::printf("compile_server: %d-request stream, pool of %zu uniques, %s\n",
              programs, pool.size(), workersDesc.c_str());

  double dup90Cached = 0, dup90NoCache = 0;
  for (int dupPct : {0, 50, 90}) {
    std::vector<int> stream =
        buildStream(programs, dupPct, static_cast<int>(pool.size()));
    // The dup90 run carries the telemetry artifacts (slow trace, request
    // log) when asked -- it is the headline cached run.
    bool artifacts = dupPct == 90 && !slowTracePath.empty();
    RunResult r = replay(pool, stream, workers,
                         server::ServiceOptions{}.cacheBytes,
                         artifacts ? slowMs : -1,
                         dupPct == 90 ? requestLogPath : "");
    if (artifacts) {
      std::string err;
      if (!validateChromeTrace(r.slowTraceJson, &err)) {
        std::fprintf(stderr, "FATAL: slow-request trace is invalid: %s\n",
                     err.c_str());
        return 1;
      }
      std::ofstream out(slowTracePath);
      out << r.slowTraceJson;
      std::printf("slow-request trace: %s\n", slowTracePath.c_str());
    }
    std::string row = "dup" + std::to_string(dupPct);
    checkCounts(row, r, /*cached=*/true);
    recordRun(row, r);
    double thr = r.steadySec > 0 ? r.programs / r.steadySec : 0;
    std::printf(
        "%-14s %5d programs (%4d unique) %8.0f prog/s  "
        "p50=%.3fms p90=%.3fms p99=%.3fms  cache: %lld served, %lld compiled\n",
        row.c_str(), r.programs, r.uniquePrograms, thr,
        r.latency.percentile(50), r.latency.percentile(90),
        r.latency.percentile(99),
        (long long)r.stats.servedWithoutCompile(), (long long)r.stats.misses);
    if (dupPct == 90) {
      dup90Cached = thr;
      RunResult off = replay(pool, stream, workers, /*cacheBytes=*/0);
      checkCounts("dup90_nocache", off, /*cached=*/false);
      recordRun("dup90_nocache", off);
      dup90NoCache = off.steadySec > 0 ? off.programs / off.steadySec : 0;
      std::printf(
          "%-14s %5d programs (%4d unique) %8.0f prog/s  "
          "p50=%.3fms p90=%.3fms p99=%.3fms  (cache off)\n",
          "dup90_nocache", off.programs, off.uniquePrograms, dup90NoCache,
          off.latency.percentile(50), off.latency.percentile(90),
          off.latency.percentile(99));
    }
  }

  // Eviction stress: the dup50 stream against a budget far smaller than
  // the pool, so the LRU path runs continuously. Only `evicted_any` is
  // deterministic -- the exact eviction count depends on completion order
  // under concurrency.
  {
    std::vector<int> stream =
        buildStream(programs, 50, static_cast<int>(pool.size()));
    RunResult r = replay(pool, stream, workers, /*cacheBytes=*/64 << 10);
    auto& g = bench::globalStats();
    g.set("evict", "programs", r.programs);
    g.set("evict", "evicted_any", r.stats.evictions > 0 ? 1 : 0);
    g.set("evict", "programs_per_sec",
          r.steadySec > 0 ? r.programs / r.steadySec : 0);
    bench::recordLatencyStats(g, "evict", r.latency);
    std::printf("%-14s %5d programs, %lld evictions under a 64KiB budget\n",
                "evict", r.programs, (long long)r.stats.evictions);
    if (r.stats.evictions == 0) {
      std::fprintf(stderr,
                   "FATAL: eviction stress run evicted nothing -- the byte "
                   "budget is not being enforced\n");
      return 1;
    }
  }

  double speedup = dup90NoCache > 0 ? dup90Cached / dup90NoCache : 0;
  bench::globalStats().set("dup90", "wall_speedup_x", speedup);
  bench::writeGlobalStats("compile_server");

  std::printf("dup90 cached vs cache-off: %.2fx\n", speedup);
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: cached throughput %.0f prog/s is below 2x the "
                 "cache-off %.0f prog/s on the 90%%-duplicate stream\n",
                 dup90Cached, dup90NoCache);
    return 1;
  }
  return 0;
}

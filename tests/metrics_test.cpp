// Service-telemetry tests: the log-bucketed latency histogram against the
// exact-sample oracle, snapshot merge algebra, lock-free concurrent
// recording (the ctest filter includes "Metrics", so these run under TSan
// in CI), the JSON / Prometheus exports, and the CompileService lifecycle
// instrumentation -- phase tiling (msLatency == phases.totalMs()), the
// phase-histogram counts reconciling exactly with ServiceStats, the
// slow-request Chrome trace, and the JSONL request event log.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dspstone/kernels.h"
#include "server/compileservice.h"
#include "support/json.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace record {
namespace {

using server::CompileRequest;
using server::CompileResponse;
using server::CompileService;
using server::Outcome;
using server::Phase;
using server::ServiceOptions;

/// Deterministic sample stream: splitmix64-driven latencies spanning
/// sub-microsecond to several seconds (the full range a compile service
/// produces).
std::vector<double> sampleStream(uint64_t seed, int n) {
  std::vector<double> out;
  out.reserve(n);
  uint64_t state = seed;
  for (int i = 0; i < n; ++i) {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Exponent spread: 10^-4 .. 10^3 ms.
    double mag = static_cast<double>(z % 8) - 4.0;
    double frac = static_cast<double>((z >> 8) % 1000) / 1000.0 + 0.001;
    double ms = frac;
    for (int e = 0; e < mag; ++e) ms *= 10;
    for (int e = 0; e > mag; --e) ms /= 10;
    out.push_back(ms);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Histogram vs the exact-sample oracle
// ---------------------------------------------------------------------------

TEST(MetricsHistogram, BucketBoundsContainEveryValue) {
  // Every nanosecond value lands in a bucket whose [lower, upper) bounds
  // contain it, and (past the exact 0..7 ns range) the bucket is at most
  // 12.5% wide.
  std::vector<int64_t> probes = {0, 1, 7, 8, 9, 63, 64, 65, 1000, 999999,
                                 1000000, 123456789, 1999999999,
                                 int64_t(1) << 39, (int64_t(1) << 42) + 17};
  for (int64_t ns : probes) {
    int idx = HistogramSnapshot::bucketOf(ns);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, HistogramSnapshot::kBuckets);
    if (idx < HistogramSnapshot::kBuckets - 1) {
      EXPECT_LE(HistogramSnapshot::bucketLowerNs(idx), ns) << ns;
      EXPECT_GT(HistogramSnapshot::bucketUpperNs(idx), ns) << ns;
    } else {
      EXPECT_GE(ns, HistogramSnapshot::bucketLowerNs(idx)) << ns;  // clamped
    }
    if (ns >= 64 && idx < HistogramSnapshot::kBuckets - 1) {
      double lo = static_cast<double>(HistogramSnapshot::bucketLowerNs(idx));
      double hi = static_cast<double>(HistogramSnapshot::bucketUpperNs(idx));
      EXPECT_LE((hi - lo) / lo, 0.125 + 1e-12) << ns;
    }
  }
  // Bucket indices are monotone in the value.
  int prev = -1;
  for (int64_t ns = 0; ns < 100000; ns += 7) {
    int idx = HistogramSnapshot::bucketOf(ns);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(MetricsHistogram, PercentileBoundsBracketTheExactOracle) {
  // The log-bucketed percentile must return a bucket that provably
  // contains the exact nearest-rank sample: oracle in [lo, hi], and the
  // reported point estimate (hi clamped to max) never below the oracle's
  // bucket lower bound.
  LatencyHistogram h;
  LatencySamples oracle;
  for (double ms : sampleStream(7, 5000)) {
    h.record(ms);
    oracle.record(ms);
  }
  HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, oracle.count());
  EXPECT_DOUBLE_EQ(s.maxMs(), oracle.percentile(100));
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    auto [lo, hi] = s.percentileBounds(p);
    double exact = oracle.percentile(p);
    // record() rounds to whole nanoseconds; allow that much slack.
    EXPECT_LE(lo, exact + 1e-6) << "p" << p;
    EXPECT_GE(hi, exact - 1e-6) << "p" << p;
  }
}

TEST(MetricsHistogram, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram h;
  for (double ms : sampleStream(99, 2000)) h.record(ms);
  HistogramSnapshot s = h.snapshot();
  double prev = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double v = s.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_LE(v, s.maxMs()) << "p" << p;
    prev = v;
  }
  // Empty histogram: everything is zero.
  HistogramSnapshot empty;
  EXPECT_EQ(empty.percentile(50), 0);
  EXPECT_EQ(empty.maxMs(), 0);
  EXPECT_EQ(empty.meanMs(), 0);
}

TEST(MetricsHistogram, MergeIsAssociativeCommutativeAndLossless) {
  auto recordAll = [](const std::vector<double>& ms) {
    LatencyHistogram h;
    for (double m : ms) h.record(m);
    return h.snapshot();
  };
  auto a = recordAll(sampleStream(1, 700));
  auto b = recordAll(sampleStream(2, 900));
  auto c = recordAll(sampleStream(3, 1100));

  auto eq = [](const HistogramSnapshot& x, const HistogramSnapshot& y) {
    if (x.count != y.count || x.sumNs != y.sumNs || x.maxNs != y.maxNs)
      return false;
    for (int i = 0; i < HistogramSnapshot::kBuckets; ++i)
      if (x.buckets[i] != y.buckets[i]) return false;
    return true;
  };

  HistogramSnapshot ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(eq(ab_c, a_bc));

  HistogramSnapshot ba = b;     // commutativity
  ba.merge(a);
  HistogramSnapshot ab = a;
  ab.merge(b);
  EXPECT_TRUE(eq(ab, ba));

  // Merging equals recording every sample into one histogram.
  std::vector<double> all;
  for (uint64_t s : {1ull, 2ull, 3ull}) {
    auto v = sampleStream(s, s == 1 ? 700 : s == 2 ? 900 : 1100);
    all.insert(all.end(), v.begin(), v.end());
  }
  EXPECT_TRUE(eq(ab_c, recordAll(all)));
}

TEST(MetricsHistogram, ConcurrentRecordingLosesNothing) {
  // 8 threads x 4000 records on one histogram: exact count and sum (the
  // samples are whole milliseconds, so the sums are integer-exact). TSan
  // covers the memory-order claims.
  LatencyHistogram h;
  constexpr int kThreads = 8, kPer = 4000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPer; ++i) h.record(static_cast<double>(t + 1));
    });
  for (auto& t : ts) t.join();
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads * kPer));
  int64_t wantSumNs = 0;
  for (int t = 0; t < kThreads; ++t)
    wantSumNs += static_cast<int64_t>(t + 1) * 1000000ll * kPer;
  EXPECT_EQ(s.sumNs, wantSumNs);
  EXPECT_EQ(s.maxNs, 8000000);
}

// ---------------------------------------------------------------------------
// Registry and exports
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  TraceCounter* c = reg.counter("requests");
  Gauge* g = reg.gauge("depth");
  LatencyHistogram* h = reg.histogram("latency");
  EXPECT_EQ(c, reg.counter("requests"));
  EXPECT_EQ(g, reg.gauge("depth"));
  EXPECT_EQ(h, reg.histogram("latency"));
  c->add(3);
  g->set(7);
  g->add(-2);
  h->record(1.5);
  MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("requests"), 3);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].second, 5);
  ASSERT_NE(s.histogram("latency"), nullptr);
  EXPECT_EQ(s.histogram("latency")->count, 1u);
  EXPECT_EQ(s.histogram("missing"), nullptr);
  EXPECT_EQ(s.counter("missing"), 0);
}

TEST(MetricsRegistry, SnapshotMergeAddsNameWise) {
  MetricsRegistry a, b;
  a.counter("shared")->add(1);
  a.counter("only_a")->add(10);
  a.histogram("lat")->record(1);
  b.counter("shared")->add(2);
  b.counter("only_b")->add(20);
  b.histogram("lat")->record(3);
  MetricsSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.counter("shared"), 3);
  EXPECT_EQ(s.counter("only_a"), 10);
  EXPECT_EQ(s.counter("only_b"), 20);
  ASSERT_NE(s.histogram("lat"), nullptr);
  EXPECT_EQ(s.histogram("lat")->count, 2u);
  // Names stay sorted (the merge contract).
  for (size_t i = 1; i < s.counters.size(); ++i)
    EXPECT_LT(s.counters[i - 1].first, s.counters[i].first);
}

TEST(MetricsRegistry, MetricsJsonParsesAndCarriesStats) {
  MetricsRegistry reg;
  reg.counter("server.requests")->add(4);
  reg.gauge("server.queue_depth")->set(2);
  for (double ms : {1.0, 2.0, 3.0, 4.0}) reg.histogram("lat")->record(ms);
  std::string err;
  auto doc = json::parse(reg.metricsJson(), &err);
  ASSERT_TRUE(doc) << err;
  const json::Value* counters = doc->find("counters");
  ASSERT_TRUE(counters && counters->isObject());
  const json::Value* req = counters->find("server.requests");
  ASSERT_TRUE(req && req->isNumber());
  EXPECT_EQ(static_cast<int64_t>(req->number), 4);
  const json::Value* hists = doc->find("histograms");
  ASSERT_TRUE(hists && hists->isObject());
  const json::Value* lat = hists->find("lat");
  ASSERT_TRUE(lat && lat->isObject());
  for (const char* k :
       {"count", "ms_sum", "ms_mean", "ms_p50", "ms_p90", "ms_p99", "ms_max"})
    EXPECT_TRUE(lat->find(k)) << k;
  EXPECT_EQ(static_cast<int64_t>(lat->find("count")->number), 4);
  EXPECT_DOUBLE_EQ(lat->find("ms_max")->number, 4.0);
}

TEST(MetricsRegistry, PrometheusTextIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("server.requests")->add(2);
  reg.gauge("server.cache_bytes")->set(1024);
  for (double ms : {0.5, 1.5, 2.5}) reg.histogram("server.latency.miss")->record(ms);
  std::string text = reg.prometheusText();
  EXPECT_NE(text.find("# TYPE server_requests counter"), std::string::npos);
  EXPECT_NE(text.find("server_requests 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_cache_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_latency_miss histogram"),
            std::string::npos);
  EXPECT_NE(text.find("server_latency_miss_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("server_latency_miss_count 3"), std::string::npos);
  // Cumulative buckets are non-decreasing and end at the count.
  std::istringstream is(text);
  std::string line;
  uint64_t prev = 0;
  while (std::getline(is, line)) {
    auto pos = line.find("_bucket{le=\"");
    if (pos == std::string::npos || line.find("+Inf") != std::string::npos)
      continue;
    uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(prev, 3u);
}

// ---------------------------------------------------------------------------
// Service lifecycle instrumentation
// ---------------------------------------------------------------------------

/// Drive a mixed stream at a service: duplicates (hits/coalesced), unique
/// programs (misses), and parse errors. Returns every response.
std::vector<CompileResponse> driveService(CompileService& svc, int dups) {
  std::vector<server::Ticket> tickets;
  const std::string fir = kernelByName("fir").dfl;
  const std::string dot = kernelByName("dot_product").dfl;
  TargetConfig cfg;
  CodegenOptions opt;
  for (int i = 0; i < dups; ++i) tickets.push_back(svc.submit({fir, cfg, opt}));
  tickets.push_back(svc.submit({dot, cfg, opt}));
  tickets.push_back(svc.submit({"this is not DFL (", cfg, opt}));
  std::vector<CompileResponse> out;
  out.reserve(tickets.size());
  for (auto& t : tickets) out.push_back(t.wait());
  return out;
}

TEST(MetricsService, PhaseTimesTileTheLatencyExactly) {
  CompileService svc;
  for (const CompileResponse& resp : driveService(svc, 6)) {
    // One clock, one measurement path: the response's latency IS the sum
    // of its phases, bit-for-bit.
    EXPECT_DOUBLE_EQ(resp.msLatency, resp.phases.totalMs());
    for (int p = 0; p < server::kNumPhases; ++p)
      EXPECT_GE(resp.phases.ms[p], 0.0);
    EXPECT_GE(resp.msLatency, 0.0);
  }
}

TEST(MetricsService, RequestIdsAreMonotonicAndUnique) {
  CompileService svc;
  std::set<uint64_t> ids;
  for (const CompileResponse& resp : driveService(svc, 4)) {
    EXPECT_GT(resp.requestId, 0u);
    EXPECT_TRUE(ids.insert(resp.requestId).second) << resp.requestId;
  }
  EXPECT_EQ(ids.size(), 6u);
}

TEST(MetricsService, HistogramCountsReconcileWithServiceStats) {
  CompileService svc;
  auto responses = driveService(svc, 8);
  server::ServiceStats st = svc.stats();
  MetricsSnapshot m = svc.metricsSnapshot();

  auto histCount = [&](const std::string& name) -> int64_t {
    const HistogramSnapshot* h = m.histogram(name);
    return h ? static_cast<int64_t>(h->count) : 0;
  };

  // Mirrored counters agree with ServiceStats exactly.
  EXPECT_EQ(m.counter("server.requests"), st.requests);
  EXPECT_EQ(m.counter("server.parse_errors"), st.parseErrors);
  EXPECT_EQ(m.counter("server.cache_hits"), st.cacheHits);
  EXPECT_EQ(m.counter("server.coalesced"), st.coalesced);
  EXPECT_EQ(m.counter("server.cache_misses"), st.misses);

  // Outcome latency histograms partition the fulfilled requests:
  // hits + coalesced + misses == requests - parseErrors, with Miss and
  // Rejected together equal to ServiceStats::misses.
  int64_t hit = histCount("server.latency.hit");
  int64_t coal = histCount("server.latency.coalesced");
  int64_t miss = histCount("server.latency.miss");
  int64_t rej = histCount("server.latency.rejected");
  int64_t perr = histCount("server.latency.parse_error");
  EXPECT_EQ(hit, st.cacheHits);
  EXPECT_EQ(coal, st.coalesced);
  EXPECT_EQ(miss + rej, st.misses);
  EXPECT_EQ(perr, st.parseErrors);
  EXPECT_EQ(hit + coal + miss + rej, st.requests - st.parseErrors);
  EXPECT_EQ(static_cast<int64_t>(responses.size()), st.requests);

  // Per-phase histogram counts equal the per-outcome request counts for
  // every phase (zero-duration phases are recorded too); parse errors
  // record only parse + fulfill.
  const char* outcomes[] = {"hit", "coalesced", "miss", "rejected"};
  int64_t byOutcome[] = {hit, coal, miss, rej};
  for (int o = 0; o < 4; ++o)
    for (int p = 0; p < server::kNumPhases; ++p) {
      std::string name = std::string("server.phase.") +
                         server::phaseName(static_cast<Phase>(p)) + "." +
                         outcomes[o];
      EXPECT_EQ(histCount(name), byOutcome[o]) << name;
    }
  EXPECT_EQ(histCount("server.phase.parse.parse_error"), perr);
  EXPECT_EQ(histCount("server.phase.fulfill.parse_error"), perr);
  EXPECT_EQ(histCount("server.phase.compile.parse_error"), 0);
}

TEST(MetricsService, TraceAndServiceShareOneCounterStore) {
  // With a trace attached, the service counts into the trace's registry:
  // the trace, stats() and metricsSnapshot() read one counter per quantity,
  // and the one snapshot also carries the compile counters.
  TraceContext trace;
  ServiceOptions so;
  so.trace = &trace;
  so.cacheBytes = 4 << 10;  // a few KiB: inserts evict
  CompileService svc(so);
  TargetConfig cfg;
  CodegenOptions opt;
  const std::string fir = kernelByName("fir").dfl;
  std::vector<server::Ticket> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(svc.submit({fir, cfg, opt}));
  for (auto& t : tickets) ASSERT_TRUE(t.wait().ok()) << t.wait().error;
  EXPECT_TRUE(svc.compileSync({fir, cfg, opt}).cacheHit);
  for (const char* k : {"dot_product", "convolution", "n_real_updates"})
    ASSERT_TRUE(svc.compileSync({kernelByName(k).dfl, cfg, opt}).ok()) << k;
  TargetConfig noSat;
  noSat.hasSat = false;
  EXPECT_FALSE(svc.compileSync({"program satprog;\n"
                                "input a : fix;\ninput b : fix;\n"
                                "output o : fix;\n"
                                "begin\n  o := a +| b;\nend\n",
                                noSat, opt})
                   .ok());
  EXPECT_EQ(svc.compileSync({"this is not DFL (", cfg, opt}).outcome,
            Outcome::ParseError);

  const server::ServiceStats st = svc.stats();
  const MetricsSnapshot m = svc.metricsSnapshot();
  const struct {
    const char* name;
    int64_t stat;
  } quantities[] = {
      {"server.requests", st.requests},
      {"server.parse_errors", st.parseErrors},
      {"server.cache_hits", st.cacheHits},
      {"server.coalesced", st.coalesced},
      {"server.cache_misses", st.misses},
      {"server.rejections", st.rejections},
      {"server.evictions", st.evictions},
      {"server.batches", st.batches},
  };
  for (const auto& q : quantities) {
    EXPECT_EQ(trace.counterValue(q.name), q.stat) << q.name;
    EXPECT_EQ(m.counter(q.name), q.stat) << q.name;
  }
  EXPECT_EQ(st.requests, 12);
  EXPECT_EQ(st.parseErrors, 1);
  EXPECT_EQ(st.misses, 5);
  EXPECT_EQ(st.rejections, 1);
  EXPECT_EQ(st.cacheHits + st.coalesced, 6);
  EXPECT_GE(st.cacheHits, 1);
  EXPECT_GT(st.evictions, 0);
  EXPECT_GT(st.batches, 0);
  EXPECT_GT(m.counter("codegen.size_words"), 0);
  EXPECT_GT(m.counter("rewrite.variants_explored"), 0);
}

TEST(MetricsService, SlowTraceValidatesAndHonorsRingLimit) {
  ServiceOptions so;
  so.slowRequestMs = 0;  // capture everything
  so.slowTraceLimit = 5;
  CompileService svc(so);
  auto responses = driveService(svc, 7);  // 9 requests > ring of 5

  std::vector<server::SlowRequest> slow = svc.slowRequests();
  EXPECT_EQ(slow.size(), 5u);  // newest-N ring
  for (const auto& s : slow)
    EXPECT_DOUBLE_EQ(s.msLatency, s.phases.totalMs());

  std::string json = svc.slowTraceJson();
  std::string err;
  EXPECT_TRUE(validateChromeTrace(json, &err)) << err;
  EXPECT_NE(json.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": "), std::string::npos);

  // Disabled by default: no captures.
  CompileService quiet;
  (void)driveService(quiet, 2);
  EXPECT_TRUE(quiet.slowRequests().empty());
  EXPECT_TRUE(validateChromeTrace(quiet.slowTraceJson(), &err)) << err;
}

TEST(MetricsService, RequestLogIsParseableJsonl) {
  std::string path = "metrics_test_requests.jsonl";
  std::remove(path.c_str());
  int64_t requests = 0;
  {
    ServiceOptions so;
    so.requestLogPath = path;
    CompileService svc(so);
    (void)driveService(svc, 5);
    requests = svc.stats().requests;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int64_t lines = 0;
  std::set<std::string> outcomes;
  while (std::getline(in, line)) {
    ++lines;
    std::string err;
    auto doc = json::parse(line, &err);
    ASSERT_TRUE(doc) << err << ": " << line;
    ASSERT_TRUE(doc->find("id"));
    ASSERT_TRUE(doc->find("outcome"));
    ASSERT_TRUE(doc->find("ms"));
    outcomes.insert(doc->find("outcome")->str);
    // The logged per-phase fields tile the logged latency.
    double sum = 0;
    for (int p = 0; p < server::kNumPhases; ++p) {
      const json::Value* v = doc->find(
          std::string(server::phaseName(static_cast<Phase>(p))) + "_ms");
      ASSERT_TRUE(v);
      sum += v->number;
    }
    // Fields are rendered with %.6g, so allow 6-significant-digit rounding
    // on each of the seven numbers.
    double ms = doc->find("ms")->number;
    EXPECT_NEAR(sum, ms, 1e-3 + ms * 1e-4);
  }
  EXPECT_EQ(lines, requests);
  EXPECT_TRUE(outcomes.count("parse_error"));
  EXPECT_TRUE(outcomes.count("miss"));
  std::remove(path.c_str());
}

TEST(MetricsService, CacheOffStreamStillReconciles) {
  ServiceOptions so;
  so.cacheBytes = 0;  // no cache, no coalescing: every parse-clean request
                      // is a miss
  CompileService svc(so);
  (void)driveService(svc, 4);
  server::ServiceStats st = svc.stats();
  MetricsSnapshot m = svc.metricsSnapshot();
  const HistogramSnapshot* miss = m.histogram("server.latency.miss");
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(static_cast<int64_t>(miss->count), st.misses);
  EXPECT_EQ(st.cacheHits, 0);
  EXPECT_EQ(st.coalesced, 0);
  EXPECT_EQ(st.misses, st.requests - st.parseErrors);
}

}  // namespace
}  // namespace record

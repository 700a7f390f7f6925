// Telemetry substrate: the one thread-safe registry of named counters,
// gauges and log-bucketed latency histograms. A TraceContext (trace.h)
// owns one for a compilation's counters; the compile service records its
// server.* counters, gauges and per-phase latency histograms into the same
// registry when a trace is attached, and into its own otherwise. Counters
// are monotonic totals, gauges point-in-time levels, and histograms answer
// "where do a request's microseconds go" with percentiles instead of
// averages.
//
// Design constraints (see DESIGN.md "Service telemetry"):
//
//   * Lock-free hot path. TraceCounter::add, Gauge::set and
//     LatencyHistogram::record are relaxed atomics on stable addresses --
//     resolve the pointer once (MetricsRegistry::histogram(...)) and record
//     freely from any thread. Only find-or-create and snapshot take the
//     registry mutex.
//
//   * Exact where it can be, bounded where it must. Histogram count / sum /
//     max are exact; the distribution is log-bucketed (8 linear sub-buckets
//     per power-of-two octave, <= 12.5% relative bucket width), so a
//     percentile query returns the bucket that provably contains the
//     nearest-rank sample. percentileBounds() exposes the bucket bounds;
//     percentile() returns the conservative (upper) point estimate clamped
//     to the observed max.
//
//   * Mergeable snapshots. HistogramSnapshot / MetricsSnapshot are plain
//     data with an associative, commutative merge (bucket-wise sums, max of
//     maxima), so per-shard or per-run registries roll up into one fleet
//     view. Merge associativity is pinned by tests/metrics_test.cpp.
//
// Two export formats render a snapshot: metricsJson() -- a nested stats
// object ({"counters": {...}, "gauges": {...}, "histograms": {name:
// {count, ms_p50, ...}}}) for jq and the bench artifacts -- and
// prometheusText(), a Prometheus-style text exposition with cumulative
// le-buckets, for anything that scrapes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace record {

/// A named monotonic counter with a stable address: resolve once with
/// MetricsRegistry::counter() (or TraceContext::counter()), then add()
/// freely from any thread.
struct TraceCounter {
  std::string name;
  std::atomic<int64_t> value{0};

  void add(int64_t delta = 1) {
    value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t get() const { return value.load(std::memory_order_relaxed); }
};

/// A named level (queue depth, cache bytes, in-flight keys): set/add from
/// any thread, read at snapshot time. Same stable-address contract as
/// TraceCounter.
struct Gauge {
  std::string name;
  std::atomic<int64_t> value{0};

  void set(int64_t v) { value.store(v, std::memory_order_relaxed); }
  void add(int64_t delta) { value.fetch_add(delta, std::memory_order_relaxed); }
  int64_t get() const { return value.load(std::memory_order_relaxed); }
};

// ---------------------------------------------------------------------------
// Log-bucketed latency histogram
// ---------------------------------------------------------------------------

/// Plain-data histogram state: bucket counts plus exact count/sum/max.
/// Samples are recorded in milliseconds and stored as nanoseconds; buckets
/// 0..7 are exact 0..7 ns, after which each power-of-two octave splits into
/// 8 linear sub-buckets. Values past ~18 minutes clamp into the top bucket.
struct HistogramSnapshot {
  static constexpr int kSubBuckets = 8;
  static constexpr int kMaxOctave = 40;  // 2^40 ns ~= 18 min
  static constexpr int kBuckets = kSubBuckets * (kMaxOctave - 2);  // 304

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  int64_t sumNs = 0;
  int64_t maxNs = 0;

  /// Bucket index of a nanosecond value (clamped into [0, kBuckets)).
  static int bucketOf(int64_t ns);
  /// Inclusive lower bound of bucket `idx`, in nanoseconds.
  static int64_t bucketLowerNs(int idx);
  /// Exclusive upper bound of bucket `idx`, in nanoseconds.
  static int64_t bucketUpperNs(int idx);

  /// Bucket-wise sum; exact fields combine exactly (max of maxima). The
  /// operation is associative and commutative.
  void merge(const HistogramSnapshot& other);

  /// [lower, upper] bounds (ms) of the bucket holding the nearest-rank
  /// p-th percentile sample (p in [0,100]). {0,0} when empty.
  std::pair<double, double> percentileBounds(double p) const;
  /// Conservative point estimate: the bucket's upper bound, clamped to the
  /// exact observed max. 0 when empty.
  double percentile(double p) const;
  double sumMs() const { return static_cast<double>(sumNs) / 1e6; }
  double maxMs() const { return static_cast<double>(maxNs) / 1e6; }
  double meanMs() const {
    return count ? sumMs() / static_cast<double>(count) : 0;
  }
};

/// The live, concurrently-writable histogram. record() is lock-free
/// (relaxed atomics; max via a CAS loop); snapshot() is a racy-but-
/// monotonic read, exact once writers quiesce.
class LatencyHistogram {
 public:
  std::string name;

  void record(double ms);
  HistogramSnapshot snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double percentile(double p) const { return snapshot().percentile(p); }
  double maxMs() const { return snapshot().maxMs(); }
  double meanMs() const { return snapshot().meanMs(); }

 private:
  std::atomic<uint64_t> buckets_[HistogramSnapshot::kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sumNs_{0};
  std::atomic<int64_t> maxNs_{0};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A consistent, mergeable copy of every metric in a registry, sorted by
/// name. Plain data: safe to ship across threads, diff, or accumulate.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Name-wise merge: counters, gauges and histogram buckets add (a gauge
  /// merged across shards reads as the fleet total). Associative and
  /// commutative.
  void merge(const MetricsSnapshot& other);

  const HistogramSnapshot* histogram(std::string_view name) const;
  int64_t counter(std::string_view name) const;  // 0 when absent

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {"count":
  /// n, "ms_sum": s, "ms_mean": m, "ms_p50": ..., "ms_p90": ...,
  /// "ms_p99": ..., "ms_max": ...}}}
  std::string metricsJson() const;
  /// Prometheus text exposition: counters/gauges as-is, histograms with
  /// cumulative le-buckets (in ms), _sum and _count. Metric names are
  /// sanitized ([^a-zA-Z0-9_] -> '_').
  std::string prometheusText() const;
};

/// Find-or-create registry of named counters, gauges and histograms.
/// Returned pointers are stable for the registry's lifetime; hot paths
/// resolve once and record lock-free thereafter.
class MetricsRegistry {
 public:
  TraceCounter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  LatencyHistogram* histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  std::string metricsJson() const { return snapshot().metricsJson(); }
  std::string prometheusText() const { return snapshot().prometheusText(); }

 private:
  mutable std::mutex mu_;
  std::deque<TraceCounter> counters_;  // deques: stable addresses
  std::deque<Gauge> gauges_;
  std::deque<LatencyHistogram> histograms_;
  std::map<std::string, TraceCounter*, std::less<>> counterIdx_;
  std::map<std::string, Gauge*, std::less<>> gaugeIdx_;
  std::map<std::string, LatencyHistogram*, std::less<>> histogramIdx_;
};

// ---------------------------------------------------------------------------
// Exact-sample oracle
// ---------------------------------------------------------------------------

/// Exact latency percentiles from stored samples (formerly
/// bench/benchutil.h). The benches stream a few thousand requests, so
/// storing every sample is cheap; the tests use it as the ground-truth
/// oracle the log-bucketed histogram is checked against. NOT thread-safe.
class LatencySamples {
 public:
  void record(double ms) { samples_.push_back(ms); }
  size_t count() const { return samples_.size(); }

  /// Exact percentile by nearest-rank (p in [0,100]); 0 when empty. The
  /// rank-`ceil(p/100*N)`-th smallest sample, so p=100 is the max and p=0
  /// the min.
  double percentile(double p) const;
  double mean() const;

 private:
  std::vector<double> samples_;
};

}  // namespace record

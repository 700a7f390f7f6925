#include "trace/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace record {

// ---------------------------------------------------------------------------
// Bucketing
// ---------------------------------------------------------------------------

int HistogramSnapshot::bucketOf(int64_t ns) {
  if (ns < 8) return ns < 0 ? 0 : static_cast<int>(ns);
  int oct = 63;
  while (!((static_cast<uint64_t>(ns) >> oct) & 1)) --oct;
  if (oct >= kMaxOctave) return kBuckets - 1;
  int sub = static_cast<int>((ns >> (oct - 3)) & 7);
  return kSubBuckets * (oct - 2) + sub;
}

int64_t HistogramSnapshot::bucketLowerNs(int idx) {
  if (idx < kSubBuckets) return idx;
  int oct = idx / kSubBuckets + 2;
  int sub = idx % kSubBuckets;
  return static_cast<int64_t>(kSubBuckets + sub) << (oct - 3);
}

int64_t HistogramSnapshot::bucketUpperNs(int idx) {
  return idx + 1 < kBuckets ? bucketLowerNs(idx + 1)
                            : static_cast<int64_t>(1) << (kMaxOctave + 1);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sumNs += other.sumNs;
  maxNs = std::max(maxNs, other.maxNs);
}

std::pair<double, double> HistogramSnapshot::percentileBounds(double p) const {
  if (count == 0) return {0, 0};
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      double lo = static_cast<double>(bucketLowerNs(i)) / 1e6;
      double hi = static_cast<double>(bucketUpperNs(i)) / 1e6;
      // No sample in the bucket exceeds the exact observed max.
      hi = std::min(hi, maxMs());
      return {std::min(lo, hi), hi};
    }
  }
  return {maxMs(), maxMs()};  // unreachable; belt
}

double HistogramSnapshot::percentile(double p) const {
  return percentileBounds(p).second;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

void LatencyHistogram::record(double ms) {
  int64_t ns = ms > 0 ? static_cast<int64_t>(std::llround(ms * 1e6)) : 0;
  buckets_[HistogramSnapshot::bucketOf(ns)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sumNs_.fetch_add(ns, std::memory_order_relaxed);
  int64_t seen = maxNs_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !maxNs_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot s;
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sumNs = sumNs_.load(std::memory_order_relaxed);
  s.maxNs = maxNs_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

namespace {

/// Merge `other` into the sorted-by-name vector `into`, combining values
/// for shared names with `combine`. Preserves sortedness.
template <typename T, typename Combine>
void mergeSorted(std::vector<std::pair<std::string, T>>& into,
                 const std::vector<std::pair<std::string, T>>& other,
                 Combine combine) {
  for (const auto& [name, value] : other) {
    auto it = std::lower_bound(
        into.begin(), into.end(), name,
        [](const auto& a, const std::string& b) { return a.first < b; });
    if (it != into.end() && it->first == name)
      combine(it->second, value);
    else
      into.insert(it, {name, value});
  }
}

std::string fmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'.
std::string promName(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
  return out;
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  mergeSorted(counters, other.counters,
              [](int64_t& a, int64_t b) { a += b; });
  mergeSorted(gauges, other.gauges, [](int64_t& a, int64_t b) { a += b; });
  mergeSorted(histograms, other.histograms,
              [](HistogramSnapshot& a, const HistogramSnapshot& b) {
                a.merge(b);
              });
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, h] : histograms)
    if (n == name) return &h;
  return nullptr;
}

int64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

std::string MetricsSnapshot::metricsJson() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "" : ", ") << "\"" << json::escape(name) << "\": " << v;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "" : ", ") << "\"" << json::escape(name) << "\": " << v;
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ", ") << "\"" << json::escape(name) << "\": {"
       << "\"count\": " << h.count << ", \"ms_sum\": " << fmtDouble(h.sumMs())
       << ", \"ms_mean\": " << fmtDouble(h.meanMs())
       << ", \"ms_p50\": " << fmtDouble(h.percentile(50))
       << ", \"ms_p90\": " << fmtDouble(h.percentile(90))
       << ", \"ms_p99\": " << fmtDouble(h.percentile(99))
       << ", \"ms_max\": " << fmtDouble(h.maxMs()) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsSnapshot::prometheusText() const {
  std::ostringstream os;
  for (const auto& [name, v] : counters) {
    std::string n = promName(name);
    os << "# TYPE " << n << " counter\n" << n << " " << v << "\n";
  }
  for (const auto& [name, v] : gauges) {
    std::string n = promName(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << v << "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string n = promName(name);
    os << "# TYPE " << n << " histogram\n";
    uint64_t cum = 0;
    for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cum += h.buckets[i];
      os << n << "_bucket{le=\""
         << fmtDouble(static_cast<double>(
                          HistogramSnapshot::bucketUpperNs(i)) /
                      1e6)
         << "\"} " << cum << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << n << "_sum " << fmtDouble(h.sumMs()) << "\n";
    os << n << "_count " << h.count << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TraceCounter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counterIdx_.find(name);
  if (it != counterIdx_.end()) return it->second;
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  counterIdx_.emplace(std::string(name), &counters_.back());
  return &counters_.back();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gaugeIdx_.find(name);
  if (it != gaugeIdx_.end()) return it->second;
  gauges_.emplace_back();
  gauges_.back().name = std::string(name);
  gaugeIdx_.emplace(std::string(name), &gauges_.back());
  return &gauges_.back();
}

LatencyHistogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogramIdx_.find(name);
  if (it != histogramIdx_.end()) return it->second;
  histograms_.emplace_back();
  histograms_.back().name = std::string(name);
  histogramIdx_.emplace(std::string(name), &histograms_.back());
  return &histograms_.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counterIdx_)
    s.counters.emplace_back(name, c->get());
  for (const auto& [name, g] : gaugeIdx_) s.gauges.emplace_back(name, g->get());
  for (const auto& [name, h] : histogramIdx_)
    s.histograms.emplace_back(name, h->snapshot());
  return s;
}

// ---------------------------------------------------------------------------
// LatencySamples
// ---------------------------------------------------------------------------

double LatencySamples::percentile(double p) const {
  if (samples_.empty()) return 0;
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0) return sorted.front();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double LatencySamples::mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

}  // namespace record

// perfbench: the RECORD path measured end to end and layer by layer.
//
//   perfbench --workload compile_stream|sim_long|service_open --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Every workload is seeded, measures for S seconds, checks every output
// against the ir golden interpreter and prints one JSON object as its last
// line: {"correct", "attempted", "failed", "metrics", "exact"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer (one id per item) and the
// metrics are the per-layer ones. "exact" holds the deterministic values
// that must repeat for a seed; perfbench/run.py checks them across runs.
// perfbench/README.md documents the workloads and every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "ir/interp.h"
#include "server/compileservice.h"
#include "sim/machine.h"
#include "support/diag.h"
#include "target/encode.h"
#include "trace/metrics.h"

using namespace record;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fixed latency limit of service_open's slo_ratio (and reported for the
// closed loops too): about four times the service's p99 at 2000 req/s.
constexpr double kSloMs = 5.0;

// ---------------------------------------------------------------------------
// Seeded randomness (splitmix64: same seed, same inputs, everywhere)
// ---------------------------------------------------------------------------

struct Rng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

struct GeoMean {
  double logSum = 0;
  int64_t n = 0;
  void add(double x) {
    logSum += std::log(std::max(x, 1e-9));
    ++n;
  }
  double value() const { return n ? std::exp(logSum / n) : 0; }
};

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the peak of the image that exec'd us,
/// e.g. the Python interpreter running run.py.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from this file around each call into a layer
// ---------------------------------------------------------------------------

enum class Layer : uint8_t {
  Item,     // one workload item (parent of the spans below)
  Parse,    // dfl::parseDfl
  Compile,  // RecordCompiler construction + compile
  Encode,   // encode
  Decode,   // Machine constructor (decode + superblock formation)
  SimIo,    // Machine reset / writeSymbol / readSymbol
  SimRun,   // Machine::run
  Interp,   // ir golden interpreter
  Submit,   // CompileService::submit
  Wait,     // Ticket::wait
};
constexpr int kLayers = 10;
const char* const kLayerNames[kLayers] = {
    "item",    "dfl.parse", "codegen.compile", "target.encode", "sim.decode",
    "sim.io",  "sim.run",   "ir.interp",       "server.submit", "server.wait"};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, Layer l, uint64_t item)
        : t_(t.on_ ? &t : nullptr), l_(l), item_(item),
          start_(t_ ? nowNs() : 0) {}
    ~Scope() {
      if (t_) t_->record(l_, item_, start_, nowNs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    Layer l_;
    uint64_t item_;
    int64_t start_;
  };

  void setInWindow(bool in) { inWindow_ = in; }

  void record(Layer l, uint64_t item, int64_t start, int64_t end) {
    auto& L = layers_[static_cast<int>(l)];
    const int64_t d = end - start;
    L.us.record(static_cast<double>(d) / 1e3);
    if (inWindow_) {
      L.windowNs += d;
      ++windowSpans_;
    }
    if (kept_.size() < kKeptSpans) kept_.push_back({item, start, end, l});
  }

  /// Span durations of one layer, in microseconds.
  const LatencySamples& us(Layer l) const {
    return layers_[static_cast<int>(l)].us;
  }
  double percentileUs(Layer l, double p) const { return us(l).percentile(p); }
  double totalNs(Layer l) const {
    return us(l).mean() * static_cast<double>(us(l).count()) * 1e3;
  }
  int64_t windowNs(Layer l) const {
    return layers_[static_cast<int>(l)].windowNs;
  }
  bool on() const { return on_; }
  int64_t windowSpans() const { return windowSpans_; }

  /// Chrome trace_event JSON of the first kKeptSpans spans (tid = item id).
  void write(const std::string& path) const {
    int64_t origin = INT64_MAX;  // spans are kept in end order
    for (const Span& s : kept_) origin = std::min(origin, s.start);
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      char line[192];
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f}",
                    i ? ",\n" : "", kLayerNames[static_cast<int>(s.layer)],
                    static_cast<unsigned long long>(s.item),
                    static_cast<double>(s.start - origin) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3);
      out << line;
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    uint64_t item;
    int64_t start, end;
    Layer layer;
  };
  struct PerLayer {
    LatencySamples us;
    int64_t windowNs = 0;
  };
  static constexpr size_t kKeptSpans = 50000;

  bool on_;
  bool inWindow_ = false;
  int64_t windowSpans_ = 0;
  PerLayer layers_[kLayers];
  std::vector<Span> kept_;
};

/// Mean cost of recording one span, for the traced run's overhead estimate.
double spanCostNs() {
  Tracer t(true);
  constexpr int kN = 200000;
  int64_t t0 = nowNs();
  for (int i = 0; i < kN; ++i) Tracer::Scope s(t, Layer::Item, i);
  return static_cast<double>(nowNs() - t0) / kN;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few failures, for stderr
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;
  std::vector<std::pair<std::string, double>> exact;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void endToEnd(std::string n, double v, std::string unit) {
    e2e.push_back({std::move(n), {v, std::move(unit)}});
  }
  void perLayer(std::string n, double v, std::string unit) {
    layer.push_back({std::move(n), {v, std::move(unit)}});
  }
  /// A deterministic value: reported as a metric AND recorded as exact.
  void exactMetric(bool endToEndMetric, const std::string& n, double v,
                   const std::string& unit) {
    if (endToEndMetric)
      endToEnd(n, v, unit);
    else
      perLayer(n, v, unit);
    exact.push_back({n, v});
  }
};

void printJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

void printResult(const Result& r, bool trace) {
  for (const auto& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const auto& ms = trace ? r.layer : r.e2e;
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", ms[i].first.c_str());
    printJsonNumber(ms[i].second.first);
    std::printf(", \"unit\": \"%s\"}", ms[i].second.second.c_str());
  }
  std::printf("}, \"exact\": {");
  for (size_t i = 0; i < r.exact.size(); ++i) {
    std::printf("%s\"%s\": ", i ? ", " : "", r.exact[i].first.c_str());
    printJsonNumber(r.exact[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Calls into the layers
// ---------------------------------------------------------------------------

CodegenOptions benchOptions() {
  CodegenOptions opt = recordOptions();
  opt.searchThreads = 1;  // one compile stays on its own thread
  return opt;
}

/// Compile-layer counters. Timings cover every compile of a traced run (an
/// untraced run keeps none, so its memory does not grow with its length);
/// the counters cover only the workload's deterministic set of compiles.
struct CompileAgg {
  explicit CompileAgg(const Tracer& tr) : keepTimes(tr.on()) {}

  bool keepTimes;
  LatencySamples usRewrite, usSearch, usReduce, usLate;
  int64_t variantsTried = 0, internHits = 0, variantsPruned = 0;
  int64_t memoHits = 0, memoMisses = 0, rejections = 0;
  GeoMean words;
  int64_t attempted = 0, accepted = 0;

  void time(const CompileStats& s) {
    if (!keepTimes) return;
    usRewrite.record(s.msRewrite * 1e3);
    usSearch.record(s.msSearch * 1e3);
    usReduce.record(s.msReduce * 1e3);
    usLate.record(s.msLate * 1e3);
  }
  void count(const CompileStats* s) {  // null = capability rejection
    ++attempted;
    if (!s) {
      ++rejections;
      return;
    }
    ++accepted;
    words.add(s->sizeWords);
    variantsTried += s->variantsTried;
    internHits += s->internHits;
    variantsPruned += s->variantsPruned;
    memoHits += s->memoHits;
    memoMisses += s->memoMisses;
  }
};

/// Parse DFL; generated and built-in sources always parse.
Program parse(const std::string& src, Tracer& tr, uint64_t id) {
  Tracer::Scope s(tr, Layer::Parse, id);
  DiagEngine diag;
  auto prog = dfl::parseDfl(src, diag);
  if (!prog) throw std::logic_error("DFL failed to parse: " + diag.str());
  return std::move(*prog);
}

/// Cold compile with a fresh RecordCompiler, as a recordc user compiles.
/// Returns nullopt on a capability rejection (std::runtime_error).
std::optional<CompileResult> compileCold(const Program& prog,
                                         const TargetConfig& cfg,
                                         Tracer& tr, uint64_t id) {
  Tracer::Scope s(tr, Layer::Compile, id);
  try {
    RecordCompiler rc(cfg, benchOptions());
    return rc.compile(prog);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

bool encodes(const TargetProgram& tp, Tracer& tr, uint64_t id) {
  Tracer::Scope s(tr, Layer::Encode, id);
  return encode(tp).has_value();
}

/// FNV-1a over everything that defines a compiled program: its listing,
/// data layout and data image. Equal digests mean equal programs.
uint64_t digest(const TargetProgram& tp) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
    h = (h ^ 0xff) * 0x100000001b3ull;
  };
  mix(tp.listing());
  for (const auto& [sym, addr] : tp.symbolAddr) mix(sym + "@" + std::to_string(addr));
  for (const auto& [addr, val] : tp.dataInit)
    mix(std::to_string(addr) + "=" + std::to_string(val));
  return h;
}

struct OutSym {
  std::string name;
  int words;
  bool array;
};

std::vector<OutSym> outputsOf(const Program& prog) {
  std::vector<OutSym> outs;
  for (const auto& sym : prog.symbols.all())
    if (sym->kind == SymKind::Output)
      outs.push_back({sym->name, sym->isArray() ? sym->arraySize : 1,
                      sym->isArray()});
  return outs;
}

/// Golden per-tick outputs of `prog` on `stim`, flattened in `outs` order.
std::vector<std::vector<int64_t>> golden(const Program& prog,
                                         const Stimulus& stim,
                                         const std::vector<OutSym>& outs,
                                         Tracer& tr, uint64_t id) {
  Tracer::Scope s(tr, Layer::Interp, id);
  Interp gold(prog);
  for (const auto& [name, vals] : stim.arrays) gold.setArray(name, vals);
  for (const auto& [name, vals] : stim.scalars) gold.setStream(name, vals);
  std::vector<std::vector<int64_t>> rows;
  for (int t = 0; t < stim.ticks; ++t) {
    gold.run(1);
    std::vector<int64_t> row;
    for (const auto& o : outs) {
      if (o.array) {
        auto a = gold.array(o.name);
        row.insert(row.end(), a.begin(), a.begin() + o.words);
      } else {
        row.push_back(gold.scalar(o.name));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Simulator counters: `allInstructions` over every run, the rest over the
/// workload's deterministic set of runs.
struct SimAgg {
  int64_t allInstructions = 0;
  int64_t cycles = 0, instructions = 0;
  int64_t blockInstructions = 0, blocksFormed = 0, deopts = 0;
  GeoMean cyclesPerTick;

  void addStats(const TranslateStats& ts) {
    blockInstructions += ts.blockInstructions;
    blocksFormed += ts.rptBlocks + ts.loopBlocks + ts.entryBlocks;
    deopts += ts.deopts;
  }
};

/// Read every output after a tick and compare with the golden row.
std::string compareOutputs(const Machine& m, const std::vector<OutSym>& outs,
                           const std::vector<int64_t>& want, int tick) {
  size_t k = 0;
  for (const auto& o : outs)
    for (int i = 0; i < o.words; ++i, ++k) {
      int64_t got = m.readSymbol(o.name, i);
      if (got != want[k])
        return "tick " + std::to_string(tick) + ": " + o.name + "[" +
               std::to_string(i) + "] = " + std::to_string(got) +
               ", golden model says " + std::to_string(want[k]);
    }
  return "";
}

/// Simulate `tp` on `stim` tick by tick against the golden interpreter
/// (the runAndCompare protocol, with a span around each layer call).
/// Returns "" on agreement, else the first mismatch.
std::string simulateAndCompare(const Program& prog, const TargetProgram& tp,
                               const Stimulus& stim, Tracer& tr, uint64_t id,
                               SimAgg& agg, bool exact) {
  const auto outs = outputsOf(prog);
  const auto want = golden(prog, stim, outs, tr, id);
  std::optional<Machine> m;
  {
    Tracer::Scope s(tr, Layer::Decode, id);
    m.emplace(tp);
  }
  {
    Tracer::Scope s(tr, Layer::SimIo, id);
    for (const auto& [name, vals] : stim.arrays) {
      if (tp.addrOf(name) < 0) return "target program lacks symbol " + name;
      for (size_t i = 0; i < vals.size(); ++i)
        m->writeSymbol(name, static_cast<int>(i), vals[i]);
    }
  }
  int64_t cycles = 0, insns = 0;
  for (int t = 0; t < stim.ticks; ++t) {
    {
      Tracer::Scope s(tr, Layer::SimIo, id);
      for (const auto& [name, vals] : stim.scalars)
        m->writeSymbol(name, 0,
                       vals[std::min<size_t>(static_cast<size_t>(t),
                                             vals.size() - 1)]);
    }
    RunResult rr;
    {
      Tracer::Scope s(tr, Layer::SimRun, id);
      rr = m->run();
    }
    if (rr.status != RunStatus::Halted)
      return "tick " + std::to_string(t) + ": simulator did not halt (" +
             runStatusName(rr.status) + ": " + rr.trapReason + ")";
    cycles += rr.cycles;
    insns += rr.instructions;
    Tracer::Scope s(tr, Layer::SimIo, id);
    std::string diff = compareOutputs(*m, outs, want[static_cast<size_t>(t)], t);
    if (!diff.empty()) return diff;
    m->reset(false);
  }
  agg.allInstructions += insns;
  if (exact) {
    agg.cycles += cycles;
    agg.instructions += insns;
    agg.cyclesPerTick.add(static_cast<double>(cycles) / stim.ticks);
    agg.addStats(m->translateStats());
  }
  return "";
}

server::ServiceOptions serviceOptions() {
  // The service's workers plus the calling thread stay within the machine.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  server::ServiceOptions so;
  so.workers = std::clamp(cores - 1, 1, 3);
  return so;
}

/// Per-layer service metrics: exact counts from stats(), exact phase
/// percentiles over the responses that paid a compile, each cross-checked
/// against the bracket of the service's own metricsSnapshot() histogram.
void serverMetrics(const server::CompileService& svc,
                   const std::vector<server::CompileResponse>& resps,
                   Result& res) {
  const server::ServiceStats st = svc.stats();
  const MetricsSnapshot snap = svc.metricsSnapshot();
  res.perLayer("server.served_without_compile_ratio",
               st.requests ? static_cast<double>(st.servedWithoutCompile()) /
                                 st.requests
                           : 0,
               "ratio");
  res.exactMetric(false, "server.compiles", static_cast<double>(st.misses),
                  "count");
  res.exactMetric(false, "server.rejections",
                  static_cast<double>(st.rejections), "count");
  res.perLayer("server.evictions", static_cast<double>(st.evictions), "count");
  res.perLayer("server.jobs_per_batch",
               st.batches ? static_cast<double>(st.misses) / st.batches : 0,
               "count");
  res.exactMetric(false, "server.cache_bytes",
                  static_cast<double>(st.cacheBytes), "bytes");

  struct PhaseMetric {
    const char* name;
    server::Phase phase;
    double p;
  };
  const PhaseMetric phases[] = {
      {"server.queue_wait_ms_p99", server::Phase::QueueWait, 99},
      {"server.batch_assembly_ms_p99", server::Phase::BatchAssembly, 99},
      {"server.compile_ms_p50", server::Phase::Compile, 50},
      {"server.compile_ms_p99", server::Phase::Compile, 99},
  };
  for (const auto& pm : phases) {
    LatencySamples v;
    for (const auto& r : resps)
      if (r.outcome == server::Outcome::Miss ||
          r.outcome == server::Outcome::Rejected)
        v.record(r.phases[pm.phase]);
    const double exactMs = v.percentile(pm.p);
    HistogramSnapshot h;
    for (const char* o : {"miss", "rejected"}) {
      std::string key = std::string("server.phase.") +
                        server::phaseName(pm.phase) + "." + o;
      if (const HistogramSnapshot* hs = snap.histogram(key)) h.merge(*hs);
    }
    auto [lo, hi] = h.percentileBounds(pm.p);
    if (h.count != v.count() || exactMs < lo - 1e-6 || exactMs > hi + 1e-6)
      res.fail(std::string(pm.name) + ": exact " + std::to_string(exactMs) +
               " ms over " + std::to_string(v.count()) +
               " responses outside the service histogram's [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "] over " +
               std::to_string(h.count));
    res.perLayer(pm.name, exactMs, "ms");
  }
}

/// The per-layer metrics every workload reports from its spans.
void spanMetrics(const Tracer& tr, int64_t windowNs, Result& res) {
  const double win = static_cast<double>(std::max<int64_t>(windowNs, 1));
  auto share = [&](Layer l) { return tr.windowNs(l) / win; };
  res.perLayer("dfl.parse_us_p50", tr.percentileUs(Layer::Parse, 50), "us");
  res.perLayer("dfl.busy_share", share(Layer::Parse), "ratio");
  res.perLayer("codegen.compile_us_p50", tr.percentileUs(Layer::Compile, 50),
               "us");
  res.perLayer("codegen.compile_us_p99", tr.percentileUs(Layer::Compile, 99),
               "us");
  res.perLayer("codegen.busy_share", share(Layer::Compile), "ratio");
  res.perLayer("target.encode_us_p50", tr.percentileUs(Layer::Encode, 50),
               "us");
  res.perLayer("ir.interp_us_p50", tr.percentileUs(Layer::Interp, 50), "us");
  res.perLayer("ir.busy_share", share(Layer::Interp), "ratio");
  res.perLayer("sim.decode_us", tr.percentileUs(Layer::Decode, 50), "us");
  res.perLayer("sim.run_us_p50", tr.percentileUs(Layer::SimRun, 50), "us");
  res.perLayer("sim.busy_share",
               share(Layer::SimRun) + share(Layer::SimIo) +
                   share(Layer::Decode),
               "ratio");
  const double runs = static_cast<double>(tr.us(Layer::SimRun).count());
  res.perLayer("sim.io_us", runs ? tr.totalNs(Layer::SimIo) / runs / 1e3 : 0,
               "us");
  res.perLayer("server.submit_us_p50", tr.percentileUs(Layer::Submit, 50),
               "us");
  res.perLayer("server.submit_us_p99", tr.percentileUs(Layer::Submit, 99),
               "us");
}

void compileMetrics(const CompileAgg& c, Result& res) {
  res.exactMetric(false, "codegen.rejections",
                  static_cast<double>(c.rejections), "count");
  res.exactMetric(false, "rewrite.variants_tried",
                  static_cast<double>(c.variantsTried), "count");
  res.exactMetric(false, "rewrite.intern_hits",
                  static_cast<double>(c.internHits), "count");
  res.perLayer("rewrite.us", c.usRewrite.percentile(50), "us");
  res.perLayer("isel.search_us", c.usSearch.percentile(50), "us");
  res.perLayer("isel.reduce_us", c.usReduce.percentile(50), "us");
  const double memo = static_cast<double>(c.memoHits + c.memoMisses);
  res.exactMetric(false, "isel.memo_hit_ratio", memo ? c.memoHits / memo : 0,
                  "ratio");
  res.exactMetric(false, "isel.variants_pruned",
                  static_cast<double>(c.variantsPruned), "count");
  res.perLayer("opt.late_us", c.usLate.percentile(50), "us");
}

void simMetrics(const SimAgg& s, Result& res) {
  res.exactMetric(false, "sim.instructions",
                  static_cast<double>(s.instructions), "count");
  res.exactMetric(false, "sim.cycles", static_cast<double>(s.cycles), "count");
  res.exactMetric(false, "sim.block_insn_share",
                  s.instructions ? static_cast<double>(s.blockInstructions) /
                                       s.instructions
                                 : 0,
                  "ratio");
  res.exactMetric(false, "sim.blocks_formed",
                  static_cast<double>(s.blocksFormed), "count");
  res.exactMetric(false, "sim.deopts", static_cast<double>(s.deopts), "count");
}

/// Per-item timings, folded into consecutive 0.5 s windows of item starts
/// (closed loop) or due times (open loop) as the items arrive, so memory
/// stays flat however long the run.
///
/// Percentiles are taken per window and the median over the windows is
/// reported: every window holds at least 1000 items (so its p99 has at
/// least ten samples beyond it), and a stall of the host that hits a
/// minority of the windows does not move the result, while a slower program
/// moves every window. The last window is dropped when the run ends inside
/// it, unless it is the only one.
class Windows {
 public:
  explicit Windows(int64_t t0) : t0_(t0) {}

  /// Item that started (or was due) at `startNs`, took `latNs`, started
  /// `lateNs` late, and failed when `bad` (a failed item misses the latency
  /// limit whatever its time). Items arrive in start order.
  void add(int64_t startNs, int64_t latNs, int64_t lateNs, bool bad) {
    while (startNs >= t0_ + (static_cast<int64_t>(closed_.size()) + 1) * kNs)
      close();
    const double ms = static_cast<double>(latNs) / 1e6;
    const double lateMs = static_cast<double>(lateNs) / 1e6;
    lat_.record(ms);
    late_.record(lateMs);
    ++items_;
    if (ms <= kSloMs && !bad) ++within_;
    maxLatMs_ = std::max(maxLatMs_, ms);
    maxLateMs_ = std::max(maxLateMs_, lateMs);
  }

  /// Close the last window if the run outlasted it (or no window closed).
  void finish(int64_t tEnd) {
    if (closed_.empty() ||
        tEnd >= t0_ + (static_cast<int64_t>(closed_.size()) + 1) * kNs)
      close();
  }

  int64_t items() const { return items_; }

  /// items_per_s for a closed loop: the median window throughput.
  double medianRate() const { return median(&Window::rate); }

  void report(double itemsPerS, Result& res) const {
    size_t fewest = SIZE_MAX;
    for (const auto& w : closed_) fewest = std::min(fewest, w.items);
    res.endToEnd("items_per_s", itemsPerS, "1/s");
    res.endToEnd("latency_ms_p50", median(&Window::p50), "ms");
    res.endToEnd("latency_ms_p99", median(&Window::p99), "ms");
    res.endToEnd("slo_ratio",
                 static_cast<double>(within_) / std::max<int64_t>(items_, 1),
                 "ratio");
    res.perLayer("load.lateness_ms_p99", median(&Window::lateP99),
                 "ms");
    res.perLayer("load.lateness_ms_max", maxLateMs_, "ms");
    std::printf("latency: %lld samples, %zu windows of 0.5 s with at least "
                "%zu each; max %.4f ms\n",
                static_cast<long long>(items_), closed_.size(), fewest,
                maxLatMs_);
  }

 private:
  static constexpr int64_t kNs = 500'000'000;
  struct Window {
    size_t items;
    double rate, p50, p99, lateP99;
  };

  void close() {
    closed_.push_back({lat_.count(),
                       static_cast<double>(lat_.count()) / (kNs / 1e9),
                       lat_.percentile(50), lat_.percentile(99),
                       late_.percentile(99)});
    lat_ = {};
    late_ = {};
  }
  /// Median of one per-window value over the windows that saw items.
  double median(double Window::*f) const {
    LatencySamples v;
    for (const auto& w : closed_)
      if (w.items) v.record(w.*f);
    return v.percentile(50);
  }

  int64_t t0_;
  LatencySamples lat_, late_;  // the open window's items, in ms
  std::vector<Window> closed_;
  int64_t items_ = 0, within_ = 0;
  double maxLatMs_ = 0, maxLateMs_ = 0;
};

/// Post-window check shared by the closed loops: serve the workload's
/// programs through a CompileService, twice each (the second pass hits the
/// cache), and require every served program to equal its direct compile.
struct ServiceCase {
  std::string source;
  TargetConfig cfg;
  std::optional<uint64_t> direct;  // digest; none: the direct compile was
                                   // rejected
};

void checkThroughService(const std::vector<ServiceCase>& cases, Tracer& tr,
                         uint64_t& nextId, Result& res) {
  server::CompileService svc(serviceOptions());
  const uint64_t firstId = nextId;
  std::vector<server::Ticket> tickets;
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& c : cases) {
      Tracer::Scope s(tr, Layer::Submit, nextId++);
      tickets.push_back(svc.submit({c.source, c.cfg, benchOptions()}));
    }
  std::vector<server::CompileResponse> resps;
  for (size_t i = 0; i < tickets.size(); ++i) {
    Tracer::Scope s(tr, Layer::Wait, firstId + i);
    resps.push_back(tickets[i].wait());
  }
  for (size_t i = 0; i < resps.size(); ++i) {
    const ServiceCase& c = cases[i % cases.size()];
    const auto& r = resps[i];
    if (c.direct ? !r.prog || digest(*r.prog) != *c.direct : r.prog != nullptr)
      res.fail("service and direct compile disagree on request " +
               std::to_string(i) + (r.ok() ? "" : ": " + r.error));
  }
  serverMetrics(svc, resps, res);
}

/// Median wall time of `reps` runs of `setup`, in seconds.
template <class F>
double medianSetupS(int reps, F&& setup) {
  LatencySamples s;
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = nowNs();
    setup();
    s.record(static_cast<double>(nowNs() - t0) / 1e9);
  }
  return s.percentile(50);
}

/// Time base of a closed loop that samples its set-up across the run. The
/// real set-up is timed before the first item; the same set-up work is then
/// repeated between items every `everyNs` of loop time, and the time a
/// repetition takes is cut out of the loop's timeline, so the items see one
/// continuous run. setup_s is the median of all the samples: taken across
/// the run, they see the same machine conditions as the items, where a
/// burst before the first item would catch a single moment of a host whose
/// speed drifts over seconds.
class SetupClock {
 public:
  explicit SetupClock(int64_t everyNs) : everyNs_(everyNs) {}

  /// Loop time: wall time minus the repetitions taken inside the loop.
  int64_t now() const { return nowNs() - pausedNs_; }

  /// Time one run of `setup`.
  template <class F>
  void sample(F&& setup) {
    const int64_t t = nowNs();
    setup();
    const int64_t d = nowNs() - t;
    samples_.record(static_cast<double>(d) / 1e9);
    pausedNs_ += d;
  }

  /// Between items: repeat the set-up when the interval has passed. Its
  /// spans do not count as window work.
  template <class F>
  void between(Tracer& tr, F&& setup) {
    if (next_ == 0) next_ = now() + everyNs_;
    if (now() < next_) return;
    tr.setInWindow(false);
    sample(setup);
    tr.setInWindow(true);
    next_ += everyNs_;
  }

  double medianS() const { return samples_.percentile(50); }

 private:
  int64_t everyNs_;
  int64_t pausedNs_ = 0;
  int64_t next_ = 0;
  LatencySamples samples_;  // seconds
};

/// Every per-layer metric except the server's and the load's.
void layerMetrics(const Tracer& tr, const CompileAgg& comp, const SimAgg& sim,
                  int64_t items, int64_t windowNs, Result& res) {
  spanMetrics(tr, windowNs, res);
  compileMetrics(comp, res);
  res.perLayer("sim.insn_per_s",
               static_cast<double>(sim.allInstructions) /
                   std::max(tr.totalNs(Layer::SimRun), 1.0) * 1e9,
               "insn/s");
  simMetrics(sim, res);
  res.perLayer("trace.items_per_s",
               static_cast<double>(items) / (windowNs / 1e9), "1/s");
  res.perLayer("trace.overhead_share",
               tr.windowSpans() * spanCostNs() / std::max<int64_t>(windowNs, 1),
               "ratio");
}

// ---------------------------------------------------------------------------
// compile_stream: cold compiles in a closed loop on one thread
// ---------------------------------------------------------------------------
//
// Items: the ten DSPStone kernels x the nine-config difftest sweep, then
// seeded difftest::generateProgram programs, each on a seeded sweep
// config. An item is parse -> fresh RecordCompiler -> compile -> encode ->
// simulate its ticks -> compare with the golden interpreter. The first
// kStreamExact items are the deterministic set (always completed).

constexpr int kStreamPool = 8192;     // generated programs per run
constexpr int64_t kStreamSetupEveryNs = 500'000'000;
constexpr int kStreamExact = 90 + 6000;

struct StreamItem {
  std::string source;
  TargetConfig cfg;
  Stimulus stim;
};

std::vector<StreamItem> streamInputs(uint64_t seed) {
  const auto sweep = difftest::defaultSweep();
  std::vector<StreamItem> items;
  for (const auto& k : dspstoneKernels())
    for (const auto& pt : sweep) {
      Program p = dfl::parseDflOrDie(k.dfl);
      items.push_back({k.dfl, pt.cfg,
                       difftest::makeStimulus(p, seed ^ items.size(), k.ticks)});
    }
  Rng rng{seed};
  for (int i = 0; i < kStreamPool; ++i) {
    difftest::ProgSpec spec = difftest::generateProgram(rng.next());
    std::string src = spec.render();
    Program p = dfl::parseDflOrDie(src);
    const auto& cfg = sweep[rng.below(sweep.size())].cfg;
    items.push_back(
        {std::move(src), cfg, difftest::makeStimulus(p, spec.seed, spec.ticks)});
  }
  return items;
}

/// The deterministic end-to-end metrics, then peak memory up to the end of
/// the timed window (the post-window checks are not the workload's).
void codeMetrics(const CompileAgg& comp, const SimAgg& sim, double rssMb,
                 Result& res) {
  res.exactMetric(true, "code_words", comp.words.value(), "words");
  res.exactMetric(true, "code_cycles", sim.cyclesPerTick.value(), "cycles");
  res.exactMetric(true, "accepted_ratio",
                  static_cast<double>(comp.accepted) /
                      std::max<int64_t>(comp.attempted, 1),
                  "ratio");
  res.endToEnd("peak_rss_mb", rssMb, "MB");
}

Result runCompileStream(uint64_t seed, double seconds, Tracer& tr) {
  Result res;
  const auto items = streamInputs(seed);
  const auto sweep = difftest::defaultSweep();

  // Set-up: the per-configuration BURS rule sets, which the first compile
  // on each configuration would otherwise build. It fills the process rule
  // cache; the repetitions bypass the cache so each pays the full build.
  SetupClock clock(kStreamSetupEveryNs);
  clock.sample([&] {
    for (const auto& pt : sweep) RecordCompiler rc(pt.cfg, benchOptions());
  });
  auto setupAgain = [&] {
    CodegenOptions o = benchOptions();
    o.cacheRules = false;
    for (const auto& pt : sweep) RecordCompiler rc(pt.cfg, o);
  };

  CompileAgg comp(tr);
  SimAgg sim;
  std::vector<std::optional<uint64_t>> exactDigests(kStreamExact);
  uint64_t nextId = 0;

  tr.setInWindow(true);
  const int64_t t0 = clock.now();
  const int64_t tEnd = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t prevEnd = t0;
  Windows win(t0);
  for (size_t n = 0;; ++n) {
    clock.between(tr, setupAgain);
    const int64_t start = clock.now();
    if (n >= static_cast<size_t>(kStreamExact) && start >= tEnd) break;
    const int64_t gap = start - prevEnd;
    const StreamItem& it = items[n % items.size()];
    const bool exact = n < static_cast<size_t>(kStreamExact);
    const uint64_t id = nextId++;
    std::string err;
    std::optional<TargetProgram> kept;  // digested once the item is timed
    try {
      Tracer::Scope item(tr, Layer::Item, id);
      Program prog = parse(it.source, tr, id);
      auto cr = compileCold(prog, it.cfg, tr, id);
      if (cr) comp.time(cr->stats);
      if (exact) comp.count(cr ? &cr->stats : nullptr);
      if (cr) {
        if (!encodes(cr->prog, tr, id)) err = "encode failed";
        if (err.empty())
          err = simulateAndCompare(prog, cr->prog, it.stim, tr, id, sim, exact);
        if (exact) kept = std::move(cr->prog);
      }
    } catch (const std::exception& e) {
      err = e.what();
    }
    prevEnd = clock.now();
    win.add(start, prevEnd - start, gap, !err.empty());
    if (!err.empty()) res.fail("item " + std::to_string(n) + ": " + err);
    if (kept) exactDigests[n] = digest(*kept);
  }
  const int64_t windowNs = prevEnd - t0;
  const double rssMb = peakRssMb();
  tr.setInWindow(false);
  win.finish(prevEnd);
  res.attempted = win.items();

  res.endToEnd("setup_s", clock.medianS(), "s");
  std::vector<ServiceCase> cases;
  for (int i = 0; i < kStreamExact; ++i)
    cases.push_back({items[i].source, items[i].cfg, exactDigests[i]});
  checkThroughService(cases, tr, nextId, res);

  // In a closed loop an item is due when the previous one ends, so its
  // lateness is the loop's own time between items.
  win.report(win.medianRate(), res);
  codeMetrics(comp, sim, rssMb, res);
  layerMetrics(tr, comp, sim, win.items(), windowNs, res);
  return res;
}

// ---------------------------------------------------------------------------
// sim_long: long simulations in a closed loop on one thread
// ---------------------------------------------------------------------------
//
// The DSPStone loop kernels with their size constant raised as far as
// 2048 data words allow, compiled, decoded and given golden outputs during
// set-up. The kernels run as streams: a sequence starts from a seeded input
// frame (every input array, plus the var arrays that hold filter state)
// and then runs kSeqTicks ticks, each with fresh scalar inputs, as a DSP
// would run on a sample stream. An item is one tick: reset, write the
// inputs, run, read the outputs, compare with the golden outputs.

struct LongKernel {
  const char* name;
  const char* from;  // the size constant in the kernel's DFL
  const char* to;    // ... raised
};
const LongKernel kLongKernels[] = {
    {"n_real_updates", "const N = 16;", "const N = 480;"},
    {"n_complex_updates", "const N = 16;", "const N = 240;"},
    {"fir", "const N = 16;", "const N = 960;"},
    {"convolution", "const N = 16;", "const N = 960;"},
    {"iir_biquad_n_sections", "const NS = 4;", "const NS = 256;"},
};
constexpr int kFrames = 8;        // input frames per kernel
constexpr int kSeqTicks = 16;     // ticks per sequence
constexpr int kLongOrder = 1024;  // seeded (kernel, frame) sequences
constexpr int kLongExact = 4096;  // ticks in the deterministic set
constexpr int64_t kLongSetupEveryNs = 2'000'000'000;

struct LongInputs {
  std::vector<std::string> sources;
  std::vector<std::vector<Stimulus>> frames;  // [kernel][frame]
  std::vector<std::pair<int, int>> order;     // (kernel, frame) sequences
};

LongInputs longInputs(uint64_t seed) {
  LongInputs in;
  Rng rng{seed};
  auto word = [&rng] { return static_cast<int64_t>(rng.below(65536)) - 32768; };
  for (const auto& lk : kLongKernels) {
    std::string src = kernelByName(lk.name).dfl;
    src.replace(src.find(lk.from), std::strlen(lk.from), lk.to);
    Program p = dfl::parseDflOrDie(src);
    std::vector<Stimulus> frames(kFrames);
    for (auto& st : frames) {
      st.ticks = kSeqTicks;
      for (const auto& sym : p.symbols.all()) {
        if (sym->kind != SymKind::Input &&
            !(sym->kind == SymKind::Var && sym->isArray()))
          continue;
        auto& v = sym->isArray() ? st.arrays[sym->name] : st.scalars[sym->name];
        for (int i = 0; i < (sym->isArray() ? sym->arraySize : kSeqTicks); ++i)
          v.push_back(word());
      }
    }
    in.sources.push_back(std::move(src));
    in.frames.push_back(std::move(frames));
  }
  for (int i = 0; i < kLongOrder; ++i)
    in.order.push_back({static_cast<int>(rng.below(std::size(kLongKernels))),
                        static_cast<int>(rng.below(kFrames))});
  return in;
}

struct LongKernelState {
  Program prog;
  TargetProgram tp;
  std::unique_ptr<Machine> m;  // refers to tp
  std::vector<OutSym> outs;
  std::vector<std::vector<std::vector<int64_t>>> want;  // [frame][tick]
  int64_t exactCycles = 0, exactTicks = 0;  // over the deterministic set
};

Result runSimLong(uint64_t seed, double seconds, Tracer& tr) {
  Result res;
  const LongInputs in = longInputs(seed);
  const TargetConfig cfg;
  uint64_t nextId = 0;
  CompileAgg comp(tr);

  // Set-up: compile, encode, decode and golden outputs for every kernel.
  // The repetitions build the same state and drop it.
  auto build = [&](bool exact) {
    std::vector<std::unique_ptr<LongKernelState>> ks;
    for (size_t k = 0; k < in.sources.size(); ++k) {
      const uint64_t id = nextId++;
      auto st = std::make_unique<LongKernelState>(
          LongKernelState{parse(in.sources[k], tr, id), {}, {}, {}, {}, 0, 0});
      auto cr = compileCold(st->prog, cfg, tr, id);
      if (!cr) throw std::logic_error(in.sources[k] + " rejected");
      comp.time(cr->stats);
      if (exact) comp.count(&cr->stats);
      if (!encodes(cr->prog, tr, id)) throw std::logic_error("encode failed");
      st->tp = std::move(cr->prog);
      {
        Tracer::Scope s(tr, Layer::Decode, id);
        st->m = std::make_unique<Machine>(st->tp);
      }
      st->outs = outputsOf(st->prog);
      for (const auto& fr : in.frames[k])
        st->want.push_back(golden(st->prog, fr, st->outs, tr, id));
      ks.push_back(std::move(st));
    }
    return ks;
  };
  SetupClock clock(kLongSetupEveryNs);
  std::vector<std::unique_ptr<LongKernelState>> ks;
  clock.sample([&] { ks = build(true); });
  auto setupAgain = [&] { build(false); };

  SimAgg sim;
  tr.setInWindow(true);
  const int64_t t0 = clock.now();
  const int64_t tEnd = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t prevEnd = t0;
  Windows win(t0);
  for (size_t n = 0;; ++n) {
    clock.between(tr, setupAgain);
    const int64_t start = clock.now();
    if (n >= static_cast<size_t>(kLongExact) && start >= tEnd) break;
    const int64_t gap = start - prevEnd;
    const auto [k, f] = in.order[n / kSeqTicks % in.order.size()];
    const int t = static_cast<int>(n % kSeqTicks);
    LongKernelState& st = *ks[static_cast<size_t>(k)];
    const Stimulus& fr = in.frames[static_cast<size_t>(k)][static_cast<size_t>(f)];
    const uint64_t id = nextId++;
    std::string err;
    {
      Tracer::Scope item(tr, Layer::Item, id);
      {
        Tracer::Scope s(tr, Layer::SimIo, id);
        st.m->reset(t == 0);  // a new sequence starts from a clean memory
        if (t == 0)
          for (const auto& [name, vals] : fr.arrays)
            for (size_t i = 0; i < vals.size(); ++i)
              st.m->writeSymbol(name, static_cast<int>(i), vals[i]);
        for (const auto& [name, vals] : fr.scalars)
          st.m->writeSymbol(name, 0, vals[static_cast<size_t>(t)]);
      }
      RunResult rr;
      {
        Tracer::Scope s(tr, Layer::SimRun, id);
        rr = st.m->run();
      }
      if (rr.status != RunStatus::Halted) {
        err = std::string("simulator did not halt: ") + rr.trapReason;
      } else {
        Tracer::Scope s(tr, Layer::SimIo, id);
        err = compareOutputs(
            *st.m, st.outs,
            st.want[static_cast<size_t>(f)][static_cast<size_t>(t)], t);
      }
      sim.allInstructions += rr.instructions;
      if (n < static_cast<size_t>(kLongExact)) {
        sim.cycles += rr.cycles;
        sim.instructions += rr.instructions;
        st.exactCycles += rr.cycles;
        ++st.exactTicks;
      }
      if (n + 1 == static_cast<size_t>(kLongExact))
        for (const auto& ksp : ks) {
          sim.addStats(ksp->m->translateStats());
          // Each kernel counts once, whatever the seeded kernel mix.
          sim.cyclesPerTick.add(static_cast<double>(ksp->exactCycles) /
                                std::max<int64_t>(ksp->exactTicks, 1));
        }
    }
    prevEnd = clock.now();
    win.add(start, prevEnd - start, gap, !err.empty());
    if (!err.empty())
      res.fail(std::string(kLongKernels[k].name) + " frame " +
               std::to_string(f) + ": " + err);
  }
  const int64_t windowNs = prevEnd - t0;
  const double rssMb = peakRssMb();
  tr.setInWindow(false);
  win.finish(prevEnd);
  res.attempted = win.items();

  res.endToEnd("setup_s", clock.medianS(), "s");
  std::vector<ServiceCase> cases;
  for (size_t k = 0; k < ks.size(); ++k)
    cases.push_back({in.sources[k], cfg, digest(ks[k]->tp)});
  checkThroughService(cases, tr, nextId, res);

  // In a closed loop an item is due when the previous one ends, so its
  // lateness is the loop's own time between items.
  win.report(win.medianRate(), res);
  codeMetrics(comp, sim, rssMb, res);
  layerMetrics(tr, comp, sim, win.items(), windowNs, res);
  return res;
}

// ---------------------------------------------------------------------------
// service_open: an open loop against the compile service
// ---------------------------------------------------------------------------
//
// Requests arrive on a fixed schedule of kRate per second whatever the
// service does. kNewShare of them are new seeded generated programs on a
// seeded sweep config; the rest repeat a uniformly chosen earlier request.
// A request's latency runs from its due time to its fulfilment: the
// generator's lateness plus the service's submit-to-fulfilment time.

constexpr double kRate = 2000;
constexpr double kNewShare = 0.3;
constexpr int kServiceSetupReps = 21;

struct OpenProgram {
  std::string source;
  TargetConfig cfg;
  uint64_t seed;
  int ticks;
};

struct OpenInputs {
  std::vector<OpenProgram> programs;
  std::vector<int> stream;  // program index per request
};

OpenInputs openInputs(uint64_t seed, double seconds) {
  const auto sweep = difftest::defaultSweep();
  OpenInputs in;
  Rng rng{seed};
  const int n = static_cast<int>(kRate * seconds);
  for (int i = 0; i < n; ++i) {
    if (in.programs.empty() || rng.unit() < kNewShare) {
      difftest::ProgSpec spec = difftest::generateProgram(rng.next());
      in.programs.push_back({spec.render(),
                             sweep[rng.below(sweep.size())].cfg, spec.seed,
                             spec.ticks});
      in.stream.push_back(static_cast<int>(in.programs.size()) - 1);
    } else {
      in.stream.push_back(static_cast<int>(rng.below(in.programs.size())));
    }
  }
  return in;
}

/// Spin until `due`. A sleeping generator on a virtual machine can wake
/// milliseconds late (its idle vCPU must be rescheduled by the host), which
/// would count as generator lateness in every request's latency.
void waitUntil(int64_t due) {
  while (nowNs() < due) {
  }
}

Result runServiceOpen(uint64_t seed, double seconds, Tracer& tr) {
  Result res;
  const OpenInputs in = openInputs(seed, seconds);
  const size_t n = in.stream.size();

  // Set-up: starting the service (its dispatcher and worker threads).
  std::unique_ptr<server::CompileService> svc;
  res.endToEnd("setup_s", medianSetupS(kServiceSetupReps, [&] {
                 svc.reset();
                 svc = std::make_unique<server::CompileService>(
                     serviceOptions());
               }),
               "s");

  std::vector<server::Ticket> tickets(n);
  std::vector<int64_t> lateNs(n);
  const int64_t period = static_cast<int64_t>(1e9 / kRate);
  tr.setInWindow(true);
  const int64_t t0 = nowNs() + 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    const OpenProgram& p = in.programs[static_cast<size_t>(in.stream[i])];
    server::CompileRequest req{p.source, p.cfg, benchOptions()};
    const int64_t due = t0 + static_cast<int64_t>(i) * period;
    waitUntil(due);
    const int64_t start = nowNs();
    {
      Tracer::Scope s(tr, Layer::Submit, i);
      tickets[i] = svc->submit(std::move(req));
    }
    lateNs[i] = start - due;
  }
  std::vector<server::CompileResponse> resps(n);
  for (size_t i = 0; i < n; ++i) {
    Tracer::Scope s(tr, Layer::Wait, i);
    resps[i] = tickets[i].wait();
  }
  std::vector<int64_t> latNs(n);
  int64_t lastFulfilled = t0;
  for (size_t i = 0; i < n; ++i) {
    latNs[i] = lateNs[i] + static_cast<int64_t>(resps[i].msLatency * 1e6);
    lastFulfilled = std::max(
        lastFulfilled, t0 + static_cast<int64_t>(i) * period + latNs[i]);
  }
  const int64_t windowNs = lastFulfilled - t0;
  const double rssMb = peakRssMb();
  tr.setInWindow(false);
  res.attempted = static_cast<int64_t>(n);

  // A generator that falls behind its schedule measures itself, not the
  // service: a run where more than 1 % of the requests went out over a
  // millisecond late is invalid. (A single late request is a host stall
  // the schedule recovers from; it still counts in the latencies.)
  LatencySamples lateMs;
  for (int64_t l : lateNs) lateMs.record(static_cast<double>(l) / 1e6);
  if (lateMs.percentile(99) > 1.0)
    res.fail("invalid run: the generator fell behind schedule (lateness "
             "p99 " + std::to_string(lateMs.percentile(99)) + " ms)");

  // Every duplicate must receive the same outcome as the program's first
  // request, and every served program must equal a cold direct compile and
  // match the golden interpreter.
  std::vector<char> bad(n, 0);
  std::vector<int> first(in.programs.size(), -1);
  for (size_t i = 0; i < n; ++i) {
    const auto& r = resps[i];
    int& f = first[static_cast<size_t>(in.stream[i])];
    if (r.outcome == server::Outcome::ParseError) {
      bad[i] = 1;
      res.fail("request " + std::to_string(i) + ": " + r.error);
      continue;
    }
    if (f < 0) {
      f = static_cast<int>(i);
    } else {
      const auto& r0 = resps[static_cast<size_t>(f)];
      const bool same = r.prog ? r0.prog && (r.prog == r0.prog ||
                                             digest(*r.prog) == digest(*r0.prog))
                               : !r0.prog && r.error == r0.error;
      if (!same) {
        bad[i] = 1;
        res.fail("request " + std::to_string(i) +
                 " differs from the first response for its program");
      }
    }
  }
  CompileAgg comp(tr);
  SimAgg sim;
  uint64_t nextId = n;
  for (size_t j = 0; j < in.programs.size(); ++j) {
    const OpenProgram& p = in.programs[j];
    if (first[j] < 0) continue;  // every request for it failed to parse
    const size_t i0 = static_cast<size_t>(first[j]);
    const uint64_t id = nextId++;
    std::string err;
    try {
      Program prog = parse(p.source, tr, id);
      auto cr = compileCold(prog, p.cfg, tr, id);
      if (cr) comp.time(cr->stats);
      comp.count(cr ? &cr->stats : nullptr);
      const auto& served = resps[i0].prog;
      if (cr ? !served || digest(*served) != digest(cr->prog)
             : served != nullptr)
        err = "served program differs from a direct compile";
      else if (cr && !encodes(cr->prog, tr, id))
        err = "encode failed";
      else if (cr)
        err = simulateAndCompare(
            prog, cr->prog, difftest::makeStimulus(prog, p.seed, p.ticks), tr,
            id, sim, true);
    } catch (const std::exception& e) {
      err = e.what();
    }
    if (!err.empty()) {
      res.fail("program " + std::to_string(j) + ": " + err);
      for (size_t i = 0; i < n; ++i)
        if (in.stream[i] == static_cast<int>(j)) bad[i] = 1;
    }
  }
  const server::ServiceStats st = svc->stats();
  if (st.requests != static_cast<int64_t>(n) ||
      (st.evictions == 0 &&
       st.misses != static_cast<int64_t>(in.programs.size())))
    res.fail("service stats do not reconcile: " + std::to_string(st.requests) +
             " requests, " + std::to_string(st.misses) + " compiles for " +
             std::to_string(in.programs.size()) + " distinct programs");

  Windows win(t0);
  for (size_t i = 0; i < n; ++i)
    win.add(t0 + static_cast<int64_t>(i) * period, latNs[i], lateNs[i], bad[i]);
  win.finish(t0 + static_cast<int64_t>(n) * period);
  win.report(static_cast<double>(n) / (windowNs / 1e9), res);
  codeMetrics(comp, sim, rssMb, res);
  layerMetrics(tr, comp, sim, static_cast<int64_t>(n), windowNs, res);
  serverMetrics(*svc, resps, res);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spansPath;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = v != "0";
      else if (a == "--spans") spansPath = v;
      else {
        std::fprintf(stderr, "unknown option %s\n", a.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value '%s' for %s\n", v.c_str(), a.c_str());
      return 2;
    }
  }
  Tracer tr(trace);
  Result res;
  try {
    if (workload == "compile_stream") {
      res = runCompileStream(seed, seconds, tr);
    } else if (workload == "sim_long") {
      res = runSimLong(seed, seconds, tr);
    } else if (workload == "service_open") {
      res = runServiceOpen(seed, seconds, tr);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // Set-up failures (a kernel rejected, a generated program that does not
    // parse) leave no run to report.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (trace && !spansPath.empty()) tr.write(spansPath);
  printResult(res, trace);
  return 0;
}

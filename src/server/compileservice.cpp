#include "server/compileservice.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "dfl/frontend.h"
#include "support/diag.h"
#include "support/threadpool.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace record::server {

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The options a request actually compiles with: the service owns tracing,
/// and (by default) pins the per-compile variant search to one thread so
/// parallelism lives across requests, not inside them.
CodegenOptions effectiveOptions(CodegenOptions opt, const ServiceOptions& so) {
  opt.trace = so.trace;
  if (so.sequentialSearch) opt.searchThreads = 1;
  return opt;
}

uint64_t keyOf(const Program& prog, const TargetConfig& cfg,
               const CodegenOptions& effective) {
  // describe() omits dataWords (it parameterises layout, not the datapath
  // description), so hash it explicitly.
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = fnv1a(h, prog.str());
  h = fnv1a(h, cfg.describe());
  char dw[16];
  std::snprintf(dw, sizeof dw, "|%d|", cfg.dataWords);
  h = fnv1a(h, dw);
  h = fnv1a(h, effective.fingerprint());
  return h;
}

std::string leaseKeyOf(const TargetConfig& cfg,
                       const CodegenOptions& effective) {
  char dw[16];
  std::snprintf(dw, sizeof dw, "|%d|", cfg.dataWords);
  return cfg.describe() + dw + effective.fingerprint();
}

}  // namespace

const char* phaseName(Phase p) {
  switch (p) {
    case Phase::Parse: return "parse";
    case Phase::CacheLookup: return "cache_lookup";
    case Phase::QueueWait: return "queue_wait";
    case Phase::BatchAssembly: return "batch_assembly";
    case Phase::Compile: return "compile";
    case Phase::Fulfill: return "fulfill";
  }
  return "?";
}

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Hit: return "hit";
    case Outcome::Coalesced: return "coalesced";
    case Outcome::Miss: return "miss";
    case Outcome::Rejected: return "rejected";
    case Outcome::ParseError: return "parse_error";
  }
  return "?";
}

size_t approxProgramBytes(const TargetProgram& tp) {
  size_t n = sizeof(TargetProgram);
  n += tp.code.capacity() * sizeof(Instr);
  for (const Instr& in : tp.code)
    n += in.label.capacity() + in.targetLabel.capacity();
  for (const auto& [name, addr] : tp.symbolAddr)
    n += sizeof(std::pair<std::string, int>) + name.capacity();
  n += tp.dataInit.capacity() * sizeof(std::pair<int, int16_t>);
  n += tp.sourceName.capacity();
  return n;
}

struct CompileService::Impl {
  // One pending response: the promise plus the lifecycle marks needed to
  // stamp the response's per-phase breakdown at fulfillment.
  struct Waiter {
    std::shared_ptr<std::promise<CompileResponse>> promise;
    uint64_t id = 0;
    Clock::time_point t0;           // submit entry
    Clock::time_point tParsed;      // parse + key derivation done
    Clock::time_point tClassified;  // hit/inflight/miss decided under mu
    bool coalesced = false;
  };

  struct Job {
    uint64_t key = 0;
    std::shared_ptr<const Program> prog;
    TargetConfig cfg;
    CodegenOptions effective;  // trace/searchThreads already applied
    std::string leaseKey;
    // Compile-side marks, shared by every waiter of this key.
    Clock::time_point tDequeued;      // popped off the admission queue
    Clock::time_point tCompileStart;  // runJob entered on a worker
    Clock::time_point tCompileEnd;    // compile returned / threw
    // Cache-off mode only: the one waiter this job fulfills directly
    // (with caching on, waiters live in `inflight` so duplicates coalesce).
    std::vector<Waiter> directWaiters;
  };

  /// A leased compiler plus the programs it compiled: the fast-path arena
  /// keys on Symbol addresses inside those programs, so they must stay
  /// alive until the lease is recycled.
  struct Lease {
    std::unique_ptr<RecordCompiler> compiler;
    std::vector<std::shared_ptr<const Program>> retained;
    int compiles = 0;
  };

  struct CacheEntry {
    std::shared_ptr<const TargetProgram> prog;  // null for negative entries
    std::string error;                          // capability rejection
    size_t bytes = 0;
    std::list<uint64_t>::iterator lruIt;
  };

  explicit Impl(ServiceOptions o)
      : opt(o),
        epoch(Clock::now()),
        workerCount(o.workers > 0
                        ? o.workers
                        : std::max(1u, std::thread::hardware_concurrency())),
        pool(workerCount - 1),
        reg(o.trace ? o.trace->metrics() : ownReg) {
    if (opt.queueDepth < 1) opt.queueDepth = 1;
    if (opt.batchSize < 1) opt.batchSize = 2 * workerCount;
    if (opt.recycleAfter < 1) opt.recycleAfter = 1;
    if (opt.slowTraceLimit < 1) opt.slowTraceLimit = 1;
    // Pre-resolve every metric the hot path records into: counters and
    // gauges back ServiceStats, histograms carry the phase/outcome latency
    // matrix. record() on them is lock-free.
    mRequests = reg.counter("server.requests");
    mParseErrors = reg.counter("server.parse_errors");
    mHits = reg.counter("server.cache_hits");
    mCoalesced = reg.counter("server.coalesced");
    mMisses = reg.counter("server.cache_misses");
    mRejections = reg.counter("server.rejections");
    mEvictions = reg.counter("server.evictions");
    mBatches = reg.counter("server.batches");
    gCacheEntries = reg.gauge("server.cache_entries");
    gCacheBytes = reg.gauge("server.cache_bytes");
    gQueueDepth = reg.gauge("server.queue_depth");
    gInflight = reg.gauge("server.inflight_keys");
    for (int o2 = 0; o2 < kNumOutcomes; ++o2) {
      const char* oname = outcomeName(static_cast<Outcome>(o2));
      latencyHist[o2] =
          reg.histogram(std::string("server.latency.") + oname);
      for (int p = 0; p < kNumPhases; ++p)
        phaseHist[p][o2] = reg.histogram(
            std::string("server.phase.") + phaseName(static_cast<Phase>(p)) +
            "." + oname);
    }
    if (!opt.requestLogPath.empty()) {
      requestLog.open(opt.requestLogPath, std::ios::app);
      if (!requestLog)
        std::fprintf(stderr, "WARNING: cannot open request log %s\n",
                     opt.requestLogPath.c_str());
    }
    dispatcher = std::thread([this] { dispatchLoop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    work.notify_all();
    queueSpace.notify_all();
    dispatcher.join();
  }

  double msSinceEpoch(Clock::time_point t) const {
    return msBetween(epoch, t);
  }

  // ---- telemetry ----------------------------------------------------------

  /// Build and deliver one response: stamp the phase breakdown from the
  /// lifecycle marks (monotone cumulative, so the phases tile submit..now
  /// exactly and msLatency == phases.totalMs()), record the histograms,
  /// capture a slow-request span set, and append the event-log line.
  void fulfill(Waiter& w, uint64_t key, Outcome outcome,
               std::shared_ptr<const TargetProgram> prog, std::string error,
               const Job* job) {
    const Clock::time_point tFulfilled = Clock::now();
    CompileResponse resp;
    resp.prog = std::move(prog);
    resp.error = std::move(error);
    resp.cacheHit = outcome == Outcome::Hit;
    resp.coalesced = outcome == Outcome::Coalesced;
    resp.key = key;
    resp.requestId = w.id;
    resp.outcome = outcome;

    Clock::time_point marks[kNumPhases];
    marks[0] = w.tParsed;
    marks[1] = w.tClassified;
    if (job) {
      marks[2] = job->tDequeued;
      marks[3] = job->tCompileStart;
      marks[4] = job->tCompileEnd;
    } else {
      marks[2] = marks[3] = marks[4] = w.tClassified;
    }
    marks[5] = tFulfilled;
    // A coalesced waiter may have attached after the job was dequeued (or
    // mid-compile); clamping each mark forward keeps every phase >= 0 and
    // the tiling exact.
    Clock::time_point cursor = w.t0;
    for (int p = 0; p < kNumPhases; ++p) {
      if (marks[p] < cursor) marks[p] = cursor;
      resp.phases.ms[p] = msBetween(cursor, marks[p]);
      cursor = marks[p];
    }
    resp.msLatency = resp.phases.totalMs();

    const int oi = static_cast<int>(outcome);
    latencyHist[oi]->record(resp.msLatency);
    if (outcome == Outcome::ParseError) {
      // Parse errors never reach the lookup/queue/compile phases; recording
      // zeros there would break the phase-count == outcome-count contract.
      phaseHist[static_cast<int>(Phase::Parse)][oi]->record(
          resp.phases[Phase::Parse]);
      phaseHist[static_cast<int>(Phase::Fulfill)][oi]->record(
          resp.phases[Phase::Fulfill]);
    } else {
      for (int p = 0; p < kNumPhases; ++p)
        phaseHist[p][oi]->record(resp.phases.ms[p]);
    }

    const bool slow =
        opt.slowRequestMs >= 0 && resp.msLatency >= opt.slowRequestMs;
    if (slow || requestLog.is_open()) {
      std::lock_guard<std::mutex> lock(telemetryMu);
      if (slow) {
        slowRing.push_back(SlowRequest{resp.requestId, resp.key, outcome,
                                       msSinceEpoch(w.t0), resp.phases,
                                       resp.msLatency});
        while (static_cast<int>(slowRing.size()) > opt.slowTraceLimit)
          slowRing.pop_front();
      }
      if (requestLog.is_open()) {
        char head[192];
        std::snprintf(head, sizeof head,
                      "{\"id\": %llu, \"key\": \"%016llx\", \"outcome\": "
                      "\"%s\", \"ok\": %d, \"start_ms\": %.6g, \"ms\": %.6g",
                      (unsigned long long)resp.requestId,
                      (unsigned long long)resp.key, outcomeName(outcome),
                      resp.ok() ? 1 : 0, msSinceEpoch(w.t0), resp.msLatency);
        requestLog << head;
        for (int p = 0; p < kNumPhases; ++p) {
          char field[96];
          std::snprintf(field, sizeof field, ", \"%s_ms\": %.6g",
                        phaseName(static_cast<Phase>(p)), resp.phases.ms[p]);
          requestLog << field;
        }
        requestLog << "}\n";
        requestLog.flush();
      }
    }
    w.promise->set_value(std::move(resp));
  }

  // ---- admission ----------------------------------------------------------

  Ticket submit(CompileRequest req) {
    Waiter w;
    w.t0 = Clock::now();
    w.id = nextRequestId.fetch_add(1, std::memory_order_relaxed);
    w.promise = std::make_shared<std::promise<CompileResponse>>();
    Ticket ticket{w.promise->get_future().share()};

    // Parse and key outside every lock: it is cheap relative to a compile
    // but not free, and a malformed request must never occupy a queue slot.
    DiagEngine diag;
    std::optional<Program> parsed = dfl::parseDfl(req.source, diag);
    w.tParsed = Clock::now();
    CodegenOptions effective = effectiveOptions(req.opt, opt);
    std::shared_ptr<const Program> progPtr;
    uint64_t key = 0;
    if (parsed) {
      progPtr = std::make_shared<const Program>(std::move(*parsed));
      key = keyOf(*progPtr, req.cfg, effective);
    }

    // Every counter stats() reports moves under `mu`, so its view is
    // consistent.
    std::unique_lock<std::mutex> lock(mu);
    mRequests->add();
    if (!progPtr) {
      mParseErrors->add();
      lock.unlock();
      w.tClassified = w.tParsed;
      fulfill(w, key, Outcome::ParseError, nullptr,
              diag.str().empty() ? "parse error" : diag.str(), nullptr);
      return ticket;
    }

    if (opt.cacheBytes > 0) {
      auto it = cache.find(key);
      if (it != cache.end()) {
        // Hit: touch the LRU order and fulfill immediately.
        lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lruIt);
        std::shared_ptr<const TargetProgram> prog = it->second.prog;
        std::string error = it->second.error;
        mHits->add();
        w.tClassified = Clock::now();
        lock.unlock();
        fulfill(w, key, Outcome::Hit, std::move(prog), std::move(error),
                nullptr);
        return ticket;
      }
      auto inIt = inflight.find(key);
      if (inIt != inflight.end()) {
        // Single-flight: attach to the compile already running/queued.
        mCoalesced->add();
        w.tClassified = Clock::now();
        w.coalesced = true;
        inIt->second.push_back(std::move(w));
        return ticket;
      }
    }

    mMisses->add();
    w.tClassified = Clock::now();
    Job job;
    job.key = key;
    job.prog = std::move(progPtr);
    job.cfg = req.cfg;
    job.effective = effective;
    job.leaseKey = leaseKeyOf(req.cfg, effective);
    if (opt.cacheBytes > 0) {
      auto& waiters = inflight[key];
      gInflight->set(static_cast<int64_t>(inflight.size()));
      waiters.push_back(std::move(w));
    } else {
      job.directWaiters.push_back(std::move(w));
    }
    // Backpressure: block while the admission queue is full. `stop` breaks
    // the wait so a destructor racing a late submit cannot hang; the job is
    // still enqueued and drained.
    queueSpace.wait(lock, [this] {
      return stop || static_cast<int>(queue.size()) < opt.queueDepth;
    });
    queue.push_back(std::move(job));
    gQueueDepth->set(static_cast<int64_t>(queue.size()));
    lock.unlock();
    work.notify_one();
    return ticket;
  }

  // ---- dispatch -----------------------------------------------------------

  void dispatchLoop() {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      work.wait(lock, [this] { return stop || !queue.empty(); });
      if (queue.empty()) {
        if (stop) return;
        continue;
      }
      const Clock::time_point tDequeued = Clock::now();
      int n = std::min<int>(opt.batchSize, static_cast<int>(queue.size()));
      std::vector<Job> batch;
      batch.reserve(n);
      for (int i = 0; i < n; ++i) {
        batch.push_back(std::move(queue.front()));
        batch.back().tDequeued = tDequeued;
        queue.pop_front();
      }
      gQueueDepth->set(static_cast<int64_t>(queue.size()));
      mBatches->add();
      lock.unlock();
      queueSpace.notify_all();
      // The dispatcher participates in its own batch (parallelFor runs jobs
      // on the calling thread too), so `workers` is the true concurrency.
      pool.parallelFor(static_cast<int>(batch.size()),
                       [&](int i) { runJob(batch[i]); });
    }
  }

  void runJob(Job& job) {
    job.tCompileStart = Clock::now();
    std::unique_lock<std::mutex> lock(mu);
    std::unique_ptr<Lease> lease = acquireLease(job);
    lock.unlock();

    std::shared_ptr<const TargetProgram> prog;
    std::string error;
    try {
      CompileResult r = lease->compiler->compile(*job.prog);
      prog = std::make_shared<const TargetProgram>(std::move(r.prog));
    } catch (const std::exception& e) {
      error = e.what();
    }
    job.tCompileEnd = Clock::now();
    // The arena inside the lease now references this program's symbols.
    lease->retained.push_back(job.prog);
    lease->compiles++;
    bool recycle = lease->compiles >= opt.recycleAfter;

    std::vector<Waiter> waiters = std::move(job.directWaiters);
    lock.lock();
    if (!error.empty()) mRejections->add();
    if (opt.cacheBytes > 0) {
      insertCacheLocked(job.key, prog, error);
      auto it = inflight.find(job.key);
      if (it != inflight.end()) {
        waiters = std::move(it->second);
        inflight.erase(it);
        gInflight->set(static_cast<int64_t>(inflight.size()));
      }
    }
    if (!recycle) leases[job.leaseKey].push_back(std::move(lease));
    lock.unlock();
    // Recycled leases (and their retained programs) die here, off-lock.
    lease.reset();

    for (Waiter& w : waiters) {
      Outcome outcome = w.coalesced
                            ? Outcome::Coalesced
                            : (error.empty() ? Outcome::Miss
                                             : Outcome::Rejected);
      fulfill(w, job.key, outcome, prog, error, &job);
    }
  }

  std::unique_ptr<Lease> acquireLease(const Job& job) {
    auto& freeList = leases[job.leaseKey];
    if (!freeList.empty()) {
      std::unique_ptr<Lease> l = std::move(freeList.back());
      freeList.pop_back();
      return l;
    }
    auto l = std::make_unique<Lease>();
    l->compiler = std::make_unique<RecordCompiler>(job.cfg, job.effective);
    return l;
  }

  void insertCacheLocked(uint64_t key, std::shared_ptr<const TargetProgram> p,
                         const std::string& error) {
    if (cache.count(key)) return;  // cache-off->on races cannot happen; belt
    CacheEntry e;
    e.prog = std::move(p);
    e.error = error;
    e.bytes = (e.prog ? approxProgramBytes(*e.prog) : error.size()) +
              sizeof(CacheEntry) + sizeof(uint64_t) * 4;
    lruOrder.push_front(key);
    e.lruIt = lruOrder.begin();
    cacheBytesUsed += e.bytes;
    cache.emplace(key, std::move(e));
    // Evict least-recently-used entries past the budget; the entry just
    // inserted survives even when it alone exceeds the budget (evicting the
    // result a waiter is about to receive would buy nothing).
    while (cacheBytesUsed > opt.cacheBytes && lruOrder.size() > 1) {
      uint64_t victim = lruOrder.back();
      lruOrder.pop_back();
      auto it = cache.find(victim);
      cacheBytesUsed -= it->second.bytes;
      cache.erase(it);
      mEvictions->add();
    }
    gCacheEntries->set(static_cast<int64_t>(cache.size()));
    gCacheBytes->set(static_cast<int64_t>(cacheBytesUsed));
  }

  /// ServiceStats as a view of the registry, read under `mu` (where every
  /// counter it reports is incremented).
  ServiceStats stats() const {
    std::lock_guard<std::mutex> lock(mu);
    ServiceStats st;
    st.requests = mRequests->get();
    st.parseErrors = mParseErrors->get();
    st.cacheHits = mHits->get();
    st.coalesced = mCoalesced->get();
    st.misses = mMisses->get();
    st.rejections = mRejections->get();
    st.evictions = mEvictions->get();
    st.batches = mBatches->get();
    st.cacheEntries = gCacheEntries->get();
    st.cacheBytes = gCacheBytes->get();
    return st;
  }

  std::vector<SlowRequest> slowRequests() const {
    std::lock_guard<std::mutex> lock(telemetryMu);
    return {slowRing.begin(), slowRing.end()};
  }

  ServiceOptions opt;
  Clock::time_point epoch;
  int workerCount;
  ThreadPool pool;
  std::thread dispatcher;

  mutable std::mutex mu;
  std::condition_variable work;        // dispatcher: jobs available / stop
  std::condition_variable queueSpace;  // submitters: queue below depth
  bool stop = false;

  std::deque<Job> queue;
  std::unordered_map<uint64_t, std::vector<Waiter>> inflight;
  std::unordered_map<uint64_t, CacheEntry> cache;
  std::list<uint64_t> lruOrder;  // front = most recently used
  size_t cacheBytesUsed = 0;
  std::unordered_map<std::string, std::vector<std::unique_ptr<Lease>>> leases;

  std::atomic<uint64_t> nextRequestId{1};

  // Telemetry. The registry's hot-path handles are lock-free; the slow-
  // request ring and event log sit behind their own mutex so they never
  // contend with the service lock.
  MetricsRegistry ownReg;  // unused when a trace is attached
  MetricsRegistry& reg;    // the trace's registry, else ownReg
  TraceCounter* mRequests = nullptr;
  TraceCounter* mParseErrors = nullptr;
  TraceCounter* mHits = nullptr;
  TraceCounter* mCoalesced = nullptr;
  TraceCounter* mMisses = nullptr;
  TraceCounter* mRejections = nullptr;
  TraceCounter* mEvictions = nullptr;
  TraceCounter* mBatches = nullptr;
  Gauge* gCacheEntries = nullptr;
  Gauge* gCacheBytes = nullptr;
  Gauge* gQueueDepth = nullptr;
  Gauge* gInflight = nullptr;
  LatencyHistogram* latencyHist[kNumOutcomes] = {};
  LatencyHistogram* phaseHist[kNumPhases][kNumOutcomes] = {};
  mutable std::mutex telemetryMu;
  std::deque<SlowRequest> slowRing;
  std::ofstream requestLog;
};

CompileService::CompileService(ServiceOptions opt)
    : impl_(std::make_unique<Impl>(opt)) {}

CompileService::~CompileService() = default;

Ticket CompileService::submit(CompileRequest req) {
  return impl_->submit(std::move(req));
}

CompileResponse CompileService::compileSync(CompileRequest req) {
  return submit(std::move(req)).wait();
}

ServiceStats CompileService::stats() const { return impl_->stats(); }

int CompileService::workers() const { return impl_->workerCount; }

MetricsRegistry& CompileService::metrics() const { return impl_->reg; }

MetricsSnapshot CompileService::metricsSnapshot() const {
  return impl_->reg.snapshot();
}

std::string CompileService::metricsJson() const {
  return impl_->reg.metricsJson();
}

std::string CompileService::prometheusText() const {
  return impl_->reg.prometheusText();
}

std::vector<SlowRequest> CompileService::slowRequests() const {
  return impl_->slowRequests();
}

std::string CompileService::slowTraceJson() const {
  // One 'X' span per captured request plus one per non-zero phase,
  // tid = request id, ts in microseconds since the service epoch. The
  // validator requires ts to be non-decreasing in array order, so events
  // are rendered in sorted-ts order.
  struct Ev {
    double tsUs = 0;
    double durUs = 0;
    uint64_t tid = 0;
    std::string name;
    std::string args;
  };
  std::vector<Ev> events;
  for (const SlowRequest& s : impl_->slowRequests()) {
    char args[160];
    std::snprintf(args, sizeof args,
                  "{\"key\": \"%016llx\", \"outcome\": \"%s\", \"ms\": %.6g}",
                  (unsigned long long)s.key, outcomeName(s.outcome),
                  s.msLatency);
    events.push_back(Ev{s.startMs * 1000.0, s.msLatency * 1000.0, s.id,
                        "request", args});
    double cursorUs = s.startMs * 1000.0;
    for (int p = 0; p < kNumPhases; ++p) {
      double durUs = s.phases.ms[p] * 1000.0;
      if (durUs > 0)
        events.push_back(
            Ev{cursorUs, durUs, s.id, phaseName(static_cast<Phase>(p)), ""});
      cursorUs += durUs;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.tsUs < b.tsUs; });
  std::string out = "[";
  bool first = true;
  for (const Ev& e : events) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %llu",
                  e.name.c_str(), e.tsUs, e.durUs,
                  (unsigned long long)e.tid);
    out += buf;
    if (!e.args.empty()) out += ", \"args\": " + e.args;
    out += "}";
  }
  out += "\n]\n";
  return out;
}

uint64_t CompileService::contentKey(const std::string& source,
                                    const TargetConfig& cfg,
                                    const CodegenOptions& opt,
                                    bool sequentialSearch) {
  DiagEngine diag;
  std::optional<Program> parsed = dfl::parseDfl(source, diag);
  if (!parsed) return 0;
  ServiceOptions so;
  so.sequentialSearch = sequentialSearch;
  so.trace = nullptr;
  return keyOf(*parsed, cfg, effectiveOptions(opt, so));
}

}  // namespace record::server

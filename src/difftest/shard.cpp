#include "difftest/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "server/compileservice.h"

#include "support/strings.h"
#include "support/threadpool.h"

namespace record::difftest {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  // Field separator: a byte no rendered text contains, so adjacent fields
  // can never alias ("ab"+"c" vs "a"+"bc").
  h ^= 0xff;
  h *= kFnvPrime;
  return h;
}

/// The generator names every program after its seed ("program
/// difftest_17;"), so two seeds that minimize to the same bug would still
/// hash apart on the name alone. Neutralize the program name before
/// hashing; everything else in the rendering is canonical already.
std::string canonicalizeProgramName(const std::string& source) {
  constexpr const char* kw = "program ";
  auto at = source.find(kw);
  if (at == std::string::npos) return source;
  auto nameBegin = at + std::strlen(kw);
  auto semi = source.find(';', nameBegin);
  if (semi == std::string::npos) return source;
  return source.substr(0, nameBegin) + "_" + source.substr(semi);
}

}  // namespace

uint64_t divergenceKey(const std::string& minimizedSource,
                       const std::string& configName, const TargetConfig& cfg,
                       bool fastPath) {
  uint64_t h = kFnvOffset;
  h = fnv1a(h, canonicalizeProgramName(minimizedSource));
  h = fnv1a(h, configName);
  // describe() covers every feature bit plus banks/ars; dataWords is the
  // one structural field it omits.
  h = fnv1a(h, cfg.describe());
  h = fnv1a(h, std::to_string(cfg.dataWords));
  h = fnv1a(h, fastPath ? "fast" : "slow");
  return h;
}

std::string keyHex(uint64_t key) { return formatv("%016llx", (unsigned long long)key); }

uint64_t SoakReport::uniqueSetDigest() const {
  uint64_t h = kFnvOffset;
  for (const auto& u : unique) {
    h ^= u.key;
    h *= kFnvPrime;
  }
  return h;
}

std::string SoakReport::reportText() const {
  std::ostringstream os;
  os << "difftest_soak: " << stats.programs << " programs, " << stats.runs
     << " (config x mode) runs, " << stats.unsupported
     << " unsupported skips, " << rawDivergences << " divergences ("
     << unique.size() << " unique) in " << formatv("%.1f", seconds)
     << "s [jobs=" << jobs << " shards=" << shards << "]\n"
     << "unique-set digest: " << keyHex(uniqueSetDigest()) << "\n";
  for (const auto& u : unique)
    os << u.repro.config << " " << (u.repro.fastPath ? "fast" : "slow")
       << " key=" << keyHex(u.key) << " hits=" << u.hits
       << " seed=" << u.repro.seed << "\n";
  for (const auto& u : unique)
    os << "--- key " << keyHex(u.key) << " minimized (" << u.repro.config
       << " " << (u.repro.fastPath ? "fast" : "slow") << ") ---\n"
       << u.minimizedSource;
  return os.str();
}

namespace {

struct RawDiv {
  uint64_t seed = 0;
  int sweepIndex = 0;  // position of the config in the sweep (sort key)
  Repro repro;
  ProgSpec minimized;
  std::string minimizedSource;
  uint64_t key = 0;
};

struct ShardResult {
  OracleStats stats;
  unsigned long long seeds = 0;
  std::vector<RawDiv> divs;
};

}  // namespace

SoakReport runShardedSoak(const SoakOptions& opt,
                          const std::vector<SweepPoint>& sweep) {
  const int jobs = std::max(1, opt.jobs);
  int shards = opt.shards;
  if (shards <= 0) {
    // Fixed ranges get a few shards per worker so an unlucky shard full of
    // slow-to-compile programs cannot serialize the tail; time-bounded
    // runs stream open-endedly, so one shard per worker suffices.
    shards = opt.seedCount >= 0 ? jobs * 4 : jobs;
    if (opt.seedCount >= 0 && opt.seedCount < shards)
      shards = std::max<long long>(1, opt.seedCount);
  }

  std::map<std::string, int> sweepIndex;
  for (size_t i = 0; i < sweep.size(); ++i)
    sweepIndex[sweep[i].name] = static_cast<int>(i);

  CrossCheckOpts ccOpts;
  ccOpts.sequentialSearch = true;
  ccOpts.service = opt.service;
  // Seed-pure program choice: mutate a corpus shape or generate fresh,
  // decided by a hash of the seed alone so the work set stays independent
  // of jobs/shards scheduling.
  auto specForSeed = [&](uint64_t seed) {
    if (!opt.mutationCorpus.empty() && opt.mutationPct > 0) {
      uint64_t z = seed + 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      if (static_cast<int>(z % 100) < opt.mutationPct) {
        const auto& base =
            opt.mutationCorpus[(z / 100) % opt.mutationCorpus.size()];
        return mutateSpec(base, seed);
      }
    }
    return generateProgram(seed);
  };
  auto doCheck = [&](const ProgSpec& spec, OracleStats* stats) {
    if (opt.check) return opt.check(spec, sweep, stats);
    return crossCheck(spec, sweep, stats, ccOpts);
  };
  // Predicate for minimizing one divergence. With the test-seam check
  // function installed, re-run it on a single-point sweep; otherwise use
  // the cheaper single-(config, mode) oracle probe.
  auto stillFails = [&](const SweepPoint& pt, bool fastPath) -> StillFailing {
    if (!opt.check) return divergesAt(pt, fastPath, ccOpts);
    auto check = opt.check;
    std::vector<SweepPoint> one{pt};
    return [check, one, fastPath](const ProgSpec& cand) {
      OracleStats scratch;
      for (const auto& r : check(cand, one, &scratch))
        if (r.fastPath == fastPath) return true;
      return false;
    };
  };

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::vector<ShardResult> results(static_cast<size_t>(shards));
  std::mutex progressMu;
  // Cross-shard aggregates for the progress lines: total throughput, raw
  // divergence count, and the live set of divergence keys (the dedup the
  // final report performs, maintained incrementally so "unique" is honest
  // mid-run).
  std::atomic<unsigned long long> totalSeeds{0};
  std::atomic<int> totalDivs{0};
  std::set<uint64_t> liveKeys;  // guarded by progressMu
  auto runShard = [&](int s) {
    ShardResult& res = results[static_cast<size_t>(s)];
    // Splittable stream: shard s owns seed offsets s, s+S, s+2S, ... so
    // the union over shards tiles the range exactly once whatever the
    // worker count.
    for (unsigned long long k = static_cast<unsigned long long>(s);;
         k += static_cast<unsigned long long>(shards)) {
      if (opt.seedCount >= 0) {
        if (k >= static_cast<unsigned long long>(opt.seedCount)) break;
      } else if (elapsed() >= static_cast<double>(opt.seconds)) {
        break;
      }
      const uint64_t seed = opt.baseSeed + k;
      ProgSpec spec = specForSeed(seed);
      ++res.seeds;
      for (auto& r : doCheck(spec, &res.stats)) {
        RawDiv d;
        d.seed = seed;
        auto it = sweepIndex.find(r.config);
        d.sweepIndex =
            it != sweepIndex.end() ? it->second : static_cast<int>(sweep.size());
        d.minimized = spec;
        if (opt.minimizeDivergences) {
          for (const auto& pt : sweep)
            if (pt.name == r.config) {
              d.minimized = minimize(spec, stillFails(pt, r.fastPath),
                                     opt.minimizeProbes);
              break;
            }
        }
        d.minimizedSource = d.minimized.render();
        const TargetConfig* cfg = nullptr;
        for (const auto& pt : sweep)
          if (pt.name == r.config) cfg = &pt.cfg;
        d.key = divergenceKey(d.minimizedSource, r.config,
                              cfg ? *cfg : TargetConfig{}, r.fastPath);
        d.repro = std::move(r);
        totalDivs.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(progressMu);
          liveKeys.insert(d.key);
        }
        res.divs.push_back(std::move(d));
      }
      totalSeeds.fetch_add(1, std::memory_order_relaxed);
      if (opt.progress && res.seeds % 100 == 0) {
        unsigned long long seen = totalSeeds.load(std::memory_order_relaxed);
        double sec = elapsed();
        std::lock_guard<std::mutex> lock(progressMu);
        std::string line = formatv(
            "[soak] %llu programs (%.0f/s), %d divergences (%d unique)", seen,
            sec > 0 ? static_cast<double>(seen) / sec : 0.0,
            totalDivs.load(std::memory_order_relaxed), (int)liveKeys.size());
        if (opt.service) {
          server::ServiceStats st = opt.service->stats();
          line += formatv(", service hit rate %.0f%%",
                          st.requests > 0
                              ? 100.0 *
                                    static_cast<double>(
                                        st.servedWithoutCompile()) /
                                    static_cast<double>(st.requests)
                              : 0.0);
        }
        opt.progress(line);
      }
    }
  };

  {
    ThreadPool pool(jobs - 1);
    pool.parallelFor(shards, runShard);
  }

  // Deterministic merge: order raw divergences by (seed, sweep position,
  // mode) — a pure function of the work set — then dedupe in that order.
  SoakReport report;
  report.jobs = jobs;
  report.shards = shards;
  std::vector<RawDiv> all;
  for (auto& res : results) {
    report.stats.programs += res.stats.programs;
    report.stats.runs += res.stats.runs;
    report.stats.unsupported += res.stats.unsupported;
    report.stats.divergences += res.stats.divergences;
    report.seedsProcessed += res.seeds;
    for (auto& d : res.divs) all.push_back(std::move(d));
  }
  std::sort(all.begin(), all.end(), [](const RawDiv& a, const RawDiv& b) {
    if (a.seed != b.seed) return a.seed < b.seed;
    if (a.sweepIndex != b.sweepIndex) return a.sweepIndex < b.sweepIndex;
    return a.repro.fastPath > b.repro.fastPath;  // fast before slow
  });
  report.rawDivergences = static_cast<int>(all.size());
  std::map<uint64_t, size_t> byKey;
  for (auto& d : all) {
    auto [it, inserted] = byKey.emplace(d.key, report.unique.size());
    if (!inserted) {
      ++report.unique[it->second].hits;
      continue;
    }
    UniqueDivergence u;
    u.key = d.key;
    u.hits = 1;
    u.repro = std::move(d.repro);
    u.minimized = std::move(d.minimized);
    u.minimizedSource = std::move(d.minimizedSource);
    report.unique.push_back(std::move(u));
  }
  report.seconds = elapsed();
  return report;
}

}  // namespace record::difftest

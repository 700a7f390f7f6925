// Sharded differential-testing soak: generates seeded programs and
// cross-checks interpreter vs. pipeline+simulator across worker threads
// until a time or seed budget runs out. Divergences are minimized, deduped
// by a canonical hash of (minimized program, config, mode), and reported
// once each with reproducer files.
//
//   ./bench/difftest_soak                            # 60 seconds, 1 job
//   ./bench/difftest_soak --seconds 600 --jobs 8
//   ./bench/difftest_soak --seeds 5000 --base 100000 --jobs 4
//
// Determinism: for a fixed --seeds range, the unique-divergence set (keys,
// counts, order) is identical whatever --jobs/--shards — seed streams are
// splittable and the merge re-sorts by seed. Reproduce a reported
// divergence with --base <seed> --seeds 1.
//
// Artifacts written to cwd:
//   divergence-<seed>-<config>-<mode>[-N].txt / .trace.json  per unique bug
//   difftest_soak_report.txt       unique-divergence report (CI uploads it)
//   BENCH_difftest_soak_stats.json run stats (jobs, shards, throughput,
//                                  unique-set digest)
//
// Corpus maintenance (see DESIGN.md "Differential testing at scale"):
//   --corpus-out DIR   append every unique divergence to DIR as a
//                      committed-corpus entry (tests/corpus layout)
//   --pin SEED         pin generator seed SEED as a corpus entry even
//                      without a divergence (regression freeze)
//   --pin-dfl FILE     pin a hand-written DFL file (--pin-seed/--pin-ticks
//                      choose its stimulus; defaults 1/4)
//
// Corpus-guided mutation + compile-service stress:
//   --corpus DIR       seed the generator from DIR's corpus entries: a
//                      seed-determined fraction of programs (default 25%,
//                      --mutation-pct) mutates a known-bug shape instead
//                      of generating from scratch
//   --service          route every oracle compile through a shared
//                      CompileService (content-addressed cache + batched
//                      workers) -- a concurrency stress of the cache; the
//                      unique-divergence set must be identical with or
//                      without this flag
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil.h"
#include "dfl/frontend.h"
#include "difftest/corpus.h"
#include "difftest/difftest.h"
#include "difftest/shard.h"
#include "server/compileservice.h"

namespace {

/// Write the repro + its trace artifacts next to the binary; returns the
/// base filename (empty on I/O failure, which is only warned about -- the
/// stderr record is still complete).
std::string dumpDivergence(const record::difftest::UniqueDivergence& u) {
  const auto& r = u.repro;
  // uniqueArtifactBase appends -2, -3, ... when the name is already taken
  // (a rerun in the same directory), so no earlier dump is overwritten.
  std::string base = record::difftest::uniqueArtifactBase(
      "divergence-" + std::to_string(r.seed) + "-" + r.config + "-" +
      (r.fastPath ? "fast" : "slow"));
  std::ofstream txt(base + ".txt");
  if (!txt) {
    std::fprintf(stderr, "WARNING: cannot write %s.txt\n", base.c_str());
    return "";
  }
  txt << "key=" << record::difftest::keyHex(u.key) << " hits=" << u.hits
      << "\n";
  txt << r.str() << "\n";
  txt << "--- minimized ---\n" << u.minimizedSource;
  if (!r.traceText.empty()) txt << "--- pass trace ---\n" << r.traceText;
  if (!r.traceJson.empty())
    std::ofstream(base + ".trace.json") << r.traceJson << "\n";
  return base;
}

int pinEntries(const std::vector<record::difftest::CorpusEntry>& entries,
               const std::string& corpusDir) {
  using namespace record;
  const auto sweep = difftest::defaultSweep();
  for (const auto& e : entries) {
    auto outcome = difftest::replayEntry(e, sweep);
    if (!outcome.ok()) {
      std::fprintf(stderr,
                   "REFUSING to pin '%s': it fails replay (fix the bug or "
                   "pin after the fix):\n",
                   e.name.c_str());
      for (const auto& f : outcome.failures)
        std::fprintf(stderr, "  %s\n", f.c_str());
      return 1;
    }
    std::string path = difftest::writeCorpusEntry(e, corpusDir);
    if (path.empty()) {
      std::fprintf(stderr, "ERROR: cannot write corpus entry '%s' to %s\n",
                   e.name.c_str(), corpusDir.c_str());
      return 1;
    }
    std::printf("pinned %s (%d runs, %d unsupported)\n", path.c_str(),
                outcome.runs, outcome.unsupported);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace record;
  difftest::SoakOptions opt;
  opt.seconds = 60;
  opt.seedCount = -1;
  opt.baseSeed = 1;
  opt.jobs = 1;
  std::string corpusOut;
  std::string corpusIn;
  bool useService = false;
  std::string reportPath = "difftest_soak_report.txt";
  std::vector<unsigned long long> pinSeeds;
  std::vector<std::string> pinFiles;
  unsigned long long pinSeed = 1;
  int pinTicks = 4;
  bool explicitSeeds = false;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--seconds")) opt.seconds = std::atol(argv[++i]);
    else if (arg("--seeds")) { opt.seedCount = std::atoll(argv[++i]); explicitSeeds = true; }
    else if (arg("--base")) opt.baseSeed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--jobs")) opt.jobs = std::atoi(argv[++i]);
    else if (arg("--shards")) opt.shards = std::atoi(argv[++i]);
    else if (arg("--corpus-out")) corpusOut = argv[++i];
    else if (arg("--corpus")) corpusIn = argv[++i];
    else if (arg("--mutation-pct")) opt.mutationPct = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--service") == 0) useService = true;
    else if (arg("--report")) reportPath = argv[++i];
    else if (arg("--pin")) pinSeeds.push_back(std::strtoull(argv[++i], nullptr, 0));
    else if (arg("--pin-dfl")) pinFiles.push_back(argv[++i]);
    else if (arg("--pin-seed")) pinSeed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg("--pin-ticks")) pinTicks = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--no-minimize") == 0) opt.minimizeDivergences = false;
    else {
      std::fprintf(stderr,
                   "usage: %s [--seconds N] [--seeds N] [--base SEED] "
                   "[--jobs N] [--shards N] [--no-minimize]\n"
                   "          [--corpus DIR] [--mutation-pct N] [--service]\n"
                   "          [--corpus-out DIR] [--report FILE]\n"
                   "          [--pin SEED]... [--pin-dfl FILE "
                   "[--pin-seed S] [--pin-ticks T]]...\n",
                   argv[0]);
      return 2;
    }
  }

  // Pin-only mode: build corpus entries and exit (no soak).
  if (!pinSeeds.empty() || !pinFiles.empty()) {
    if (corpusOut.empty()) {
      std::fprintf(stderr, "--pin/--pin-dfl require --corpus-out DIR\n");
      return 2;
    }
    std::vector<difftest::CorpusEntry> entries;
    try {
      for (unsigned long long s : pinSeeds)
        entries.push_back(difftest::entryFromSpec(
            difftest::generateProgram(s), "seed-" + std::to_string(s),
            "pinned generator seed " + std::to_string(s)));
      for (const auto& f : pinFiles) {
        std::ifstream in(f);
        if (!in) {
          std::fprintf(stderr, "ERROR: cannot open %s\n", f.c_str());
          return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        // Name after the file stem.
        std::string stem = f;
        if (auto slash = stem.find_last_of('/'); slash != std::string::npos)
          stem = stem.substr(slash + 1);
        if (auto dot = stem.find_last_of('.'); dot != std::string::npos)
          stem = stem.substr(0, dot);
        entries.push_back(difftest::entryFromSource(
            buf.str(), stem, pinSeed, pinTicks, "pinned from " + f));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ERROR: %s\n", e.what());
      return 1;
    }
    return pinEntries(entries, corpusOut);
  }

  opt.progress = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  // Corpus-guided mutation: rebuild a generator spec from every loadable
  // corpus entry. Entries whose DFL uses shapes outside the generator
  // grammar are skipped with a note (they still run via corpus_test).
  if (!corpusIn.empty()) {
    for (const auto& path : difftest::listCorpusFiles(corpusIn)) {
      difftest::CorpusEntry entry;
      std::string err;
      if (!difftest::loadCorpusFile(path, &entry, &err)) {
        std::fprintf(stderr, "WARNING: skipping corpus entry %s: %s\n",
                     path.c_str(), err.c_str());
        continue;
      }
      DiagEngine diag;
      auto prog = dfl::parseDfl(entry.source, diag, entry.name);
      auto spec = prog ? difftest::specFromProgram(*prog, entry.seed,
                                                   entry.ticks)
                       : std::nullopt;
      if (!spec) {
        std::fprintf(stderr,
                     "note: corpus entry %s is outside the generator "
                     "grammar; not used for mutation\n",
                     entry.name.c_str());
        continue;
      }
      opt.mutationCorpus.push_back(std::move(*spec));
    }
    std::fprintf(stderr, "mutation corpus: %zu specs from %s (%d%% of seeds)\n",
                 opt.mutationCorpus.size(), corpusIn.c_str(), opt.mutationPct);
  }

  // Shared compile service: the soak's own workers submit concurrently, so
  // give the service the same parallelism and let the cache absorb the
  // fast/slow + per-config duplicate compiles of each seed.
  std::unique_ptr<server::CompileService> service;
  if (useService) {
    server::ServiceOptions so;
    so.workers = std::max(1, opt.jobs);
    so.sequentialSearch = true;
    service = std::make_unique<server::CompileService>(so);
    opt.service = service.get();
  }

  const auto sweep = difftest::defaultSweep();
  bench::DualTimer timer;
  difftest::SoakReport report = difftest::runShardedSoak(opt, sweep);
  bench::DualTimes times = timer.elapsed();

  for (const auto& u : report.unique) {
    std::fprintf(stderr, "=== UNIQUE DIVERGENCE key=%s hits=%d ===\n%s",
                 difftest::keyHex(u.key).c_str(), u.hits,
                 u.repro.str().c_str());
    std::fprintf(stderr, "\n--- minimized ---\n%s",
                 u.minimizedSource.c_str());
    std::string dumped = dumpDivergence(u);
    if (!dumped.empty())
      std::fprintf(stderr, "=== dumped %s.txt / %s.trace.json ===\n",
                   dumped.c_str(), dumped.c_str());
    if (!corpusOut.empty()) {
      try {
        difftest::CorpusEntry e = difftest::entryFromSpec(
            u.minimized, "div-" + difftest::keyHex(u.key),
            "minimized divergence: seed=" + std::to_string(u.repro.seed) +
                " config=" + u.repro.config +
                (u.repro.fastPath ? " fast" : " slow") + " " +
                u.repro.divergence);
        std::string path = difftest::writeCorpusEntry(e, corpusOut);
        if (!path.empty())
          std::fprintf(stderr, "=== corpus entry %s ===\n", path.c_str());
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "WARNING: cannot build corpus entry: %s\n",
                     ex.what());
      }
    }
  }

  if (!reportPath.empty()) {
    std::ofstream rep(reportPath);
    if (rep) rep << report.reportText();
    else std::fprintf(stderr, "WARNING: cannot write %s\n", reportPath.c_str());
  }

  // Stats artifact: everything needed to compare a --jobs=8 run against a
  // --jobs=1 run (bit-identical unique set => equal digests; >= 3x
  // wall-clock on 8 cores => compare seconds / programs_per_sec).
  auto& g = bench::globalStats();
  g.set("soak", "jobs", report.jobs);
  g.set("soak", "shards", report.shards);
  g.set("soak", "programs", report.stats.programs);
  g.set("soak", "runs", report.stats.runs);
  g.set("soak", "unsupported", report.stats.unsupported);
  g.set("soak", "raw_divergences", report.rawDivergences);
  g.set("soak", "unique_divergences", static_cast<double>(report.unique.size()));
  // The digest is 64-bit but the stats sink prints %.6g doubles; four
  // 16-bit chunks stay exactly representable, so two runs found the same
  // unique set iff all four digest fields match.
  const uint64_t digest = report.uniqueSetDigest();
  for (int chunk = 0; chunk < 4; ++chunk)
    g.set("soak", "unique_set_digest_" + std::to_string(chunk),
          static_cast<double>((digest >> (16 * chunk)) & 0xffffull));
  g.set("soak", "seconds", report.seconds);
  g.set("soak", "wall_seconds", times.wallSec);
  g.set("soak", "programs_per_sec",
        report.seconds > 0 ? report.stats.programs / report.seconds : 0);
  if (explicitSeeds) g.set("soak", "seed_count", static_cast<double>(opt.seedCount));
  g.set("soak", "base_seed", static_cast<double>(opt.baseSeed));
  g.set("soak", "mutation_corpus", static_cast<double>(opt.mutationCorpus.size()));
  if (service) {
    // The hit/coalesced split depends on request timing, but their sum --
    // requests served without paying a compile -- is deterministic for a
    // fixed seed range when nothing evicts.
    server::ServiceStats ss = service->stats();
    g.set("soak.service", "requests", static_cast<double>(ss.requests));
    g.set("soak.service", "served_from_cache",
          static_cast<double>(ss.servedWithoutCompile()));
    g.set("soak.service", "misses", static_cast<double>(ss.misses));
    g.set("soak.service", "rejections", static_cast<double>(ss.rejections));
    g.set("soak.service", "evictions", static_cast<double>(ss.evictions));
    std::fprintf(stderr,
                 "compile service: %lld requests, %lld served from cache, "
                 "%lld compiled (%lld rejections), %lld evictions\n",
                 (long long)ss.requests, (long long)ss.servedWithoutCompile(),
                 (long long)ss.misses, (long long)ss.rejections,
                 (long long)ss.evictions);
  }
  bench::writeGlobalStats("difftest_soak");

  std::printf("%s", report.reportText().c_str());
  return report.unique.empty() ? 0 : 1;
}

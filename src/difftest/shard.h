// Sharded differential-testing soak: splits a seed range over
// support/threadpool workers, funnels every divergence through the
// minimizer, and dedupes by a canonical hash of the minimized program +
// target configuration + compile mode, so a long soak reports *unique*
// bugs instead of re-printing the same miscompile for every seed that
// happens to tickle it.
//
// Determinism contract (pinned by tests/difftest_test.cpp): for a fixed
// seed range, the merged unique-divergence set — keys, counts, order,
// and representative repros — is a pure function of (baseSeed, seedCount,
// sweep), independent of --jobs and --shards. Two properties make that
// hold:
//   1. Seed streams are splittable: shard s of S processes exactly the
//      seeds {base + s, base + s + S, base + s + 2S, ...} within the
//      range, and program generation is already a pure function of the
//      seed, so the union of work never depends on scheduling.
//   2. Shards never share mutable state: each worker runs its own
//      compilers (own FastPathState), writes into its own result slot,
//      and the merge re-sorts raw divergences by (seed, config, mode)
//      before deduping, erasing any trace of completion order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "difftest/difftest.h"

namespace record::difftest {

// ---------------------------------------------------------------------------
// Canonical dedupe key
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a canonical rendering of (minimized program source,
/// sweep-point name, full TargetConfig shape, compile mode). Two
/// divergences from different seeds that minimize to the same program on
/// the same configuration are the same bug; the seed-bearing program name
/// ("program difftest_17;") is neutralized before hashing so it cannot
/// split them.
uint64_t divergenceKey(const std::string& minimizedSource,
                       const std::string& configName, const TargetConfig& cfg,
                       bool fastPath);

/// The key rendered the way reports and corpus files spell it
/// (16 hex digits, zero-padded).
std::string keyHex(uint64_t key);

// ---------------------------------------------------------------------------
// Sharded soak
// ---------------------------------------------------------------------------

struct SoakOptions {
  uint64_t baseSeed = 1;
  /// >= 0: process exactly this many seeds (deterministic mode).
  /// < 0: run until `seconds` elapses (each shard streams open-endedly).
  long long seedCount = -1;
  long seconds = 60;
  /// Worker threads, including the calling thread (>= 1).
  int jobs = 1;
  /// Work units; 0 = auto (jobs for time-bounded runs, a small multiple
  /// of jobs for fixed ranges so stragglers rebalance).
  int shards = 0;
  /// Run each divergence through the greedy minimizer before hashing.
  /// Turning this off hashes the un-minimized spec (cheaper, but seeds
  /// that tickle the same bug then dedupe less well).
  bool minimizeDivergences = true;
  int minimizeProbes = 400;
  /// Corpus-guided mutation: specs rebuilt from minimized corpus entries
  /// (specFromProgram). When nonempty, `mutationPct` percent of seeds
  /// mutate a corpus shape (mutateSpec) instead of generating from
  /// scratch, so the soak keeps probing the neighborhoods of every bug
  /// ever found. The mutate-vs-generate decision and the corpus pick are
  /// pure functions of the seed, preserving the jobs/shards-invariance
  /// contract above.
  std::vector<ProgSpec> mutationCorpus;
  int mutationPct = 25;
  /// Route every oracle compile through this compile service
  /// (CrossCheckOpts::service): a concurrency stress of the
  /// content-addressed cache -- the fast/slow duplicate compiles of one
  /// seed coalesce or hit, and any stale or torn cached program shows up
  /// as a divergence. Null = direct compiles.
  server::CompileService* service = nullptr;
  /// Test seam: replaces crossCheck(). Receives the spec, the sweep and a
  /// per-shard stats accumulator; must be safe to call from several
  /// threads at once. Null = the real oracle.
  std::function<std::vector<Repro>(const ProgSpec&,
                                   const std::vector<SweepPoint>&,
                                   OracleStats*)>
      check;
  /// Optional progress sink (called under a mutex from worker threads).
  /// Lines aggregate across shards: programs checked and seeds/s, raw and
  /// unique divergence counts, and -- when `service` is attached -- its
  /// cache hit rate.
  std::function<void(const std::string&)> progress;
};

/// One deduped bug: the canonical key, how many raw (seed, config, mode)
/// divergences collapsed into it, and the first-by-seed-order repro with
/// its minimized spec.
struct UniqueDivergence {
  uint64_t key = 0;
  int hits = 0;
  Repro repro;         // repro.source holds the ORIGINAL program text
  ProgSpec minimized;  // minimized spec (== original spec when
                       // minimizeDivergences is off)
  std::string minimizedSource;
};

struct SoakReport {
  OracleStats stats;            // summed over all shards
  unsigned long long seedsProcessed = 0;
  int rawDivergences = 0;       // before dedupe (== stats.divergences)
  std::vector<UniqueDivergence> unique;  // sorted by first (seed, config, mode)
  int jobs = 1;
  int shards = 1;
  double seconds = 0;           // steady-clock wall time of the run

  /// Deterministic digest of the unique set (order-sensitive combine of
  /// the keys): two runs found the same bugs iff their digests match.
  uint64_t uniqueSetDigest() const;
  /// One line per unique divergence: "<key> hits=<n> seed=<s> <config>
  /// <mode>", plus a summary header — the report artifact CI uploads.
  std::string reportText() const;
};

/// Run the sharded soak. Blocks until the seed range is exhausted (or the
/// time budget expires) and every shard joined.
SoakReport runShardedSoak(const SoakOptions& opt,
                          const std::vector<SweepPoint>& sweep);

}  // namespace record::difftest

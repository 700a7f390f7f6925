// Differential-testing oracle across the whole pipeline: a seeded DFL
// program generator, a cross-check driver that runs each program through the
// IR golden-model interpreter AND the full codegen pipeline + tdsp simulator
// under a sweep of target configurations and compile modes, and a greedy
// test-case minimizer for any divergence found.
//
// The contract under test: for every program the compiler ACCEPTS, the
// simulated machine must agree bit-for-bit with ir/interp.cpp on every
// output at every tick, on every swept TargetConfig, with the fast path on
// or off. Capability rejections (std::runtime_error from compile()) are
// clean "unsupported" skips, never divergences. Known exclusions from the
// contract are documented in DESIGN.md ("Correctness oracle").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/pipeline.h"
#include "dspstone/harness.h"
#include "ir/expr.h"
#include "target/isa.h"

namespace record::server {
class CompileService;
}

namespace record::difftest {

// ---------------------------------------------------------------------------
// Generated-program spec
// ---------------------------------------------------------------------------
// The generator produces a structured spec rather than raw text so the
// minimizer can mutate it (drop statements, shrink subtrees) and re-render.

struct GExpr;
using GExprPtr = std::shared_ptr<const GExpr>;

/// One node of a generated expression. Reuses record::Op for the operator
/// vocabulary; leaves carry symbol names instead of Symbol pointers so a
/// spec is self-contained (renderable without a symbol table).
struct GExpr {
  Op op = Op::Const;
  int64_t value = 0;   // Const: literal; Ref: delay depth (name@value)
  std::string name;    // Ref / ArrayRef
  std::vector<GExprPtr> kids;

  static GExprPtr constant(int64_t v);
  static GExprPtr ref(std::string name, int delay = 0);
  static GExprPtr arrayRef(std::string name, GExprPtr index);
  static GExprPtr unary(Op op, GExprPtr a);
  static GExprPtr binary(Op op, GExprPtr a, GExprPtr b);
};

/// Render as DFL expression text (fully parenthesized).
std::string renderExpr(const GExpr& e);

struct GDecl {
  enum class Kind { Input, Output, Var } kind = Kind::Var;
  std::string name;
  int arraySize = 0;  // 0 = scalar
  int delay = 0;      // delay-line depth (scalars only)
};

struct GStmt {
  std::string lhs;
  GExprPtr lhsIndex;  // null = scalar assignment
  GExprPtr rhs;
};

/// One top-level item: a single statement, or a `for` loop over [lo, hi].
struct GItem {
  bool isLoop = false;
  std::string ivar;  // loop only
  int lo = 0, hi = 0;
  std::vector<GStmt> stmts;  // loop body, or the single statement
};

struct ProgSpec {
  uint64_t seed = 0;
  std::vector<GDecl> decls;
  std::vector<GItem> items;
  int ticks = 4;

  /// Render as a complete DFL program.
  std::string render() const;
};

/// Deterministic program generator: same seed, same program, on every
/// platform (no std::uniform_int_distribution). Programs exercise
/// expressions (incl. saturating ops, shifts, bitwise, delay lines), loops
/// with array streaming, and dynamically (mask-guarded) indexed accesses.
ProgSpec generateProgram(uint64_t seed);

/// Rebuild a generator spec from a lowered program, so corpus entries
/// (stored as DFL text) can seed the mutator. Returns nullopt for shapes
/// outside the generator grammar (non-unit loop steps, non-fix types,
/// Store patterns). The round trip normalizes formatting; the rebuilt
/// spec renders to a semantically identical program.
std::optional<ProgSpec> specFromProgram(const Program& prog, uint64_t seed,
                                        int ticks);

/// Deterministic structure-preserving mutation: same (base, seed), same
/// result, everywhere. Perturbs constants, swaps operators within their
/// arity family, regenerates statement right-hand sides, and occasionally
/// appends a statement or re-rolls the tick count -- while never touching
/// array-index or shift-amount subtrees (bounds and grammar stay valid)
/// and never growing loop bounds. The result always parses; divergences it
/// finds minimize and dedupe exactly like generated ones.
ProgSpec mutateSpec(const ProgSpec& base, uint64_t seed);

/// Deterministic boundary-biased stimulus: mixes full-range random int16
/// values with overflow-provoking constants (0x7fff, -0x8000, 0x4000, ...),
/// unlike the harness's defaultStimulus which stays safely small.
Stimulus makeStimulus(const Program& prog, uint64_t seed, int ticks);

// ---------------------------------------------------------------------------
// Cross-check oracle
// ---------------------------------------------------------------------------

struct SweepPoint {
  std::string name;
  TargetConfig cfg;
};

/// The default configuration sweep: >= 8 structurally distinct tdsp
/// variants (MAC on/off, dual multiplier x banks, saturation, AR file
/// sizes, hardware loop features).
std::vector<SweepPoint> defaultSweep();

/// Everything needed to reproduce one divergence.
struct Repro {
  uint64_t seed = 0;
  std::string config;      // SweepPoint name
  std::string configDesc;  // TargetConfig::describe()
  bool fastPath = true;
  std::string divergence;  // first divergent observable (tick/symbol/values)
  std::string source;      // DFL text of the (possibly minimized) program
  /// Trace artifact of a re-compile of the diverging (config, mode) pair:
  /// human pass trace + Chrome trace_event JSON. Shows which rewrite
  /// variants, rules, and late-pass firings produced the bad code; written
  /// into the soak driver's divergence dumps.
  std::string traceText;
  std::string traceJson;
  std::string str() const;
};

struct OracleStats {
  int programs = 0;
  int runs = 0;         // (config x mode) pairs actually executed
  int unsupported = 0;  // clean capability rejections, skipped
  int divergences = 0;
};

struct CrossCheckOpts {
  /// Force searchThreads=1 in both compile modes. Callers that are
  /// themselves worker threads (the sharded soak) set this so every
  /// compile stays on its own thread instead of contending for the
  /// process-shared search pool.
  bool sequentialSearch = false;
  /// Route every oracle compile through this compile service instead of a
  /// fresh per-call RecordCompiler. The oracle's fast and slow modes keep
  /// distinct cache keys (the options fingerprint includes the fast-path
  /// flags), so coverage is unchanged; what this buys is a concurrency
  /// stress of the service's cache and single-flight paths with
  /// bit-identity checked on every response. Null = direct compiles.
  server::CompileService* service = nullptr;
  /// Also run every accepted (config x mode) pair on both simulator
  /// engines (decode-once Machine vs. pre-decode ReferenceMachine) and
  /// report any behavioral divergence between them as a Repro. This turns
  /// every oracle run into a differential test of the interpreter rewrite
  /// itself; the cost is one extra (cheap) reference execution per run.
  bool checkEngines = true;
};

/// The oracle's compiler settings for one compile mode: fast-path layers
/// all on or all off. Shared by crossCheck and the corpus replayer.
CodegenOptions oracleOptions(bool fastPath, const CrossCheckOpts& opts = {});

/// Run one spec through every (config x fast-path mode) pair. Returns every
/// divergence found (empty = agreement everywhere). Throws only on
/// generator bugs (spec fails to parse).
std::vector<Repro> crossCheck(const ProgSpec& spec,
                              const std::vector<SweepPoint>& sweep,
                              OracleStats* stats = nullptr,
                              const CrossCheckOpts& opts = {});

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

/// True when the candidate spec still exhibits the behavior of interest
/// (for a real repro: "still diverges at this sweep point").
using StillFailing = std::function<bool(const ProgSpec&)>;

/// Greedy spec minimization: repeatedly drop items/statements, shrink loop
/// bounds and tick counts, and replace expression subtrees with their
/// children or constants, keeping every mutation that preserves the
/// predicate. `maxProbes` bounds the number of predicate evaluations.
ProgSpec minimize(const ProgSpec& spec, const StillFailing& still,
                  int maxProbes = 400);

/// Predicate for minimizing a concrete divergence: re-runs the oracle at
/// one sweep point / compile mode.
StillFailing divergesAt(const SweepPoint& pt, bool fastPath,
                        const CrossCheckOpts& opts = {});

// ---------------------------------------------------------------------------
// Divergence artifacts
// ---------------------------------------------------------------------------

/// Collision-free artifact naming for divergence dumps: returns the first of
/// "<base>", "<base>-2", "<base>-3", ... for which "<candidate><ext>" does
/// not exist on disk, so a soak rerun (or two repros that map to the same
/// seed/config/mode triple) never silently overwrites an earlier dump.
std::string uniqueArtifactBase(const std::string& base,
                               const std::string& ext = ".txt");

}  // namespace record::difftest

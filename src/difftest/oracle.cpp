#include "difftest/difftest.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "codegen/baseline.h"
#include "dfl/frontend.h"
#include "server/compileservice.h"
#include "trace/trace.h"

namespace record::difftest {

namespace {

/// Compile one (config, mode) pair, either directly or through the shared
/// compile service. Returns false on a capability rejection (clean
/// "unsupported" skip); throws std::logic_error if the service reports a
/// parse failure (the caller already parsed the source, so that would be a
/// generator bug).
bool compileVia(const CrossCheckOpts& opts, const std::string& source,
                const Program& prog, const TargetConfig& cfg, bool fastPath,
                std::shared_ptr<const TargetProgram>* out) {
  CodegenOptions copt = oracleOptions(fastPath, opts);
  if (opts.service) {
    server::CompileResponse resp =
        opts.service->compileSync({source, cfg, copt});
    if (resp.ok()) {
      *out = std::move(resp.prog);
      return true;
    }
    if (resp.key == 0)
      throw std::logic_error("compile service failed to parse oracle DFL:\n" +
                             resp.error + source);
    return false;  // cached or fresh capability rejection
  }
  try {
    RecordCompiler rc(cfg, copt);
    *out = std::make_shared<const TargetProgram>(rc.compile(prog).prog);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace

std::vector<SweepPoint> defaultSweep() {
  std::vector<SweepPoint> sweep;
  auto add = [&sweep](const char* name, auto mutate) {
    TargetConfig cfg;
    mutate(cfg);
    sweep.push_back({name, cfg});
  };
  add("default", [](TargetConfig&) {});
  add("no-mac", [](TargetConfig& c) { c.hasMac = false; });
  add("dual-mul", [](TargetConfig& c) {
    c.hasDualMul = true;
    c.memBanks = 2;
  });
  add("no-sat", [](TargetConfig& c) { c.hasSat = false; });
  add("two-banks", [](TargetConfig& c) { c.memBanks = 2; });
  add("two-ars", [](TargetConfig& c) { c.numAddrRegs = 2; });
  add("one-ar", [](TargetConfig& c) { c.numAddrRegs = 1; });
  add("no-rpt-dmov", [](TargetConfig& c) {
    c.hasRpt = false;
    c.hasDmov = false;
  });
  add("kitchen-sink", [](TargetConfig& c) {
    c.hasDualMul = true;
    c.memBanks = 2;
    c.numAddrRegs = 4;
    c.hasRpt = false;
  });
  return sweep;
}

std::string Repro::str() const {
  std::ostringstream os;
  os << "seed=" << seed << " config=" << config << " (" << configDesc << ") "
     << (fastPath ? "fast-path" : "slow-path") << "\n  divergence: "
     << divergence << "\n--- program ---\n" << source;
  return os.str();
}

CodegenOptions oracleOptions(bool fastPath, const CrossCheckOpts& opts) {
  CodegenOptions opt = recordOptions();
  opt.internExprs = fastPath;
  opt.memoLabels = fastPath;
  opt.pruneSearch = fastPath;
  opt.cacheRules = fastPath;
  opt.searchThreads = (fastPath && !opts.sequentialSearch) ? 0 : 1;
  return opt;
}

std::vector<Repro> crossCheck(const ProgSpec& spec,
                              const std::vector<SweepPoint>& sweep,
                              OracleStats* stats, const CrossCheckOpts& opts) {
  const std::string source = spec.render();
  DiagEngine diag;
  auto prog = dfl::parseDfl(source, diag);
  if (!prog)
    throw std::logic_error("difftest generator produced unparseable DFL:\n" +
                           diag.str() + source);
  Stimulus stim = makeStimulus(*prog, spec.seed, spec.ticks);
  if (stats) ++stats->programs;

  std::vector<Repro> out;
  for (const auto& pt : sweep) {
    for (bool fast : {true, false}) {
      std::shared_ptr<const TargetProgram> tp;
      bool accepted = compileVia(opts, source, *prog, pt.cfg, fast, &tp);
      if (!accepted) {
        // Capability rejection (no saturation hardware, inexpressible wide
        // intermediate, ...): a clean skip, not a divergence.
        if (stats) ++stats->unsupported;
        continue;
      }
      if (stats) ++stats->runs;
      Measurement m = runAndCompare(*tp, *prog, stim);
      std::string engineDiff;
      if (m.ok && opts.checkEngines) {
        // The pipeline agrees with the golden model; also require the two
        // simulator engines to agree with each other (decode-once vs.
        // pre-decode reference), bit-for-bit.
        engineDiff = compareSimEngines(*tp, stim);
        if (engineDiff.empty()) continue;
        engineDiff = "simulator engine divergence: " + engineDiff;
      } else if (m.ok) {
        continue;
      }
      Repro r;
      r.seed = spec.seed;
      r.config = pt.name;
      r.configDesc = pt.cfg.describe();
      r.fastPath = fast;
      r.divergence = engineDiff.empty() ? m.error : engineDiff;
      r.source = source;
      // Recompile the diverging pair with tracing on so the repro carries
      // the full pass/remark history (tracing never changes codegen, so
      // this reproduces the same bad program).
      try {
        TraceContext trace;
        CodegenOptions topt = oracleOptions(fast, opts);
        topt.trace = &trace;
        RecordCompiler rc(pt.cfg, topt);
        rc.compile(*prog);
        r.traceText = trace.text();
        r.traceJson = trace.chromeJson();
      } catch (const std::exception& e) {
        r.traceText = std::string("trace recompile failed: ") + e.what();
      }
      out.push_back(std::move(r));
      if (stats) ++stats->divergences;
    }
  }
  return out;
}

StillFailing divergesAt(const SweepPoint& pt, bool fastPath,
                        const CrossCheckOpts& opts) {
  return [pt, fastPath, opts](const ProgSpec& spec) {
    const std::string source = spec.render();
    DiagEngine diag;
    auto prog = dfl::parseDfl(source, diag);
    if (!prog) return false;  // a mutation broke the program; reject it
    std::shared_ptr<const TargetProgram> tp;
    bool accepted = compileVia(opts, source, *prog, pt.cfg, fastPath, &tp);
    if (!accepted)
      return false;  // now rejected instead of miscompiled; not the bug
    Stimulus stim = makeStimulus(*prog, spec.seed, spec.ticks);
    if (!runAndCompare(*tp, *prog, stim).ok) return true;
    // Engine-only divergences minimize too.
    return opts.checkEngines && !compareSimEngines(*tp, stim).empty();
  };
}

std::string uniqueArtifactBase(const std::string& base,
                               const std::string& ext) {
  auto exists = [](const std::string& path) {
    return static_cast<bool>(std::ifstream(path));
  };
  if (!exists(base + ext)) return base;
  for (int n = 2;; ++n) {
    std::string candidate = base + "-" + std::to_string(n);
    if (!exists(candidate + ext)) return candidate;
  }
}

}  // namespace record::difftest

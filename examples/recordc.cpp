// recordc -- a command-line driver for the retargetable compiler: the tool a
// downstream user would actually run.
//
//   recordc [options] file.dfl
//   recordc --kernel fir              (compile a built-in DSPStone kernel)
//
// Options:
//   --baseline            use the target-specific baseline configuration
//   --naive               use the deliberately naive configuration
//   --cycles              optimize for cycles instead of size
//   --no-rewrite          disable algebraic tree rewriting
//   --rewrite-budget N    variants tried per statement (default 48)
//   --ars N               number of address registers (1..8)
//   --no-mac              core without multiplier datapath
//   --dual-mul            dual-operand multiplier + 2 memory banks
//   --no-sat --no-rpt --no-dmov      strip core features
//   --emit-isd            print the core's BURS rule set as a rule-only
//                         description (a subset of the --emit-desc grammar)
//   --emit-desc           print the authoritative target description, the
//                         embedded src/target/tdsp.isd (insn clauses +
//                         feature-gated rules, target/desc.h grammar)
//   --isd FILE            retarget: compile against a target description
//   --isd=FILE            (target/desc.h grammar). Its `rule` clauses
//                         replace the BURS rules; its `insn` clauses, if
//                         any, generate and install the ISA/decode tables,
//                         so the assembler, encoder and simulator cycle
//                         hints come from the description. A rule-only
//                         file (e.g. --emit-isd output) keeps the default
//                         tables
//   --run                 execute on the simulator with zero inputs
//   --src                 annotate the listing with DFL source lines
//   --profile[=FILE]      execute under the cycle profiler (implies --run)
//                         and print a hot-spot report; with FILE, also
//                         write the flat profile stats JSON there
//   --profile-trace=FILE  write a Chrome trace_event timeline of the
//                         profiled execution to FILE (implies --profile)
//   --stats               print compilation statistics (incl. counters)
//   --server-stats[=N]    compile through an in-process CompileService,
//                         submitting the request N times (default 4): the
//                         first compiles, the rest hit the content-
//                         addressed cache. Prints the server.* counters
//                         (requests/hits/misses/evictions) and per-request
//                         latency; with --trace the counters also appear
//                         in the pass-trace report
//   --metrics[=FILE]      dump the compile service's metrics registry
//                         (counters, gauges, per-phase latency histograms
//                         split by outcome) as nested JSON; implies
//                         --server-stats. With no FILE the JSON goes to
//                         stdout and the listing is suppressed (pipe into
//                         jq)
//   --prom[=FILE]         same registry as Prometheus text exposition
//   --slow-trace=FILE     capture every service request's per-phase spans
//                         and write them as Chrome trace JSON (validated);
//                         implies --server-stats
//   --request-log=FILE    append one JSON line per service request (id,
//                         key, outcome, per-phase ms); implies
//                         --server-stats
//   --trace               print the pass trace (timers, counters, remarks)
//                         to stderr
//   --trace-json[=FILE]   write a Chrome trace_event JSON trace to FILE;
//                         with no FILE, the trace goes to stdout and the
//                         listing is suppressed (pipe into jq / save for
//                         chrome://tracing or Perfetto)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/kernels.h"
#include "server/compileservice.h"
#include "sim/machine.h"
#include "sim/profile.h"
#include "target/tdsp.h"
#include "trace/trace.h"

int main(int argc, char** argv) {
  using namespace record;
  TargetConfig cfg;
  CodegenOptions opt = recordOptions();
  std::string file, kernel, isdFile;
  bool run = false, stats = false, emitIsd = false, emitDesc = false;
  bool srcListing = false;
  bool traceText = false, traceJson = false, profile = false;
  int serverRepeat = 0;  // > 0: route through CompileService, N submissions
  bool metricsOut = false, promOut = false;
  std::string traceJsonFile, profileStatsFile, profileTraceFile;
  std::string metricsFile, promFile, slowTraceFile, requestLogFile;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto intArg = [&](int def) {
      return i + 1 < argc ? std::atoi(argv[++i]) : def;
    };
    if (a == "--baseline") opt = baselineOptions();
    else if (a == "--naive") opt = naiveOptions();
    else if (a == "--cycles") opt.cost = CostKind::Cycles;
    else if (a == "--no-rewrite") opt.rewriteBudget = 1;
    else if (a == "--rewrite-budget") opt.rewriteBudget = intArg(48);
    else if (a == "--ars") cfg.numAddrRegs = intArg(8);
    else if (a == "--no-mac") cfg.hasMac = false;
    else if (a == "--dual-mul") { cfg.hasDualMul = true; cfg.memBanks = 2; }
    else if (a == "--no-sat") cfg.hasSat = false;
    else if (a == "--no-rpt") cfg.hasRpt = false;
    else if (a == "--no-dmov") cfg.hasDmov = false;
    else if (a == "--run") run = true;
    else if (a == "--src") srcListing = true;
    else if (a == "--profile") { profile = true; run = true; }
    else if (a.rfind("--profile=", 0) == 0) {
      profile = true;
      run = true;
      profileStatsFile = a.substr(std::strlen("--profile="));
    }
    else if (a.rfind("--profile-trace=", 0) == 0) {
      profile = true;
      run = true;
      profileTraceFile = a.substr(std::strlen("--profile-trace="));
    }
    else if (a == "--stats") stats = true;
    else if (a == "--server-stats") serverRepeat = 4;
    else if (a.rfind("--server-stats=", 0) == 0)
      serverRepeat = std::atoi(a.c_str() + std::strlen("--server-stats="));
    else if (a == "--metrics") metricsOut = true;
    else if (a.rfind("--metrics=", 0) == 0) {
      metricsOut = true;
      metricsFile = a.substr(std::strlen("--metrics="));
    }
    else if (a == "--prom") promOut = true;
    else if (a.rfind("--prom=", 0) == 0) {
      promOut = true;
      promFile = a.substr(std::strlen("--prom="));
    }
    else if (a.rfind("--slow-trace=", 0) == 0)
      slowTraceFile = a.substr(std::strlen("--slow-trace="));
    else if (a.rfind("--request-log=", 0) == 0)
      requestLogFile = a.substr(std::strlen("--request-log="));
    else if (a == "--trace") traceText = true;
    else if (a == "--trace-json") traceJson = true;
    else if (a.rfind("--trace-json=", 0) == 0) {
      traceJson = true;
      traceJsonFile = a.substr(std::strlen("--trace-json="));
    }
    else if (a == "--emit-isd") emitIsd = true;
    else if (a == "--emit-desc") emitDesc = true;
    else if (a == "--isd") isdFile = i + 1 < argc ? argv[++i] : "";
    else if (a.rfind("--isd=", 0) == 0)
      isdFile = a.substr(std::strlen("--isd="));
    else if (a == "--kernel") kernel = i + 1 < argc ? argv[++i] : "";
    else if (a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    } else {
      file = a;
    }
  }

  if (emitIsd) {
    std::printf("%s", rulesFor(tdspDesc(), cfg).str().c_str());
    return 0;
  }
  if (emitDesc) {
    std::printf("%s", tdspIsdText().c_str());
    return 0;
  }

  std::string source;
  if (!kernel.empty()) {
    try {
      source = kernelByName(kernel).dfl;
    } catch (const std::exception&) {
      std::fprintf(stderr, "unknown kernel '%s'; available:", kernel.c_str());
      for (const auto& k : dspstoneKernels())
        std::fprintf(stderr, " %s", k.name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  } else if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    std::fprintf(stderr,
                 "usage: recordc [options] file.dfl | --kernel NAME\n");
    return 2;
  }

  DiagEngine diag;
  auto prog = dfl::parseDfl(source, diag);
  if (!prog) {
    std::fprintf(stderr, "%s", diag.str().c_str());
    return 1;
  }

  TraceContext trace;
  if (traceText || traceJson) opt.trace = &trace;

  // Telemetry exports observe the compile service, so they imply it.
  if ((metricsOut || promOut || !slowTraceFile.empty() ||
       !requestLogFile.empty()) &&
      serverRepeat == 0)
    serverRepeat = 4;

  if (serverRepeat != 0) {
    if (!isdFile.empty()) {
      std::fprintf(stderr,
                   "--server-stats does not support --isd (the service "
                   "compiles against built-in rule sets)\n");
      return 2;
    }
    if (serverRepeat < 1) serverRepeat = 1;
    server::ServiceOptions so;
    so.trace = &trace;  // server.* counters land in the pass trace
    if (!slowTraceFile.empty()) so.slowRequestMs = 0;  // capture everything
    so.requestLogPath = requestLogFile;
    server::CompileService svc(so);
    std::shared_ptr<const TargetProgram> compiled;
    std::ostringstream requestLines;
    std::string error;
    for (int n = 0; n < serverRepeat; ++n) {
      server::CompileResponse resp = svc.compileSync({source, cfg, opt});
      if (!resp.ok()) {
        error = resp.error;
        break;
      }
      if (!compiled) compiled = resp.prog;
      char line[160];
      std::snprintf(line, sizeof line,
                    "; request %d: %-9s %8.3f ms  (key %016llx)\n", n + 1,
                    resp.cacheHit ? "cache-hit"
                                  : (resp.coalesced ? "coalesced" : "compiled"),
                    resp.msLatency, (unsigned long long)resp.key);
      requestLines << line;
    }
    if (!error.empty()) {
      std::fprintf(stderr, "compilation failed: %s\n", error.c_str());
      if (traceText) std::fprintf(stderr, "%s", trace.text().c_str());
      return 1;
    }
    // --metrics / --prom with no file stream the export to stdout (for
    // jq / scrapers); the listing would corrupt it, so it is suppressed.
    const bool exportToStdout = (metricsOut && metricsFile.empty()) ||
                                (promOut && promFile.empty());
    if (!exportToStdout) {
      std::printf("%s", compiled->listing(srcListing).c_str());
      server::ServiceStats ss = svc.stats();
      std::printf(
          "; server: %lld requests, %lld cache hits, %lld coalesced, "
          "%lld compiled, %lld evictions, %lld cached entries (%lld bytes)\n",
          (long long)ss.requests, (long long)ss.cacheHits,
          (long long)ss.coalesced, (long long)ss.misses,
          (long long)ss.evictions, (long long)ss.cacheEntries,
          (long long)ss.cacheBytes);
      std::printf("%s", requestLines.str().c_str());
    }
    if (metricsOut) {
      std::string json = svc.metricsJson();
      if (metricsFile.empty()) {
        std::printf("%s\n", json.c_str());
      } else {
        std::ofstream out(metricsFile);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", metricsFile.c_str());
          return 2;
        }
        out << json << "\n";
      }
    }
    if (promOut) {
      std::string text = svc.prometheusText();
      if (promFile.empty()) {
        std::printf("%s", text.c_str());
      } else {
        std::ofstream out(promFile);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", promFile.c_str());
          return 2;
        }
        out << text;
      }
    }
    if (!slowTraceFile.empty()) {
      std::string json = svc.slowTraceJson();
      std::string verr;
      if (!validateChromeTrace(json, &verr)) {
        std::fprintf(stderr, "internal error: bad slow-request trace: %s\n",
                     verr.c_str());
        return 2;
      }
      std::ofstream out(slowTraceFile);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", slowTraceFile.c_str());
        return 2;
      }
      out << json;
    }
    if (traceText) std::fprintf(stderr, "%s", trace.text().c_str());
    return 0;
  }

  try {
    std::optional<RecordCompiler> compilerStorage;
    // Outlives the compile + run: the simulator's decode reads the active
    // ISA table, so a table generated from a description must stay alive
    // (and installed) until the end of main.
    std::optional<IsaTable> generatedTable;
    if (!isdFile.empty()) {
      std::ifstream in(isdFile);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", isdFile.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string isdText = ss.str();
      DiagEngine isdDiag;
      isdDiag.setSourceName(isdFile);
      auto desc = parseTargetDesc(isdText, isdDiag);
      if (desc && validateDesc(*desc, isdDiag))
        generatedTable = buildIsaTable(*desc, isdDiag);
      if (!generatedTable) {
        std::fprintf(stderr, "%s", isdDiag.str().c_str());
        return 1;
      }
      setActiveIsaTable(&*generatedTable);
      compilerStorage.emplace(rulesFor(*desc, cfg), opt);
    } else {
      compilerStorage.emplace(cfg, opt);
    }
    RecordCompiler& compiler = *compilerStorage;
    auto res = compiler.compile(*prog);
    // --trace-json with no file streams the JSON to stdout (for jq); the
    // listing would corrupt it, so it is suppressed in that mode.
    const bool jsonToStdout = traceJson && traceJsonFile.empty();
    if (!jsonToStdout)
      std::printf("%s", res.prog.listing(srcListing).c_str());
    if (traceText) std::fprintf(stderr, "%s", trace.text().c_str());
    if (traceJson) {
      std::string json = trace.chromeJson();
      // The schema check is cheap; a malformed trace is a bug worth an
      // exit code, not a silently broken artifact.
      std::string verr;
      if (!validateChromeTrace(json, &verr)) {
        std::fprintf(stderr, "internal error: bad trace JSON: %s\n",
                     verr.c_str());
        return 2;
      }
      if (jsonToStdout) {
        std::printf("%s\n", json.c_str());
      } else {
        std::ofstream out(traceJsonFile);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", traceJsonFile.c_str());
          return 2;
        }
        out << json << "\n";
      }
    }
    if (stats && !jsonToStdout) {
      std::printf(
          "; stats: %d words, %d statements, %d variants tried, %d "
          "patterns,\n;        %d promotions, %d merges, %d mode switches, "
          "%d RPT conversions\n",
          res.stats.sizeWords, res.stats.statements,
          res.stats.variantsTried, res.stats.patternsUsed,
          res.stats.promote.promotions, res.stats.compacted.merges,
          res.stats.modes.switchesInserted,
          res.stats.loops.rptConversions);
      if (traceText || traceJson)
        for (const auto& [name, value] : trace.counterValues())
          std::printf("; counter %-28s %lld\n", name.c_str(),
                      static_cast<long long>(value));
    }
    if (run) {
      Machine m(res.prog);
      std::optional<Profile> prof;
      if (profile) {
        prof.emplace(res.prog);
        m.attachProfile(&*prof);
      }
      auto rr = m.run();
      std::printf("; run: %s%s%s, %lld cycles, %lld instructions\n",
                  runStatusName(rr.status),
                  rr.status == RunStatus::Halted ? "" : ": ",
                  rr.status == RunStatus::Halted ? "" : rr.trapReason.c_str(),
                  static_cast<long long>(rr.cycles),
                  static_cast<long long>(rr.instructions));
      for (const auto& s : prog->symbols.all()) {
        if (s->kind != SymKind::Output) continue;
        if (s->isArray()) continue;
        std::printf(";   %s = %lld\n", s->name.c_str(),
                    static_cast<long long>(m.readSymbol(s->name)));
      }
      if (profile) {
        std::printf("\n%s", prof->text().c_str());
        if (!profileStatsFile.empty()) {
          std::ofstream out(profileStatsFile);
          if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         profileStatsFile.c_str());
            return 2;
          }
          out << prof->statsJson() << "\n";
        }
        if (!profileTraceFile.empty()) {
          std::string json = prof->chromeJson();
          std::string verr;
          if (!validateChromeTrace(json, &verr)) {
            std::fprintf(stderr, "internal error: bad profile trace: %s\n",
                         verr.c_str());
            return 2;
          }
          std::ofstream out(profileTraceFile);
          if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         profileTraceFile.c_str());
            return 2;
          }
          out << json;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compilation failed: %s\n", e.what());
    // The trace still explains how far compilation got (and carries the
    // "reject" remark), so emit it even on failure.
    if (traceText) std::fprintf(stderr, "%s", trace.text().c_str());
    if (traceJson && traceJsonFile.empty())
      std::printf("%s\n", trace.chromeJson().c_str());
    else if (traceJson)
      std::ofstream(traceJsonFile) << trace.chromeJson() << "\n";
    return 1;
  }
  return 0;
}

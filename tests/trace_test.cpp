// Golden-trace regression tests for the observability layer (src/trace):
//
//   * the pass trace of two fixed DSPStone kernels has exactly the expected
//     top-level pass sequence, spans nest and close, and the counters obey
//     their structural invariants;
//   * the Chrome trace_event JSON sink emits schema-valid, ts-monotonic
//     output (checked both by validateChromeTrace and by parsing it with
//     the in-tree JSON reader);
//   * tracing is invisible: emitted code and cycle counts are bit-identical
//     with tracing on or off across every difftest sweep configuration;
//   * counters sum correctly under the parallel variant search;
//   * the bench stats sink produces parseable JSON and the dual timer
//     reports both clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "benchutil.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "support/json.h"
#include "trace/trace.h"

namespace record {
namespace {

// Uses a saturating add, so no-sat sweep configs reject it -- exercises the
// capability-rejection path of the trace (the "reject" remark and the
// accept/reject parity check in the determinism test).
const char kSatProgram[] =
    "program satprog;\n"
    "input a : fix;\n"
    "input b : fix;\n"
    "output y : fix;\n"
    "begin\n"
    "y := a +| b;\n"
    "end\n";

CompileResult compileTraced(const std::string& kernel, TraceContext* trace,
                            TargetConfig cfg = {}, CodegenOptions opt = {}) {
  opt.trace = trace;
  Program prog = dfl::parseDflOrDie(kernelByName(kernel).dfl);
  RecordCompiler rc(cfg, opt);
  return rc.compile(prog);
}

/// Names of the spans nested directly under the single "compile" span, in
/// order, built by replaying the event stream with a depth counter.
std::vector<std::string> topLevelPasses(const TraceContext& trace) {
  std::vector<std::string> out;
  int depth = 0;  // 0 = outside "compile"
  for (const TraceEvent& e : trace.events()) {
    if (e.ph == 'B') {
      if (depth == 1) out.push_back(e.name);
      ++depth;
    } else if (e.ph == 'E') {
      --depth;
    }
  }
  return out;
}

/// Every 'B' has a matching 'E' with the same name (proper nesting).
void expectSpansBalanced(const TraceContext& trace) {
  std::vector<std::string> stack;
  for (const TraceEvent& e : trace.events()) {
    if (e.ph == 'B') {
      stack.push_back(e.name);
    } else if (e.ph == 'E') {
      ASSERT_FALSE(stack.empty()) << "span '" << e.name << "' ends unopened";
      EXPECT_EQ(stack.back(), e.name) << "span end out of order";
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed span '" << stack.back() << "'";
}

// ---------------------------------------------------------------------------
// Golden pass sequences
// ---------------------------------------------------------------------------

TEST(GoldenTrace, FirPassSequence) {
  TraceContext trace;
  auto res = compileTraced("fir", &trace);
  EXPECT_GT(res.stats.statements, 0);

  const std::vector<std::string> expected = {"select",  "accpromote",
                                             "modes",   "compact",
                                             "looptrans", "peephole"};
  EXPECT_EQ(topLevelPasses(trace), expected);
  expectSpansBalanced(trace);

  // The stream starts by opening "compile" and every stmt span carries the
  // full rewrite/search/reduce breakdown.
  auto events = trace.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().ph, 'B');
  EXPECT_STREQ(events.front().name, "compile");
  std::vector<std::string> stmtKids;
  int depth = 0, stmtDepth = -1;
  for (const TraceEvent& e : events) {
    if (e.ph == 'B') {
      if (stmtDepth >= 0 && depth == stmtDepth + 1) stmtKids.push_back(e.name);
      if (std::string(e.name) == "stmt" && stmtDepth < 0) stmtDepth = depth;
      ++depth;
    } else if (e.ph == 'E') {
      --depth;
      if (depth == stmtDepth && std::string(e.name) == "stmt") stmtDepth = -1;
    }
  }
  ASSERT_GE(stmtKids.size(), 3u);
  EXPECT_EQ(stmtKids[0], "rewrite");
  EXPECT_EQ(stmtKids[1], "search");
  EXPECT_EQ(stmtKids[2], "reduce");
}

TEST(GoldenTrace, DotProductPassSequence) {
  TraceContext trace;
  compileTraced("dot_product", &trace);
  const std::vector<std::string> expected = {"select",  "accpromote",
                                             "modes",   "compact",
                                             "looptrans", "peephole"};
  EXPECT_EQ(topLevelPasses(trace), expected);
  expectSpansBalanced(trace);
}

TEST(GoldenTrace, DualMulRunsMemBankFirst) {
  TargetConfig cfg;
  cfg.hasDualMul = true;
  cfg.memBanks = 2;
  TraceContext trace;
  compileTraced("fir", &trace, cfg);
  auto passes = topLevelPasses(trace);
  ASSERT_FALSE(passes.empty());
  EXPECT_EQ(passes.front(), "membank");
  const std::vector<std::string> expected = {
      "membank", "select",    "accpromote", "modes",
      "compact", "looptrans", "peephole"};
  EXPECT_EQ(passes, expected);
}

TEST(GoldenTrace, CounterInvariants) {
  TraceContext trace;
  auto res = compileTraced("fir", &trace);

  const int64_t explored = trace.counterValue("rewrite.variants_explored");
  const int64_t pruned = trace.counterValue("rewrite.variants_pruned");
  const int64_t labelings = trace.counterValue("search.labelings");
  EXPECT_GT(explored, 0);
  EXPECT_LE(pruned, explored);
  EXPECT_EQ(labelings + pruned, explored);
  // Trace counters mirror the CompileStats the caller already trusts.
  EXPECT_EQ(explored, res.stats.variantsTried);
  EXPECT_EQ(pruned, res.stats.variantsPruned);
  EXPECT_EQ(trace.counterValue("isel.statements"), res.stats.statements);
  EXPECT_EQ(trace.counterValue("codegen.size_words"), res.stats.sizeWords);
  // Each rule of a winning cover is one pattern used and one remark.
  EXPECT_GT(res.stats.patternsUsed, 0);
  EXPECT_EQ(trace.counterValue("isel.patterns_used"), res.stats.patternsUsed);
  int ruleRemarks = 0;
  for (const TraceEvent& e : trace.events())
    if (e.ph == 'i' && std::string(e.name) == "isel.rule") ++ruleRemarks;
  EXPECT_EQ(ruleRemarks, res.stats.patternsUsed);
  EXPECT_GT(trace.remarkCount(), 0);
}

// Every late-pass counter is published from its CompileStats field: summed
// over the DSPStone kernels on every sweep config, each counter equals the
// summed field. Three option sets reach every transform the kernels
// exercise, and those sums must be non-zero, so a row that publishes the
// wrong field cannot pass on zeros.
TEST(GoldenTrace, LatePassCountersMatchStats) {
  using Get = int (*)(const CompileStats&);
  const std::pair<const char*, Get> fields[] = {
      {"accpromote.promotions",
       [](const CompileStats& s) { return s.promote.promotions; }},
      {"modes.switches_inserted",
       [](const CompileStats& s) { return s.modes.switchesInserted; }},
      {"compact.merges",
       [](const CompileStats& s) { return s.compacted.merges; }},
      {"compact.blocks_reordered",
       [](const CompileStats& s) { return s.compacted.blocksReordered; }},
      {"looptrans.rpt_conversions",
       [](const CompileStats& s) { return s.loops.rptConversions; }},
      {"looptrans.mac_pipelined",
       [](const CompileStats& s) { return s.loops.macPipelined; }},
      {"looptrans.mac_rotations",
       [](const CompileStats& s) { return s.loops.macRotations; }},
      {"peephole.removed_loads",
       [](const CompileStats& s) { return s.peep.removedLoads; }},
      {"peephole.dmov_fusions",
       [](const CompileStats& s) { return s.peep.dmovFusions; }},
      {"peephole.dead_ar_loads",
       [](const CompileStats& s) { return s.peep.deadArLoads; }},
  };
  CodegenOptions cycles;
  cycles.cost = CostKind::Cycles;
  CodegenOptions optimal;
  optimal.compaction = CompactMode::Optimal;
  const struct {
    const char* name;
    CodegenOptions opt;
    std::vector<std::string> fires;
  } runs[] = {
      {"default",
       {},
       {"accpromote.promotions", "compact.merges", "looptrans.mac_pipelined",
        "peephole.dmov_fusions"}},
      {"cycles", cycles, {"looptrans.mac_rotations"}},
      {"optimal", optimal, {"compact.blocks_reordered"}},
  };
  for (const auto& run : runs) {
    TraceContext trace;
    std::map<std::string, int64_t> sums;
    for (const Kernel& k : dspstoneKernels()) {
      Program prog = dfl::parseDflOrDie(k.dfl);
      for (const auto& pt : difftest::defaultSweep()) {
        CodegenOptions opt = run.opt;
        opt.trace = &trace;
        CompileResult res;
        try {
          res = RecordCompiler(pt.cfg, opt).compile(prog);
        } catch (const std::runtime_error&) {
          continue;  // capability rejection: no late pass ran
        }
        for (const auto& [counter, get] : fields)
          sums[counter] += get(res.stats);
      }
    }
    for (const auto& [counter, get] : fields)
      EXPECT_EQ(trace.counterValue(counter), sums[counter])
          << run.name << ": " << counter;
    for (const std::string& counter : run.fires)
      EXPECT_GT(sums[counter], 0) << run.name << ": " << counter;
  }
}

TEST(GoldenTrace, RejectionLeavesRemark) {
  TargetConfig cfg;
  cfg.hasSat = false;
  TraceContext trace;
  CodegenOptions opt;
  opt.trace = &trace;
  // A saturating add on a no-sat core must be rejected, and the rejection
  // must land in the remark stream.
  Program prog = dfl::parseDflOrDie(kSatProgram);
  EXPECT_THROW(RecordCompiler(cfg, opt).compile(prog), std::runtime_error);
  bool sawReject = false;
  for (const TraceEvent& e : trace.events())
    if (e.ph == 'i' && std::string(e.name) == "reject") sawReject = true;
  EXPECT_TRUE(sawReject);
  expectSpansBalanced(trace);  // the RAII spans unwound cleanly
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

TEST(TraceSinks, ChromeJsonIsSchemaValid) {
  TraceContext trace;
  compileTraced("fir", &trace);
  const std::string jsonText = trace.chromeJson();

  std::string err;
  EXPECT_TRUE(validateChromeTrace(jsonText, &err)) << err;

  auto doc = json::parse(jsonText, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->isArray());
  ASSERT_FALSE(doc->arr.empty());
  double lastTs = -1;
  bool sawCounter = false;
  for (const auto& e : doc->arr) {
    ASSERT_TRUE(e.isObject());
    const json::Value* ph = e.find("ph");
    const json::Value* ts = e.find("ts");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->number, lastTs) << "ts must be monotonic";
    lastTs = ts->number;
    if (ph->str == "C") sawCounter = true;
  }
  EXPECT_TRUE(sawCounter) << "counters must be emitted as 'C' events";
}

TEST(TraceSinks, ChromeJsonValidatorCatchesBrokenTraces) {
  std::string err;
  EXPECT_FALSE(validateChromeTrace("{}", &err));       // not an array
  EXPECT_FALSE(validateChromeTrace("[{}]", &err));     // missing fields
  EXPECT_FALSE(validateChromeTrace(                    // unbalanced B
      R"([{"name":"x","ph":"B","ts":0,"pid":1,"tid":0}])", &err));
  EXPECT_FALSE(validateChromeTrace(                    // ts goes backwards
      R"([{"name":"x","ph":"B","ts":5,"pid":1,"tid":0},)"
      R"({"name":"x","ph":"E","ts":1,"pid":1,"tid":0}])",
      &err));
  EXPECT_TRUE(validateChromeTrace(
      R"([{"name":"x","ph":"B","ts":1,"pid":1,"tid":0},)"
      R"({"name":"x","ph":"E","ts":2,"pid":1,"tid":0}])",
      &err))
      << err;
}

TEST(TraceSinks, StatsJsonParses) {
  TraceContext trace;
  compileTraced("fir", &trace);
  std::string err;
  auto doc = json::parse(trace.statsJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->isObject());
  const json::Value* counters = doc->find("counters");
  const json::Value* spans = doc->find("spans");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(spans, nullptr);
  EXPECT_NE(counters->find("rewrite.variants_explored"), nullptr);
  EXPECT_NE(spans->find("compile"), nullptr);
}

TEST(TraceSinks, PhaseSpansAreTheCompileStatsTimes) {
  // A phase's CompileStats time and its spans come from the same clock
  // readings, so the span totals in statsJson() equal the ms* fields.
  TraceContext trace;
  auto res = compileTraced("fir", &trace);
  std::string err;
  auto doc = json::parse(trace.statsJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  // Sum every span path whose last component is one of `names`.
  auto spanTotal = [&](std::vector<std::string> names, int* count) {
    double ms = 0;
    *count = 0;
    for (const auto& [path, v] : spans->obj) {
      const std::string leaf = path.substr(path.rfind('/') + 1);
      if (std::find(names.begin(), names.end(), leaf) == names.end())
        continue;
      ms += v.find("ms")->number;
      *count += static_cast<int>(v.find("count")->number);
    }
    return ms;
  };
  const struct {
    std::vector<std::string> spans;
    double ms;
  } phases[] = {
      {{"rewrite"}, res.stats.msRewrite},
      {{"search"}, res.stats.msSearch},
      {{"reduce"}, res.stats.msReduce},
      {{"accpromote", "modes", "compact", "looptrans", "peephole"},
       res.stats.msLate},
  };
  for (const auto& ph : phases) {
    int count = 0;
    const double ms = spanTotal(ph.spans, &count);
    EXPECT_GT(count, 0) << ph.spans.front();
    EXPECT_GT(ph.ms, 0) << ph.spans.front();
    EXPECT_NEAR(ms, ph.ms, 1e-6 * count) << ph.spans.front();
  }
}

TEST(TraceSinks, TextMentionsPassesCountersRemarks) {
  TraceContext trace;
  compileTraced("fir", &trace);
  const std::string text = trace.text();
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("select"), std::string::npos);
  EXPECT_NE(text.find("rewrite.variants_explored"), std::string::npos);
  EXPECT_NE(text.find("picked variant"), std::string::npos);
  // Remarks carry source attribution rendered from Stmt locations.
  EXPECT_NE(text.find("fir:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: tracing is invisible
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, IdenticalCodeAndCyclesAcrossSweep) {
  struct Subject {
    std::string name;
    Program prog;
    int ticks;
  };
  std::vector<Subject> subjects;
  for (const char* k : {"fir", "iir_biquad_one_section"}) {
    const Kernel& kern = kernelByName(k);
    subjects.push_back({k, dfl::parseDflOrDie(kern.dfl), kern.ticks});
  }
  // The sat program is rejected by no-sat configs: checks that tracing does
  // not change accept/reject decisions either.
  subjects.push_back({"satprog", dfl::parseDflOrDie(kSatProgram), 1});
  for (const Subject& subject : subjects) {
    const std::string& kernel = subject.name;
    const Program& prog = subject.prog;
    for (const auto& pt : difftest::defaultSweep()) {
      CodegenOptions plain;
      CodegenOptions traced;
      TraceContext trace;
      traced.trace = &trace;

      std::string plainErr, tracedErr;
      CompileResult plainRes, tracedRes;
      bool plainOk = true, tracedOk = true;
      try {
        plainRes = RecordCompiler(pt.cfg, plain).compile(prog);
      } catch (const std::runtime_error& e) {
        plainOk = false;
        plainErr = e.what();
      }
      try {
        tracedRes = RecordCompiler(pt.cfg, traced).compile(prog);
      } catch (const std::runtime_error& e) {
        tracedOk = false;
        tracedErr = e.what();
      }
      // Accept/reject decisions (and their messages) must agree too.
      ASSERT_EQ(plainOk, tracedOk)
          << kernel << " @ " << pt.name << ": tracing changed acceptance";
      if (!plainOk) {
        EXPECT_EQ(plainErr, tracedErr) << kernel << " @ " << pt.name;
        continue;
      }
      EXPECT_EQ(plainRes.prog.listing(), tracedRes.prog.listing())
          << kernel << " @ " << pt.name << ": tracing changed the code";

      auto stim = defaultStimulus(prog, 1, subject.ticks);
      auto mPlain = runAndCompare(plainRes.prog, prog, stim);
      auto mTraced = runAndCompare(tracedRes.prog, prog, stim);
      ASSERT_TRUE(mPlain.ok) << mPlain.error;
      ASSERT_TRUE(mTraced.ok) << mTraced.error;
      EXPECT_EQ(mPlain.cycles, mTraced.cycles)
          << kernel << " @ " << pt.name << ": tracing changed cycle count";
    }
  }
}

// ---------------------------------------------------------------------------
// Thread safety under the parallel variant search
// ---------------------------------------------------------------------------

TEST(TraceThreadSafety, CountersSumUnderParallelSearch) {
  // One shared context across the whole suite, searched with the full
  // thread pool: the per-variant counter bumps come from pool workers, so
  // this is the test TSan watches.
  CodegenOptions opt;
  opt.searchThreads = 0;  // one worker per hardware thread
  TraceContext trace;
  opt.trace = &trace;
  int totalTried = 0, totalPruned = 0;
  for (const Kernel& k : dspstoneKernels()) {
    Program prog = dfl::parseDflOrDie(k.dfl);
    auto res = RecordCompiler(TargetConfig{}, opt).compile(prog);
    totalTried += res.stats.variantsTried;
    totalPruned += res.stats.variantsPruned;
  }
  const int64_t explored = trace.counterValue("rewrite.variants_explored");
  const int64_t pruned = trace.counterValue("rewrite.variants_pruned");
  const int64_t labelings = trace.counterValue("search.labelings");
  EXPECT_EQ(explored, totalTried);
  EXPECT_EQ(pruned, totalPruned);
  EXPECT_EQ(labelings + pruned, explored)
      << "per-variant counter updates were lost or duplicated";
}

TEST(TraceThreadSafety, NoPruningMeansEveryVariantIsLabeled) {
  CodegenOptions opt;
  opt.searchThreads = 0;
  opt.pruneSearch = false;
  TraceContext trace;
  opt.trace = &trace;
  Program prog = dfl::parseDflOrDie(kernelByName("convolution").dfl);
  RecordCompiler(TargetConfig{}, opt).compile(prog);
  EXPECT_EQ(trace.counterValue("rewrite.variants_pruned"), 0);
  EXPECT_EQ(trace.counterValue("search.labelings"),
            trace.counterValue("rewrite.variants_explored"));
}

// ---------------------------------------------------------------------------
// Bench stats sink (bench/benchutil.h)
// ---------------------------------------------------------------------------

TEST(BenchStats, SinkJsonParsesAndPreservesValues) {
  bench::StatsSink sink;
  sink.set("fir", "cycles", 1234);
  sink.set("fir", "ms_search", 0.5);
  sink.set("fir", "cycles", 1235);  // overwrite, not duplicate
  sink.set("iir \"q\"", "size_words", 42);  // name needing escaping

  std::string err;
  auto doc = json::parse(sink.json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const json::Value* rows = doc->find("rows");
  ASSERT_NE(rows, nullptr);
  const json::Value* fir = rows->find("fir");
  ASSERT_NE(fir, nullptr);
  ASSERT_NE(fir->find("cycles"), nullptr);
  EXPECT_DOUBLE_EQ(fir->find("cycles")->number, 1235);
  EXPECT_DOUBLE_EQ(fir->find("ms_search")->number, 0.5);
  ASSERT_NE(rows->find("iir \"q\""), nullptr);
}

TEST(BenchStats, CompileStatsRowHasPhaseBreakdown) {
  CompileStats s;
  s.sizeWords = 10;
  s.msSearch = 1.5;
  bench::StatsSink sink;
  // recordCompileStats writes to the global sink; exercise the same fields
  // through a local one to keep the test hermetic.
  sink.set("row", "size_words", s.sizeWords);
  sink.set("row", "ms_search", s.msSearch);
  auto doc = json::parse(sink.json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->find("rows")->find("row")->find("ms_search")->number,
                   1.5);
}

TEST(BenchStats, DualTimerReportsBothClocks) {
  bench::DualTimer t;
  // Burn a little CPU so both clocks advance.
  volatile int64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  auto e = t.elapsed();
  EXPECT_GT(e.steadySec, 0.0);
  EXPECT_GT(e.wallSec, 0.0);
  // The two clocks measure the same interval; allow generous slop for NTP
  // slew and scheduler noise, but they must be the same order of magnitude.
  EXPECT_LT(std::abs(e.steadySec - e.wallSec), 0.5 + e.steadySec);
}

}  // namespace
}  // namespace record

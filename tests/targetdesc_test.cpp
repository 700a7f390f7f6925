// The target-description compiler (target/desc.h) and src/target/tdsp.isd,
// the one description of the built-in core:
//
//   * tdsp.isd on disk is the embedded text, names every opcode exactly
//     once, reaches a canonical fixed point, and the default IsaTable, the
//     opcode predicates and the cached default rule sets are exactly what
//     its clauses say on every sweep configuration.
//   * The frozen codegen oracle, tests/golden/tdsp_codegen.golden: compiles
//     of the DSPStone kernels, the committed difftest corpus and seeded
//     generated programs across the full 9-config x fast/slow sweep keep
//     their accept/reject decision, annotated listing, data layout and
//     encoded words; the kernels keep their simulated cycles and profiler
//     attribution.
//   * Well-formedness properties of every default rule set, and robustness
//     of the description pipeline: 50 seeded mutations of tdsp.isd either
//     compile or produce located diagnostics -- never a crash.
//   * The ISE bridge: rules from a netlist extraction drive the full
//     RecordCompiler pipeline and the result runs correctly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "difftest/corpus.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "golden.h"
#include "ir/program.h"
#include "ise/bridge.h"
#include "ise/extract.h"
#include "netlist/parser.h"
#include "sim/machine.h"
#include "sim/profile.h"
#include "support/diag.h"
#include "target/desc.h"
#include "target/encode.h"
#include "target/isa.h"
#include "target/isd.h"
#include "target/tdsp.h"

namespace record {
namespace {

using golden::digest;
using golden::readFile;

/// tdsp.isd read from the source tree (not the embedded copy), parsed and
/// validated.
TargetDesc onDiskDesc() {
  DiagEngine diag;
  auto desc = parseTargetDesc(readFile(RECORD_TDSP_ISD), diag);
  EXPECT_TRUE(desc.has_value()) << diag.str();
  EXPECT_TRUE(desc && validateDesc(*desc, diag)) << diag.str();
  return desc.value_or(TargetDesc{});
}

void expectSameTable(const IsaTable& a, const IsaTable& b) {
  EXPECT_EQ(a.name, b.name);
  for (int i = 0; i < kNumOpcodes; ++i) {
    SCOPED_TRACE(std::string("opcode ") + opcodeName(static_cast<Opcode>(i)));
    EXPECT_EQ(a.cls[i], b.cls[i]);
    EXPECT_EQ(a.takesAr[i], b.takesAr[i]);
    EXPECT_EQ(a.needs[i], b.needs[i]);
    EXPECT_EQ(a.decodeCycles[i], b.decodeCycles[i]);
    EXPECT_EQ(a.info[i].numOperands, b.info[i].numOperands);
    EXPECT_EQ(opInfoFlags(a.info[i]), opInfoFlags(b.info[i]));
  }
}

// ---------------------------------------------------------------------------
// The checked-in description
// ---------------------------------------------------------------------------

TEST(IsdGolden, CheckedInDescMatchesDerived) {
  // The committed description is the build-time-embedded copy ...
  EXPECT_EQ(readFile(RECORD_TDSP_ISD), tdspIsdText());
  // ... and the insn clauses re-derived from the default table it compiles
  // to render exactly as the parsed ones: the table keeps every fact.
  TargetDesc derived = tdspDesc();
  const IsaTable& t = defaultIsaTable();
  for (DescInsn& insn : derived.insns) {
    Opcode op;
    ASSERT_TRUE(opcodeFromName(insn.name, op)) << insn.name;
    auto i = static_cast<size_t>(op);
    insn.cls = t.cls[i];
    insn.info = t.info[i];
    insn.takesAr = t.takesAr[i];
    insn.needs = t.needs[i];
    insn.cycles = t.decodeCycles[i];
  }
  EXPECT_EQ(derived.str(), tdspDesc().str());
}

TEST(IsdGolden, DescRoundTripFixedPoint) {
  DiagEngine diag;
  auto desc = parseTargetDesc(tdspIsdText(), diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  EXPECT_TRUE(validateDesc(*desc, diag)) << diag.str();
  // Comments are not canonical, so the fixed point starts at the first
  // rendering: str(parse(str(parse(text)))) == str(parse(text)).
  const std::string canonical = desc->str();
  DiagEngine diag2;
  auto again = parseTargetDesc(canonical, diag2);
  ASSERT_TRUE(again.has_value()) << diag2.str();
  EXPECT_EQ(again->str(), canonical);
}

TEST(IsdGolden, DefaultRulesMatchGoldenFile) {
  const std::string golden =
      readFile(std::string(RECORD_GOLDEN_DIR) + "/tdsp_default_rules.isd");
  EXPECT_EQ(rulesFor(tdspDesc(), TargetConfig{}).str(), golden);
  // The golden text itself round-trips through the ISD parser.
  DiagEngine diag;
  auto rs = parseIsd(golden, diag);
  ASSERT_TRUE(rs.has_value()) << diag.str();
  EXPECT_EQ(rs->str(), golden);
}

// ---------------------------------------------------------------------------
// The default tables are the description
// ---------------------------------------------------------------------------

TEST(IsdGen, EmbeddedDescNamesEveryOpcodeOnce) {
  std::map<std::string, int> clauses;
  for (const DescInsn& insn : tdspDesc().insns) ++clauses[insn.name];
  EXPECT_EQ(tdspDesc().insns.size(), static_cast<size_t>(kNumOpcodes));
  for (int i = 0; i < kNumOpcodes; ++i) {
    const char* name = opcodeName(static_cast<Opcode>(i));
    EXPECT_EQ(clauses[name], 1) << name;
  }
}

TEST(IsdGen, DefaultTableRejectsMissingInsn) {
  // Drop BANZ's insn clause: no rule emits BANZ, so the description still
  // validates and the missing row is the table builder's to catch.
  std::istringstream in(tdspIsdText());
  std::string text, line;
  while (std::getline(in, line))
    if (line.rfind("insn BANZ ", 0) != 0) text += line + "\n";
  DiagEngine diag;
  diag.setSourceName("tdsp.isd");
  auto desc = parseTargetDesc(text, diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  ASSERT_TRUE(validateDesc(*desc, diag)) << diag.str();

  EXPECT_FALSE(buildCompleteIsaTable(*desc, diag).has_value());
  ASSERT_EQ(diag.errorCount(), 1) << diag.str();
  EXPECT_GT(diag.all()[0].loc.line, 0) << diag.str();
  EXPECT_NE(diag.str().find("'BANZ'"), std::string::npos) << diag.str();

  // A retargeting description keeps the default row instead.
  DiagEngine rdiag;
  auto table = buildIsaTable(*desc, rdiag);
  ASSERT_TRUE(table.has_value()) << rdiag.str();
  EXPECT_TRUE(table->takesAr[static_cast<size_t>(Opcode::BANZ)]);
}

TEST(IsdGen, IsaTableMatchesBuiltin) {
  // The lazily built default table equals tables compiled separately from
  // the on-disk description, with and without the default rows beneath.
  TargetDesc desc = onDiskDesc();
  DiagEngine diag;
  auto complete = buildCompleteIsaTable(desc, diag);
  ASSERT_TRUE(complete.has_value()) << diag.str();
  expectSameTable(*complete, defaultIsaTable());
  auto over = buildIsaTable(desc, diag);
  ASSERT_TRUE(over.has_value()) << diag.str();
  expectSameTable(*over, defaultIsaTable());
}

TEST(IsdGen, OpcodeAvailabilityMatchesAcrossSweep) {
  for (const auto& pt : difftest::defaultSweep()) {
    uint8_t have = configFeatureMask(pt.cfg);
    for (const DescInsn& insn : tdspDesc().insns) {
      Opcode op;
      ASSERT_TRUE(opcodeFromName(insn.name, op)) << insn.name;
      EXPECT_EQ(opcodeAvailable(op, pt.cfg), (insn.needs & ~have) == 0)
          << pt.name << " " << insn.name;
    }
  }
}

TEST(IsdGen, RulesMatchBuiltinAcrossSweep) {
  // The compiler's default rules, cached or built per compiler, are the
  // description's rules whose `when` gate the config satisfies.
  for (const auto& pt : difftest::defaultSweep()) {
    SCOPED_TRACE(pt.name);
    const std::string want = rulesFor(tdspDesc(), pt.cfg).str();
    CodegenOptions uncached;
    uncached.cacheRules = false;
    EXPECT_EQ(RecordCompiler(pt.cfg).rules().str(), want);
    EXPECT_EQ(RecordCompiler(pt.cfg, uncached).rules().str(), want);
    uint8_t have = configFeatureMask(pt.cfg);
    size_t gated = 0;
    for (const DescRule& dr : tdspDesc().rules)
      gated += (dr.when & ~have) == 0;
    EXPECT_EQ(rulesFor(tdspDesc(), pt.cfg).rules.size(), gated);
  }
}

// ---------------------------------------------------------------------------
// The frozen codegen oracle: tests/golden/tdsp_codegen.golden
// ---------------------------------------------------------------------------
// One line per (source, program, config, mode): accept/reject plus FNV-64
// digests of the source-annotated listing, the data layout and the encoded
// words; `sim` lines add simulated cycles, instructions, per-OpClass cycles
// and the per-line cycle attribution of the DSPStone kernels on the default
// and dual-mul cores. A differing line is reported with its actual text, so
// a deliberate codegen change updates the file by pasting those lines.

/// The golden line of one compile: accept/reject, then digests of the
/// annotated listing, the data layout and the encoded image.
std::string goldenLine(const std::string& key, const RecordCompiler& rc,
                       const Program& prog) {
  TargetProgram tp;
  try {
    tp = rc.compile(prog).prog;
  } catch (const std::runtime_error&) {
    return key + " reject";
  }
  std::string layout;
  for (const auto& [name, addr] : tp.symbolAddr)
    layout += name + "=" + std::to_string(addr) + ";";
  layout += "|";
  for (const auto& [addr, value] : tp.dataInit)
    layout += std::to_string(addr) + ":" + std::to_string(value) + ";";
  std::string err, words = "none";
  if (auto img = encode(tp, &err)) {
    words.clear();
    for (uint64_t w : img->words) words += std::to_string(w) + ",";
    words = digest(words);
  }
  return key + " accept listing=" + digest(tp.listing(true)) +
         " layout=" + digest(layout) + " words=" + words;
}

std::string modeName(bool fast) { return fast ? "fast" : "slow"; }

void expectGoldenSection(const std::string& section,
                         const std::vector<std::string>& actual) {
  golden::expectGoldenSection(
      std::string(RECORD_GOLDEN_DIR) + "/tdsp_codegen.golden", section,
      actual);
}

/// The `sim` line of one compiled kernel: run it on its stimulus under the
/// execution profiler.
std::string simLine(const std::string& key, const TargetProgram& tp,
                    const Program& prog, int ticks) {
  Profile prof(tp);
  Measurement m = runAndCompare(tp, prog, defaultStimulus(prog, 7, ticks),
                                &prof);
  EXPECT_TRUE(m.ok) << key << ": " << m.error;
  std::string line = key + " cycles=" + std::to_string(m.cycles) +
                     " insns=" + std::to_string(m.instructions);
  for (int c = 0; c < kNumOpClasses; ++c) {
    auto cls = static_cast<OpClass>(c);
    line += std::string(" ") + opClassName(cls) + "=" +
            std::to_string(prof.classCycles(cls));
  }
  std::string lines;
  for (const auto& [l, cyc] : prof.lineCycles())
    lines += std::to_string(l) + ":" + std::to_string(cyc) + ";";
  return line + " lines=" + digest(lines);
}

// Every DSPStone kernel, every sweep configuration, fast and slow compile
// modes.
TEST(IsdGen, KernelCompilesBitIdenticalAcrossSweep) {
  std::vector<std::string> lines;
  for (const auto& pt : difftest::defaultSweep()) {
    for (bool fast : {false, true}) {
      RecordCompiler rc(pt.cfg, difftest::oracleOptions(fast));
      for (const auto& k : dspstoneKernels())
        lines.push_back(goldenLine(
            "kernel " + k.name + " " + pt.name + " " + modeName(fast), rc,
            dfl::parseDflOrDie(k.dfl)));
    }
  }
  expectGoldenSection("kernel", lines);
}

// Simulated cycles and profiler attribution of the kernels on the default
// and dual-mul cores.
TEST(IsdGen, SimCyclesAndProfileMatch) {
  std::vector<std::string> lines;
  for (const auto& pt : difftest::defaultSweep()) {
    if (pt.name != "default" && pt.name != "dual-mul") continue;
    for (bool fast : {false, true}) {
      RecordCompiler rc(pt.cfg, difftest::oracleOptions(fast));
      for (const auto& k : dspstoneKernels()) {
        Program prog = dfl::parseDflOrDie(k.dfl);
        lines.push_back(
            simLine("sim " + k.name + " " + pt.name + " " + modeName(fast),
                    rc.compile(prog).prog, prog, k.ticks));
      }
    }
  }
  expectGoldenSection("sim", lines);
}

// The committed difftest corpus through the same gate.
TEST(IsdGen, CorpusCompilesBitIdenticalAcrossSweep) {
  auto files = difftest::listCorpusFiles(RECORD_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  std::vector<std::string> lines;
  for (const auto& path : files) {
    difftest::CorpusEntry entry;
    std::string err;
    ASSERT_TRUE(difftest::loadCorpusFile(path, &entry, &err)) << err;
    DiagEngine diag;
    auto prog = dfl::parseDfl(entry.source, diag);
    ASSERT_TRUE(prog.has_value()) << path << "\n" << diag.str();
    for (const auto& pt : difftest::defaultSweep()) {
      for (bool fast : {false, true}) {
        RecordCompiler rc(pt.cfg, difftest::oracleOptions(fast));
        lines.push_back(goldenLine(
            "corpus " + entry.name + " " + pt.name + " " + modeName(fast), rc,
            *prog));
      }
    }
  }
  expectGoldenSection("corpus", lines);
}

// The difftest generator's first ten programs through the same gate.
TEST(IsdGen, SeededProgramsMatchGolden) {
  std::vector<std::string> lines;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DiagEngine diag;
    auto prog = dfl::parseDfl(difftest::generateProgram(seed).render(), diag);
    ASSERT_TRUE(prog.has_value()) << diag.str();
    for (const auto& pt : difftest::defaultSweep()) {
      for (bool fast : {false, true}) {
        RecordCompiler rc(pt.cfg, difftest::oracleOptions(fast));
        lines.push_back(goldenLine("gen seed-" + std::to_string(seed) + " " +
                                       pt.name + " " + modeName(fast),
                                   rc, *prog));
      }
    }
  }
  expectGoldenSection("gen", lines);
}

// Installing a separately compiled table must leave simulator behavior
// untouched: same decode cycle hints, same run, with the installation
// fully reversible.
TEST(IsdGen, InstalledTableKeepsSimBitIdentical) {
  const Kernel& k = kernelByName("fir");
  Program prog = dfl::parseDflOrDie(k.dfl);
  RecordCompiler rc((TargetConfig()));
  TargetProgram tp = rc.compile(prog).prog;

  auto runOnce = [&tp]() {
    Machine m(tp);
    return m.run();
  };
  RunResult before = runOnce();

  DiagEngine diag;
  auto table = buildCompleteIsaTable(onDiskDesc(), diag);
  ASSERT_TRUE(table.has_value()) << diag.str();
  ASSERT_NE(&*table, &defaultIsaTable());
  const IsaTable* prev = setActiveIsaTable(&*table);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(&activeIsaTable(), &*table);
  RunResult with = runOnce();
  setActiveIsaTable(prev);
  EXPECT_EQ(&activeIsaTable(), &defaultIsaTable());

  EXPECT_EQ(with.status, before.status);
  EXPECT_EQ(with.cycles, before.cycles);
  EXPECT_EQ(with.instructions, before.instructions);
}

// ---------------------------------------------------------------------------
// Property tests over the description pipeline
// ---------------------------------------------------------------------------

TEST(IsdProps, CheckedInDescValidates) {
  DiagEngine diag;
  auto desc = parseTargetDesc(tdspIsdText(), diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  EXPECT_TRUE(validateDesc(*desc, diag)) << diag.str();
  EXPECT_EQ(diag.errorCount(), 0);
  auto table = buildIsaTable(*desc, diag);
  EXPECT_TRUE(table.has_value()) << diag.str();
}

TEST(IsdProps, GeneratedRuleSetsAreWellFormed) {
  for (const auto& pt : difftest::defaultSweep()) {
    RuleSet rs = rulesFor(tdspDesc(), pt.cfg);
    ASSERT_FALSE(rs.rules.empty()) << pt.name;
    std::set<std::string> names;
    std::set<Nonterm> lhsSeen;
    for (const auto& r : rs.rules) {
      SCOPED_TRACE(pt.name + "/" + r.name);
      EXPECT_TRUE(names.insert(r.name).second) << "duplicate rule name";
      // Slot references stay inside the pattern's slot count.
      int slots = RuleSet::numSlots(r);
      for (const auto& e : r.emit) {
        for (const auto* o : {&e.a, &e.b}) {
          if (o->kind == OperTemplate::Kind::Slot) {
            EXPECT_GE(o->slot, 0);
            EXPECT_LT(o->slot, slots);
          }
        }
      }
      // Costs are sane; chain rules never convert a nonterminal to itself.
      EXPECT_GE(r.size, 0);
      EXPECT_GE(r.cycles, 0);
      if (r.isChain()) {
        EXPECT_NE(r.lhs, r.pat.nt);
      }
      lhsSeen.insert(r.lhs);
    }
    // The start symbol is producible and the core storage classes are used.
    EXPECT_TRUE(lhsSeen.count(Nonterm::Stmt)) << pt.name;
    EXPECT_TRUE(lhsSeen.count(Nonterm::Acc)) << pt.name;
    // Every default rule set round-trips through the ISD text form.
    DiagEngine diag;
    auto back = parseIsd(rs.str(), diag);
    ASSERT_TRUE(back.has_value()) << pt.name << "\n" << diag.str();
    EXPECT_EQ(back->str(), rs.str()) << pt.name;
  }
}

// Run the whole description pipeline on arbitrary text: it must either
// succeed end-to-end or report diagnostics -- never crash, never return
// success with errors pending.
void runDescPipeline(const std::string& text) {
  DiagEngine diag;
  auto desc = parseTargetDesc(text, diag);
  if (!desc.has_value()) {
    EXPECT_GT(diag.errorCount(), 0) << "parse failed without diagnostics";
    return;
  }
  if (!validateDesc(*desc, diag)) {
    EXPECT_GT(diag.errorCount(), 0) << "validate failed without diagnostics";
    return;
  }
  // A validated description must compile all the way to tables and rules;
  // a stand-alone table may only fail with diagnostics.
  DiagEngine tdiag;
  auto table = buildIsaTable(*desc, tdiag);
  EXPECT_TRUE(table.has_value()) << tdiag.str();
  DiagEngine cdiag;
  if (!buildCompleteIsaTable(*desc, cdiag)) {
    EXPECT_GT(cdiag.errorCount(), 0) << "table failed without diagnostics";
  }
  for (const auto& pt : difftest::defaultSweep()) {
    RuleSet rs = rulesFor(*desc, pt.cfg);
    for (const auto& r : rs.rules) {
      int slots = RuleSet::numSlots(r);
      for (const auto& e : r.emit) {
        for (const auto* o : {&e.a, &e.b}) {
          if (o->kind == OperTemplate::Kind::Slot) {
            EXPECT_GE(o->slot, 0);
            EXPECT_LT(o->slot, slots);
          }
        }
      }
    }
  }
}

TEST(IsdProps, SeededMutationsNeverCrash) {
  std::vector<std::string> baseLines;
  {
    std::istringstream in(tdspIsdText());
    std::string line;
    while (std::getline(in, line)) baseLines.push_back(line);
  }
  ASSERT_GT(baseLines.size(), 10u);

  for (uint64_t seed = 1; seed <= 50; ++seed) {
    uint64_t s = seed * 0x9e3779b97f4a7c15ull;
    auto rnd = [&s](uint64_t n) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return n ? s % n : 0;
    };
    std::vector<std::string> lines = baseLines;
    int edits = 1 + static_cast<int>(rnd(3));
    for (int e = 0; e < edits && !lines.empty(); ++e) {
      size_t i = rnd(lines.size());
      switch (rnd(6)) {
        case 0:  // delete a line
          lines.erase(lines.begin() + static_cast<long>(i));
          break;
        case 1:  // duplicate a line (dup insn/rule diagnostics)
          lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
          break;
        case 2:  // truncate mid-line (clause cut off)
          if (!lines[i].empty()) lines[i].resize(rnd(lines[i].size()));
          break;
        case 3: {  // replace one word with garbage
          std::istringstream ws(lines[i]);
          std::vector<std::string> words;
          std::string w;
          while (ws >> w) words.push_back(w);
          if (!words.empty()) {
            words[rnd(words.size())] = "bogus";
            std::string joined;
            for (const auto& ww : words)
              joined += (joined.empty() ? "" : " ") + ww;
            lines[i] = joined;
          }
          break;
        }
        case 4: {  // swap two lines (reorder clauses)
          size_t j = rnd(lines.size());
          std::swap(lines[i], lines[j]);
          break;
        }
        case 5:  // inject a garbage clause
          lines.insert(lines.begin() + static_cast<long>(i),
                       "zzz quux 12 ; nonsense");
          break;
      }
    }
    std::string text;
    for (const auto& l : lines) text += l + "\n";
    SCOPED_TRACE("mutation seed " + std::to_string(seed));
    runDescPipeline(text);
  }
}

// Each malformed description produces a located diagnostic naming the
// problem, not a crash and not a silent success.
void expectRejects(const std::string& text, const std::string& needle,
                   bool wantLocated = true) {
  DiagEngine diag;
  auto desc = parseTargetDesc(text, diag);
  bool ok = desc.has_value() && validateDesc(*desc, diag);
  EXPECT_FALSE(ok) << "description unexpectedly valid:\n" << text;
  ASSERT_GT(diag.errorCount(), 0);
  EXPECT_NE(diag.str().find(needle), std::string::npos)
      << "diagnostics lack '" << needle << "':\n" << diag.str();
  if (wantLocated) {
    bool located = false;
    for (const auto& d : diag.all()) located |= d.loc.line > 0;
    EXPECT_TRUE(located) << diag.str();
  }
}

constexpr const char* kToyDesc = R"(target toy
insn LAC class load-store operands 1 flags aCm cycles 1
insn SACL class load-store operands 1 flags acM cycles 1
rule store stmt <- (store mem acc) emit SACL $0 cost 1,1
rule load acc <- mem emit LAC $0 cost 1,1
)";

TEST(IsdProps, ToyDescIsValid) {
  DiagEngine diag;
  auto desc = parseTargetDesc(kToyDesc, diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  EXPECT_TRUE(validateDesc(*desc, diag)) << diag.str();
}

TEST(IsdProps, MalformedDescriptionsDiagnoseWithLocations) {
  // No target clause.
  expectRejects("insn LAC class load-store operands 1 flags aCm cycles 1\n",
                "target");
  // Unknown opcode in an insn clause.
  expectRejects(std::string(kToyDesc) +
                    "insn FROB class acc-alu operands 0 flags - cycles 1\n",
                "FROB");
  // Unknown opcode class.
  expectRejects(std::string(kToyDesc) +
                    "insn ADD class warp-core operands 1 flags acCm cycles 1\n",
                "warp-core");
  // Unknown feature name (the requires list stops at it, so it's empty).
  expectRejects(
      std::string(kToyDesc) +
          "insn ADD class acc-alu operands 1 flags acCm requires warp cycles 1\n",
      "requires");
  // Duplicate insn clause.
  expectRejects(std::string(kToyDesc) +
                    "insn LAC class load-store operands 1 flags aCm cycles 1\n",
                "duplicate insn");
  // Out-of-range operand and cycle counts.
  expectRejects(std::string(kToyDesc) +
                    "insn ADD class acc-alu operands 5 flags acCm cycles 1\n",
                "operand count");
  expectRejects(std::string(kToyDesc) +
                    "insn ADD class acc-alu operands 1 flags acCm cycles 0\n",
                "cycle count");
  // A rule emitting an opcode with no insn clause.
  expectRejects(std::string(kToyDesc) +
                    "rule add acc <- (add acc mem) emit ADD $1 cost 1,1\n",
                "no insn clause");
  // Emit slot out of the pattern's range (caught by the ISD rule parser).
  expectRejects(std::string(kToyDesc) +
                    "rule bad acc <- mem emit LAC $3 cost 1,1\n",
                "$3");
  // Chain rule converting a nonterminal to itself.
  expectRejects(std::string(kToyDesc) + "rule self acc <- acc emit - cost 0,0\n",
                "chain");
  // A lhs nonterminal unreachable from the start symbol.
  expectRejects(std::string(kToyDesc) + "rule orphan imm16 <- imm8 emit - cost 0,0\n",
                "unreachable");
  // A zero-cost chain cycle would let the matcher convert forever. The
  // cycle is a whole-grammar property, so this diagnostic is unlocated.
  expectRejects(std::string(kToyDesc) +
                    "rule l0 acc <- mem emit - cost 0,0\n"
                    "rule s0 mem <- acc emit - cost 0,0\n",
                "chain-rule cycle", /*wantLocated=*/false);
  // Garbage clause text.
  expectRejects(std::string(kToyDesc) + "zzz quux 12\n", "unknown directive");
}

// Every simulator engine charges 2 cycles for a branch and 1 for anything
// else, and the translated ledger reads the description's value: a
// description that disagrees is rejected at the offending insn's line.
TEST(IsdProps, CyclesOtherThanTheEnginesChargeAreRejected) {
  struct Case {
    std::string text;
    int line;
    const char* needle;
  };
  std::string lacTwo = kToyDesc;
  const std::string lacOne = "flags aCm cycles 1";
  lacTwo.replace(lacTwo.find(lacOne), lacOne.size(), "flags aCm cycles 2");
  const Case cases[] = {
      {std::string(kToyDesc) +
           "insn BANZ class branch operands 1 flags B ar cycles 3\n",
       6, "insn 'BANZ': cycles 3 differs from the 2"},
      {lacTwo, 2, "insn 'LAC': cycles 2 differs from the 1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.needle);
    DiagEngine diag;
    auto desc = parseTargetDesc(c.text, diag);
    ASSERT_TRUE(desc.has_value()) << diag.str();
    EXPECT_FALSE(validateDesc(*desc, diag));
    ASSERT_EQ(diag.errorCount(), 1) << diag.str();
    EXPECT_NE(diag.str().find(c.needle), std::string::npos) << diag.str();
    EXPECT_EQ(diag.all().front().loc.line, c.line) << diag.str();
  }
}

// ---------------------------------------------------------------------------
// The ISE bridge retargets the full pipeline
// ---------------------------------------------------------------------------

TEST(IsdBridge, ExtractionRulesDriveFullCompiler) {
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(TargetConfig{}));
  ise::GeneratedCompiler gc(nl, ise::extractInstructionSet(nl));
  ASSERT_TRUE(gc.usable()) << gc.describe();

  TargetConfig cfg;
  RuleSet rs = ise::rulesFromExtraction(gc.rules(), cfg);
  ASSERT_FALSE(rs.rules.empty());

  // The generated grammar round-trips as ISD text like any other rule set.
  DiagEngine diag;
  auto back = parseIsd(rs.str(), diag);
  ASSERT_TRUE(back.has_value()) << diag.str();
  EXPECT_EQ(back->str(), rs.str());

  // And it drives the full RecordCompiler pipeline (selection, regalloc,
  // layout), not just the straight-line GeneratedCompiler.
  Program prog = dfl::parseDflOrDie(R"(
    program bridge_demo;
    input a : fix;
    input b : fix;
    input c : fix;
    output y : fix;
    output z : fix;
    begin
      y := (a + b) - 3;
      z := (a - b) + (c + 5);
    end
  )");
  RecordCompiler rc(std::move(rs), CodegenOptions{});
  TargetProgram tp = rc.compile(prog).prog;
  Measurement m = runAndCompare(tp, prog, defaultStimulus(prog, 3, 2));
  EXPECT_TRUE(m.ok) << m.error;
}

}  // namespace
}  // namespace record

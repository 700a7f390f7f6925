// Retargeting-path tests: the compiler driven by an explicit instruction-set
// description (ISD text round-trip), configuration sweeps over all kernels,
// and binary encode round-trips of compiled programs.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "codegen/baseline.h"
#include "codegen/pipeline.h"
#include "dfl/frontend.h"
#include "dspstone/harness.h"
#include "dspstone/kernels.h"
#include "target/desc.h"
#include "target/encode.h"
#include "target/tdsp.h"

namespace record {
namespace {

// ---------------------------------------------------------------------------
// Explicit-description retargeting: textual ISD -> compiler.
// ---------------------------------------------------------------------------

TEST(IsdRetarget, CompilerFromIsdTextMatchesBuiltin) {
  TargetConfig cfg;
  RuleSet builtin = rulesFor(tdspDesc(), cfg);
  // Round-trip the description through its textual form -- the "explicit
  // target model" a user would author or ISE would emit.
  DiagEngine diag;
  auto desc = parseTargetDesc(builtin.str(), diag);
  ASSERT_TRUE(desc.has_value()) << diag.str();
  const RuleSet parsed = rulesFor(*desc, cfg);

  for (const char* kn : {"dot_product", "complex_update", "fir"}) {
    const Kernel& k = kernelByName(kn);
    auto prog = dfl::parseDflOrDie(k.dfl);
    auto fromText =
        RecordCompiler(parsed, recordOptions()).compile(prog);
    auto fromBuiltin =
        RecordCompiler(cfg, recordOptions()).compile(prog);
    EXPECT_EQ(fromText.stats.sizeWords, fromBuiltin.stats.sizeWords) << kn;
    auto m = runAndCompare(fromText.prog, prog,
                           defaultStimulus(prog, 3, k.ticks));
    EXPECT_TRUE(m.ok) << kn << ": " << m.error;
  }
}

TEST(IsdRetarget, RemovingMacRulesStillCompilesCorrectly) {
  // Strip the multiply-accumulate super-rules: the compiler must fall back
  // to mul + add covers (bigger, still correct) -- retargeting to a core
  // whose description simply lacks the pattern.
  TargetConfig cfg;
  RuleSet rules = rulesFor(tdspDesc(), cfg);
  RuleSet reduced = rules;
  reduced.rules.clear();
  for (const auto& r : rules.rules) {
    if (r.name == "mac" || r.name == "mac_imm" || r.name == "smac" ||
        r.name == "msub" || r.name == "smsub")
      continue;
    reduced.rules.push_back(r);
  }
  const Kernel& k = kernelByName("dot_product");
  auto prog = dfl::parseDflOrDie(k.dfl);
  auto full = RecordCompiler(rules, recordOptions()).compile(prog);
  auto cut = RecordCompiler(reduced, recordOptions()).compile(prog);
  EXPECT_GT(cut.stats.sizeWords, full.stats.sizeWords);
  auto m = runAndCompare(cut.prog, prog, defaultStimulus(prog, 3, k.ticks));
  EXPECT_TRUE(m.ok) << m.error;
}

TEST(IsdRetarget, CustomRuleChangesSelection) {
  // Teach the description a cheaper "add immediate 1" (a fictitious INC
  // encoded as ADDK #1 but priced at zero cost): the matcher must pick it.
  TargetConfig cfg;
  RuleSet rules = rulesFor(tdspDesc(), cfg);
  DiagEngine diag;
  auto extra = parseTargetDesc(
      "rule inc acc <- (add acc (const 1))  emit ADDK $1  cost 0,0\n",
      diag);
  ASSERT_TRUE(extra.has_value()) << diag.str();
  rules.rules.push_back(extra->rules.at(0).rule);
  rules.config = cfg;

  auto prog = dfl::parseDflOrDie(
      "program inc; input a : fix; output y : fix; begin y := a + 1; end");
  auto res = RecordCompiler(rules, recordOptions()).compile(prog);
  auto m = runAndCompare(res.prog, prog, defaultStimulus(prog, 1, 1));
  EXPECT_TRUE(m.ok) << m.error;
}

// ---------------------------------------------------------------------------
// Kernel x configuration matrix.
// ---------------------------------------------------------------------------

// Compiles `kernel` for the configuration named `config` and checks it
// against the DFL interpreter on two stimuli.
void compileAndVerify(const std::string& kernel, const std::string& c) {
  TargetConfig cfg;
  if (c == "dualmul") {
    cfg.hasDualMul = true;
    cfg.memBanks = 2;
  } else if (c == "ars2") {
    cfg.numAddrRegs = 2;
  } else if (c == "nofeat") {
    cfg.hasRpt = false;
    cfg.hasDmov = false;
    cfg.hasSat = false;
  } else if (c == "cycles") {
    // default config, cycle-optimizing options below
  }
  CodegenOptions opt = recordOptions();
  if (c == "cycles") opt.cost = CostKind::Cycles;

  const Kernel& k = kernelByName(kernel);
  auto prog = dfl::parseDflOrDie(k.dfl);
  auto res = RecordCompiler(cfg, opt).compile(prog);
  for (uint32_t seed : {2u, 9u}) {
    auto m =
        runAndCompare(res.prog, prog, defaultStimulus(prog, seed, k.ticks));
    EXPECT_TRUE(m.ok) << kernel << "/" << c << ": " << m.error;
  }
}

struct MatrixCase {
  const char* kernel;
  const char* config;
};

class KernelConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(KernelConfigMatrix, CompilesAndVerifies) {
  compileAndVerify(GetParam().kernel, GetParam().config);
}

// The kernel_config names short enough that gtest's printed parameter bytes
// fall inside the first 100 characters of the listed test name.
bool isShortArs2Case(std::string_view kernel, std::string_view config) {
  return config == "ars2" &&
         (kernel == "real_update" || kernel == "dot_product" ||
          kernel == "convolution");
}

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> out;
  for (const char* k : {"real_update", "complex_multiply", "complex_update",
                        "n_real_updates", "n_complex_updates", "fir",
                        "iir_biquad_one_section", "iir_biquad_n_sections",
                        "dot_product", "convolution"}) {
    if (std::string_view(k) == "fir") continue;  // FirConfigMatrix, below
    for (const char* c : {"dualmul", "ars2", "nofeat", "cycles"}) {
      if (isShortArs2Case(k, c)) continue;  // Ars2ConfigMatrix, below
      out.push_back({k, c});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelConfigMatrix,
                         ::testing::ValuesIn(matrixCases()),
                         [](const auto& info) {
                           return std::string(info.param.kernel) + "_" +
                                  info.param.config;
                         });

// gtest prints a MatrixCase as the raw bytes of its two pointers. ASLR moves
// their high bytes from run to run, and the low byte moves whenever the
// linked string literals shift, so a listed KernelConfigMatrix name that
// reaches those bytes is not stable. fir's cases and the three short ars2
// cases are plain tests, whose names are the same on every run and build;
// the other cases keep their parameterized names.
TEST(FirConfigMatrix, CompilesAndVerifiesDualmul) {
  compileAndVerify("fir", "dualmul");
}
TEST(FirConfigMatrix, CompilesAndVerifiesArs2) {
  compileAndVerify("fir", "ars2");
}
TEST(FirConfigMatrix, CompilesAndVerifiesNofeat) {
  compileAndVerify("fir", "nofeat");
}
TEST(FirConfigMatrix, CompilesAndVerifiesCycles) {
  compileAndVerify("fir", "cycles");
}
TEST(Ars2ConfigMatrix, CompilesAndVerifiesRealUpdate) {
  compileAndVerify("real_update", "ars2");
}
TEST(Ars2ConfigMatrix, CompilesAndVerifiesDotProduct) {
  compileAndVerify("dot_product", "ars2");
}
TEST(Ars2ConfigMatrix, CompilesAndVerifiesConvolution) {
  compileAndVerify("convolution", "ars2");
}

// ---------------------------------------------------------------------------
// Binary encoding of compiled programs.
// ---------------------------------------------------------------------------

class EncodeKernel : public ::testing::TestWithParam<const char*> {};

TEST_P(EncodeKernel, CompiledProgramEncodesAndDecodesLosslessly) {
  TargetConfig cfg;
  const Kernel& k = kernelByName(GetParam());
  auto prog = dfl::parseDflOrDie(k.dfl);
  auto res = RecordCompiler(cfg, recordOptions()).compile(prog);
  std::string err;
  auto image = encode(res.prog, &err);
  ASSERT_TRUE(image.has_value()) << err;
  EXPECT_EQ(image->words.size(), res.prog.code.size());
  auto back = decode(*image);
  for (size_t i = 0; i < back.size(); ++i) {
    const Instr& orig = res.prog.code[i];
    EXPECT_EQ(back[i].op, orig.op) << i;
    if (!opInfo(orig.op).isBranch) {
      EXPECT_EQ(back[i].a, orig.a) << i;
      EXPECT_EQ(back[i].b, orig.b) << i;
    } else {
      // Branch targets decode as absolute indices.
      EXPECT_EQ(back[i].targetLabel,
                "@" + std::to_string(res.prog.labelIndex(orig.targetLabel)))
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EncodeKernel,
                         ::testing::Values("real_update", "fir",
                                           "iir_biquad_n_sections",
                                           "n_complex_updates",
                                           "convolution"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace record

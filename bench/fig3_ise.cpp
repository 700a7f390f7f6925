// E3 -- Fig. 3: instruction-set extraction. Reproduces the figure's example
// (register file + accumulator + ALU whose control '0' selects add,
// extracting "Reg[bb] := Reg[aa] + acc" with instruction bits /aa-0-0-bb/)
// and then runs extraction over the tdsp datapath netlist, validating every
// extracted pattern against the RTL simulator.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "ise/extract.h"
#include "mdtable.h"
#include "netlist/parser.h"
#include "netlist/rtlsim.h"
#include "target/tdsp.h"

namespace record {
namespace {

const char* kFig3 = R"(
netlist fig3
field aa 2 0
field bb 2 2
field c1 2 4
field regwe 1 6
field accwe 1 7
storage reg memory 4 16 raddr aa waddr bb
storage acc reg 16
unit alu alu 16 op c1 in0 reg.out in1 acc.out
connect reg.in alu.out
connect reg.we regwe
connect acc.in alu.out
connect acc.we accwe
)";

void printTables() {
  std::printf("Fig. 3: instruction-set extraction from an RT netlist\n");
  std::printf(
      "--------------------------------------------------------------\n");
  auto nl = nl::parseNetlistOrDie(kFig3);
  auto patterns = ise::extractInstructionSet(nl);
  std::printf("netlist '%s': %zu register-transfer patterns extracted\n\n",
              nl.name.c_str(), patterns.size());
  for (const auto& p : patterns) std::printf("  %s\n", p.str().c_str());

  std::printf(
      "\nThe paper's example pattern (operation Reg[bb]:=Reg[aa]+acc):\n");
  for (const auto& p : patterns) {
    if (p.destStorage == "reg" && p.expr.str() == "add(reg[aa], acc)")
      std::printf("  -> %s\n", p.str().c_str());
  }

  TargetConfig cfg;
  auto tnl = nl::parseNetlistOrDie(tdspDatapathNetlist(cfg));
  auto tpat = ise::extractInstructionSet(tnl);
  std::printf(
      "\ntdsp datapath netlist: %zu patterns (ADD/SUB/AND/moves/MAC slice)\n",
      tpat.size());
  for (const auto& p : tpat) std::printf("  %s\n", p.str().c_str());
  std::printf("\n");

  bench::MdTable t({"netlist", "RT patterns extracted"});
  t.add({"Fig. 3 (register file + accumulator + ALU)",
         bench::cell("%zu", patterns.size())});
  t.add({"tdsp datapath", bench::cell("%zu", tpat.size())});
  t.print();
  std::printf("\n");
}

void BM_ExtractFig3(benchmark::State& state) {
  auto nl = nl::parseNetlistOrDie(kFig3);
  for (auto _ : state) {
    auto patterns = ise::extractInstructionSet(nl);
    benchmark::DoNotOptimize(patterns.size());
  }
}
BENCHMARK(BM_ExtractFig3);

void BM_ExtractTdsp(benchmark::State& state) {
  TargetConfig cfg;
  auto nl = nl::parseNetlistOrDie(tdspDatapathNetlist(cfg));
  for (auto _ : state) {
    auto patterns = ise::extractInstructionSet(nl);
    benchmark::DoNotOptimize(patterns.size());
  }
}
BENCHMARK(BM_ExtractTdsp);

}  // namespace
}  // namespace record

int main(int argc, char** argv) {
  record::printTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

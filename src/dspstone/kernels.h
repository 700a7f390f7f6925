// The ten DSPStone kernels of Table 1, as DFL sources, plus hand-written
// tdsp reference assembly for each (the role of the paper's assembly
// library: the 100 % line). Reference assemblies are verified against the
// golden model by tests/dspstone_test.cpp before any bench reports ratios.
#pragma once

#include <string>
#include <vector>

namespace record {

struct Kernel {
  std::string name;   // Table 1 row name
  std::string dfl;    // DFL source
  std::string refAsm; // hand-written tdsp assembly (default TargetConfig)
  int ticks = 4;      // verification ticks (delay-line kernels need > 1)
};

/// All ten kernels in Table 1 row order.
const std::vector<Kernel>& dspstoneKernels();

/// Lookup by name; throws std::out_of_range if absent.
const Kernel& kernelByName(const std::string& name);

/// The five DSPStone loop kernels with their size constant raised as far
/// as 2048 data words allow: the sizes the sim_long benchmark workload
/// runs. Same names as dspstoneKernels(); refAsm is empty.
const std::vector<Kernel>& longKernels();

}  // namespace record

// The built-in tdsp target: src/target/tdsp.isd, the one description of
// the core (embedded at build time), plus the equivalent RT-level netlist
// of its datapath so the instruction-set-extraction path (src/ise) can
// re-derive an instruction set from structure alone and cross-check it
// against the description.
//
// The default rule set of a core variant is rulesFor(tdspDesc(), cfg); the
// default IsaTable (defaultIsaTable(), target/isa.h) is compiled from the
// same description.
#pragma once

#include <string>

#include "target/config.h"
#include "target/desc.h"

namespace record {

/// The checked-in src/target/tdsp.isd text, embedded at build time.
const std::string& tdspIsdText();

/// tdsp.isd parsed and validated on first use (throws std::logic_error
/// with the diagnostics if the embedded description does not compile --
/// that is a build break, not a runtime condition).
const TargetDesc& tdspDesc();

/// Textual RT netlist of the tdsp datapath (accumulator, ALU with
/// zero/immediate/product operand muxes, and -- with hasMac -- the T/P
/// multiplier pipeline). Parsable by nl::parseNetlist.
std::string tdspDatapathNetlist(const TargetConfig& cfg);

}  // namespace record

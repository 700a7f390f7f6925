#include "target/tdsp.h"

#include <sstream>
#include <stdexcept>

namespace record {

const TargetDesc& tdspDesc() {
  static const TargetDesc desc = [] {
    DiagEngine diag;
    diag.setSourceName("tdsp.isd");
    auto d = parseTargetDesc(tdspIsdText(), diag);
    if (!d || !validateDesc(*d, diag))
      throw std::logic_error("embedded tdsp.isd does not compile:\n" +
                             diag.str());
    return *d;
  }();
  return desc;
}

const IsaTable& defaultIsaTable() {
  static const IsaTable table = [] {
    DiagEngine diag;
    diag.setSourceName("tdsp.isd");
    auto t = buildCompleteIsaTable(tdspDesc(), diag);
    if (!t)
      throw std::logic_error("embedded tdsp.isd has no complete ISA table:\n" +
                             diag.str());
    return *t;
  }();
  return table;
}

std::string tdspDatapathNetlist(const TargetConfig& cfg) {
  // Field layout is computed on the fly; only names matter to the
  // extraction/simulation consumers.
  std::ostringstream os;
  int lsb = 0;
  auto field = [&](const char* name, int width) {
    os << "field " << name << " " << width << " " << lsb << "\n";
    lsb += width;
  };
  // Cap the modelled memory so exhaustive RTL property tests stay fast; the
  // netlist is a datapath model, not the full address space.
  int memWords = cfg.dataWords < 64 ? cfg.dataWords : 64;
  int addrBits = 1;
  while ((1 << addrBits) < memWords) ++addrBits;

  os << "netlist tdsp\n";
  field("maddr", addrBits);
  field("imm", 8);
  field("aluop", 2);
  field("asel", 1);   // ALU in0: 0 = acc, 1 = zero
  field("bsel", 1);   // ALU in1 pre-mux: 0 = mem, 1 = sign-extended imm
  field("accwe", 1);
  field("memwe", 1);
  if (cfg.hasMac) {
    field("psel", 1);  // ALU in1: 0 = bmux, 1 = product register
    field("twe", 1);
    field("pwe", 1);
  }

  os << "storage mem memory " << memWords << " 16 raddr maddr waddr maddr\n";
  os << "storage acc reg 16\n";
  if (cfg.hasMac) {
    os << "storage t reg 16\n";
    os << "storage p reg 16\n";
  }

  os << "unit zero const 16 value 0\n";
  os << "unit immx sext in 8 out 16 from imm\n";
  os << "unit amux mux2 16 sel asel in0 acc.out in1 zero.out\n";
  os << "unit bmux mux2 16 sel bsel in0 mem.out in1 immx.out\n";
  if (cfg.hasMac) {
    os << "unit pmux mux2 16 sel psel in0 bmux.out in1 p.out\n";
    os << "unit mul mult in0 t.out in1 mem.out out 16\n";
    os << "unit alu alu 16 op aluop in0 amux.out in1 pmux.out\n";
  } else {
    os << "unit alu alu 16 op aluop in0 amux.out in1 bmux.out\n";
  }

  os << "connect acc.in alu.out\n";
  os << "connect acc.we accwe\n";
  os << "connect mem.in acc.out\n";
  os << "connect mem.we memwe\n";
  if (cfg.hasMac) {
    os << "connect t.in mem.out\n";
    os << "connect t.we twe\n";
    os << "connect p.in mul.out\n";
    os << "connect p.we pwe\n";
  }
  return os.str();
}

}  // namespace record

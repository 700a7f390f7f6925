// Extraction -> BURS rules: the RECORD loop closed. src/ise/bridge.h
// classifies netlist-extracted patterns into capability kinds; this file
// maps each kind onto a BURS rule of the stock grammar so the extracted
// instruction set retargets the full compiler pipeline (isel, regalloc,
// mode minimization, encode) instead of only the straight-line
// GeneratedCompiler.
#include "ise/bridge.h"

namespace record::ise {

namespace {

Rule chainRule(const char* name, Nonterm lhs, Nonterm from) {
  Rule r;
  r.name = name;
  r.lhs = lhs;
  r.pat = PatNode::leaf(from);
  assignSlots(r.pat);
  return r;
}

Rule binRule(const char* name, Op op, Nonterm rightNt, Opcode emit,
             int ovm) {
  Rule r;
  r.name = name;
  r.lhs = Nonterm::Acc;
  r.pat = PatNode::node(
      op, {PatNode::leaf(Nonterm::Acc), PatNode::leaf(rightNt)});
  assignSlots(r.pat);
  EmitTemplate e;
  e.op = emit;
  e.a = OperTemplate::fromSlot(0);
  r.emit.push_back(e);
  r.mode.ovm = ovm;
  return r;
}

}  // namespace

RuleSet rulesFromExtraction(const std::vector<GenRule>& extracted,
                            const TargetConfig& cfg) {
  RuleSet rs;
  rs.config = cfg;
  bool have[9] = {};
  for (const GenRule& g : extracted) {
    int k = static_cast<int>(g.kind);
    if (k >= 0 && k < 9) have[k] = true;
  }
  auto has = [&](GenRuleKind k) { return have[static_cast<int>(k)]; };
  auto add = [&](Rule r) { rs.rules.push_back(std::move(r)); };
  using K = GenRuleKind;

  // Emission order follows tdsp.isd: statements first, then loads, then
  // the ALU families -- deterministic regardless of extraction order.
  if (has(K::StoreAcc)) {
    Rule r;
    r.name = "gen_store";
    r.lhs = Nonterm::Stmt;
    r.pat = PatNode::node(Op::Store, {PatNode::leaf(Nonterm::Mem),
                                      PatNode::leaf(Nonterm::Acc)});
    assignSlots(r.pat);
    EmitTemplate e;
    e.op = Opcode::SACL;
    e.a = OperTemplate::fromSlot(0);
    r.emit.push_back(e);
    add(std::move(r));
  }
  if (has(K::LoadMem)) {
    Rule r = chainRule("gen_load", Nonterm::Acc, Nonterm::Mem);
    EmitTemplate e;
    e.op = Opcode::LAC;
    e.a = OperTemplate::fromSlot(0);
    r.emit.push_back(e);
    add(std::move(r));
  }
  if (has(K::LoadImm)) {
    Rule r = chainRule("gen_load_imm", Nonterm::Acc, Nonterm::Imm8);
    EmitTemplate e;
    e.op = Opcode::LACK;
    e.a = OperTemplate::fromSlot(0);
    r.emit.push_back(e);
    add(std::move(r));
  }
  // A store capability also gives the register allocator its spill path
  // (mem <- acc through a fresh temp), same shape as the stock grammar.
  if (has(K::StoreAcc)) {
    Rule r = chainRule("gen_spill", Nonterm::Mem, Nonterm::Acc);
    EmitTemplate e;
    e.op = Opcode::SACL;
    e.a = OperTemplate::temp();
    r.emit.push_back(e);
    add(std::move(r));
  }
  if (has(K::AddMem))
    add(binRule("gen_add", Op::Add, Nonterm::Mem, Opcode::ADD, 0));
  if (has(K::AddImm))
    add(binRule("gen_add_imm", Op::Add, Nonterm::Imm8, Opcode::ADDK, 0));
  if (has(K::SubMem))
    add(binRule("gen_sub", Op::Sub, Nonterm::Mem, Opcode::SUB, 0));
  if (has(K::SubImm))
    add(binRule("gen_sub_imm", Op::Sub, Nonterm::Imm8, Opcode::SUBK, 0));
  if (has(K::AndMem))
    add(binRule("gen_and", Op::And, Nonterm::Mem, Opcode::AND, -1));
  if (has(K::AndImm))
    add(binRule("gen_and_imm", Op::And, Nonterm::Imm8, Opcode::ANDK, -1));
  return rs;
}

}  // namespace record::ise

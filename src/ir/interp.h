// Golden-model interpreter for lowered programs. Every compiled kernel is
// checked against this model by running the target simulator on the same
// stimulus (tests/integration). Semantics deliberately mirror the tdsp
// datapath: 32-bit accumulator intermediates (wrapping, or saturating for
// sat ops) and 16-bit wrapped stores.
//
// The constructor decodes the program once into a flat form: every symbol
// with storage gets a slot, every loop's induction variable a cell, every
// expression node an entry in one node array with its kids given by index
// and its cells already resolved, every statement an entry with its roots
// and loop range. run() walks that form with no lookups. A reference that
// cannot be resolved becomes a trap node, so every runtime error is still
// raised only when the faulting node or statement is evaluated.
//
// The model stays independent of the compiler: it shares only the
// ir/type.h datapath helpers, and folds constant subtrees with its own
// evaluator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"

namespace record {

class Interp {
 public:
  explicit Interp(const Program& prog);
  // The flat form points into this object's own storage.
  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  /// Preload an array input/var. Shorter vectors zero-fill the tail.
  void setArray(const std::string& name, const std::vector<int64_t>& vals);
  /// Set a scalar's current value.
  void setScalar(const std::string& name, int64_t v);
  /// Provide a per-tick stream for a scalar input (tick i reads element i).
  void setStream(const std::string& name, std::vector<int64_t> perTick);

  /// Execute the program body `ticks` times, shifting delay lines between
  /// ticks and recording output scalars per tick.
  void run(int ticks = 1);

  int64_t scalar(const std::string& name) const;
  /// The cells of `name`: an array's words, or a scalar's current value
  /// followed by its delayed values (x@1, x@2, ...).
  const std::vector<int64_t>& array(const std::string& name) const;
  /// Per-tick trace of an output scalar (one entry per tick run so far).
  const std::vector<int64_t>& trace(const std::string& name) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  enum class NodeKind : uint8_t {
    Const,  // value
    Load,   // *cells: a scalar cell (delay resolved) or an induction cell
    Index,  // cells[eval(a)], bounds-checked against size
    Trap,   // evaluate a (if any), then throw traps_[size]
    // Operators, from Neg on: kids a (and b).
    Neg,
    Add, Sub, Mul, SatAdd, SatSub, Shl, Shr, Shru, And, Or, Xor,
  };
  struct Node {
    NodeKind kind = NodeKind::Const;
    uint32_t a = kNone, b = kNone;  // kids
    uint32_t size = 0;              // Index: cell count; Trap: message
    int64_t value = 0;
    int64_t* cells = nullptr;
    const Symbol* sym = nullptr;    // Index: named in its error
  };

  enum class StepKind : uint8_t {
    Store,    // *cells = rhs
    StoreAt,  // cells[eval(index)] = rhs, bounds-checked against size
    Trap,     // evaluate rhs, then throw traps_[size]
    Loop,     // *cells = lo + k*step for k < trips: run steps (this, end)
  };
  struct Step {
    StepKind kind = StepKind::Store;
    uint32_t rhs = kNone, index = kNone;
    uint32_t size = 0;  // StoreAt: cell count; Trap: message
    uint32_t end = 0;   // Loop: one past its body
    int64_t* cells = nullptr;
    const Symbol* sym = nullptr;  // StoreAt: named in its error
    int64_t lo = 0, step = 0, trips = 0;
  };

  struct Trace {
    const Symbol* sym;
    const int64_t* cell;
    std::vector<int64_t> vals;
  };
  struct Stream {
    std::string name;
    int64_t* cell;  // null: the symbol has no storage
    std::vector<int64_t> vals;
  };

  struct Scope;  // constructor-local resolution tables
  void flatten(const std::vector<Stmt>& body, Scope& sc);
  uint32_t flatten(const Expr& e, Scope& sc);
  uint32_t message(std::string msg);
  int64_t eval(uint32_t n) const;
  int64_t operand(uint32_t n) const;
  int64_t load(const Node& index) const;
  void exec(uint32_t begin, uint32_t end);
  /// The slot of `s`, or store_.size() when it has no storage here.
  size_t slotFor(const Symbol* s) const;
  size_t slotOf(const std::string& name) const;

  const Program& prog_;
  // Slot storage: arrays have arraySize cells; scalars have 1 + delayDepth
  // cells, cell k holding the value k ticks ago.
  std::vector<std::vector<int64_t>> store_;
  std::vector<const Symbol*> slotSym_;  // the symbol of each slot
  std::vector<size_t> delayLines_;      // slots shifted after every tick
  std::vector<int64_t> ivars_;          // one cell per loop ivar symbol
  std::vector<Node> nodes_;
  std::vector<Step> steps_;
  std::vector<std::string> traps_;
  std::vector<Trace> traces_;    // output scalars, in symbol order
  std::vector<Stream> streams_;  // sorted by name
  int tick_ = 0;
};

}  // namespace record

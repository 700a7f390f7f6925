#include "ir/interner.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <new>

namespace record {

/// Bump allocator for canonical nodes: chunks grow geometrically and are
/// only released together, when the arena dies. Single-threaded, like the
/// interner that allocates from it; freeing a node is a no-op, so nodes may
/// die on any thread.
class NodeArena {
 public:
  NodeArena() = default;
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;
  ~NodeArena() {
    while (head_) {
      Chunk* prev = head_->prev;
      ::operator delete(head_);
      head_ = prev;
    }
  }

  void* allocate(size_t bytes, size_t align) {
    size_t at = (used_ + align - 1) & ~(align - 1);
    if (!head_ || at + bytes > head_->size) {
      // Sized for a cold compile's new shapes in one or two chunks.
      size_t size = head_ ? std::min<size_t>(2 * head_->size, kMaxChunk)
                          : kFirstChunk;
      size = std::max(size, bytes + sizeof(Chunk) + align);
      head_ = new (::operator new(size)) Chunk{head_, size};
      at = (sizeof(Chunk) + align - 1) & ~(align - 1);
    }
    used_ = at + bytes;
    return reinterpret_cast<std::byte*>(head_) + at;
  }

 private:
  static constexpr size_t kFirstChunk = 8 << 10;
  static constexpr size_t kMaxChunk = 256 << 10;
  struct Chunk {
    Chunk* prev;
    size_t size;  // bytes, header included
  };
  Chunk* head_ = nullptr;
  size_t used_ = 0;  // bytes of head_ in use, header included
};

namespace {

/// Allocator handing out arena memory. Each copy holds the arena, so the
/// control block of every node built with it keeps the arena alive.
template <class T>
struct ArenaAllocator {
  using value_type = T;
  std::shared_ptr<NodeArena> arena;

  explicit ArenaAllocator(std::shared_ptr<NodeArena> a) : arena(std::move(a)) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena(o.arena) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) noexcept {}  // released with the arena

  template <class U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena == o.arena;
  }
};

// Initial table capacities: a cold compile interns ~50-200 nodes, so
// neither the node list nor the probe table regrows in the common case.
constexpr size_t kInitialNodes = 256;
constexpr size_t kInitialSlots = 2 * kInitialNodes;

}  // namespace

ExprInterner::ExprInterner() : arena_(std::make_shared<NodeArena>()) {}

ExprInterner::~ExprInterner() {
  // One pass, parents (higher IDs) before their kids: clear each tag (the
  // node may outlive us in someone else's hands), then drop our reference.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    (*it)->internOwner = nullptr;
    it->reset();
  }
}

uint32_t ExprInterner::shapeHash(Op op, Type type, int64_t value,
                                 const Symbol* sym, const Expr* const* kids,
                                 size_t numKids) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(op));
  mix(static_cast<uint64_t>(type));
  mix(static_cast<uint64_t>(value));
  mix(reinterpret_cast<uintptr_t>(sym));
  // Kid identity: kids are canonical by the time a node is hashed.
  for (size_t i = 0; i < numKids; ++i) mix(kids[i]->internId);
  // Final avalanche so the low bits (the table index) see every field.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

ExprPtr ExprInterner::intern(const ExprPtr& e) {
  const Expr* c = canonical(*e);
  return c == e.get() ? e : nodes_[c->internId];
}

const Expr* ExprInterner::canonical(const Expr& e) {
  // An already-canonical node needs no rebuild (fast path for the common
  // case of re-interning shared spines).
  if (e.internOwner == this) {
    ++hits_;
    return &e;
  }
  const Expr* kids[2] = {nullptr, nullptr};
  for (size_t i = 0; i < e.kids.size(); ++i) kids[i] = canonical(*e.kids[i]);
  return lookupOrAdd(e.op, e.type, e.value, e.sym, kids, e.kids.size());
}

const Expr* ExprInterner::make(Op op, Type type, int64_t value,
                               const Symbol* sym,
                               std::initializer_list<const Expr*> kids) {
  return lookupOrAdd(op, type, value, sym, kids.begin(), kids.size());
}

const Expr* ExprInterner::lookupOrAdd(Op op, Type type, int64_t value,
                                      const Symbol* sym,
                                      const Expr* const* kids,
                                      size_t numKids) {
  const uint32_t h = shapeHash(op, type, value, sym, kids, numKids);
  if (!table_.empty()) {
    const size_t mask = table_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = table_[i];
      if (s.id == kEmpty) break;
      if (s.hash != h) continue;
      const Expr& c = *nodes_[s.id];
      if (c.op != op || c.type != type || c.value != value || c.sym != sym ||
          c.kids.size() != numKids)
        continue;
      bool same = true;
      for (size_t k = 0; k < numKids; ++k)
        same &= c.kids[k].get() == kids[k];
      if (same) {
        ++hits_;
        return &c;
      }
    }
  }

  // Miss: build the representative from the canonical kids.
  auto n = std::allocate_shared<Expr>(ArenaAllocator<Expr>(arena_));
  n->op = op;
  n->type = type;
  n->value = value;
  n->sym = sym;
  for (size_t k = 0; k < numKids; ++k) {
    assert(kids[k]->internOwner == this && "kids must be canonical here");
    n->kids.push_back(nodes_[kids[k]->internId]);
  }
  const auto id = static_cast<uint32_t>(nodes_.size());
  n->internOwner = this;
  n->internId = id;
  if (nodes_.empty()) nodes_.reserve(kInitialNodes);
  nodes_.push_back(std::move(n));

  if (2 * nodes_.size() > table_.size()) {
    // Keep the table at most half full: double it and reinsert every slot.
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    for (const Slot& s : old)
      if (s.id != kEmpty) insertSlot(s);
  }
  insertSlot({id, h});
  return nodes_.back().get();
}

void ExprInterner::insertSlot(Slot s) {
  const size_t mask = table_.size() - 1;
  size_t i = s.hash & mask;
  while (table_[i].id != kEmpty) i = (i + 1) & mask;
  table_[i] = s;
}

}  // namespace record

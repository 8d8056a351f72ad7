#include "src/util/arena.hpp"

#include <algorithm>

namespace moldable::util {

void* ScratchArena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Try the chunks after the active one (kept from an earlier high-water
  // mark), then grow. Growth doubles so a solve loop settles after a few
  // warm-up iterations.
  while (active_ + 1 < chunks_.size()) {
    ++active_;
    Chunk& c = chunks_[active_];
    c.used = 0;
    const auto addr = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::size_t base = (~addr + 1) & (align - 1);
    if (bytes <= c.size && base <= c.size - bytes) {
      c.used = base + bytes;
      return c.data.get() + base;
    }
  }
  const std::size_t want = std::max(next_chunk_bytes_, bytes + align);
  next_chunk_bytes_ = want * 2;
  Chunk c;
  c.data = std::make_unique<std::byte[]>(want);
  c.size = want;
  chunks_.push_back(std::move(c));
  active_ = chunks_.size() - 1;
  Chunk& back = chunks_.back();
  const auto addr = reinterpret_cast<std::uintptr_t>(back.data.get());
  const std::size_t base = (~addr + 1) & (align - 1);
  back.used = base + bytes;
  return back.data.get() + base;
}

void ScratchArena::rewind(Marker m) {
  if (chunks_.empty()) return;
  active_ = std::min(m.chunk, chunks_.size() - 1);
  chunks_[active_].used = m.used;
  // Later chunks stay allocated; their `used` is reset when they become
  // active again (allocate_slow).
}

std::size_t ScratchArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

std::size_t ScratchArena::used_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i <= active_ && i < chunks_.size(); ++i)
    total += chunks_[i].used;
  return total;
}

namespace {

// Per-thread slot: each thread sees only its own installed arena, so scope
// install/lookup is race-free by construction.
thread_local ScratchArena* tl_active_arena = nullptr;

}  // namespace

ScratchArena& thread_scratch_arena() {
  thread_local ScratchArena arena;
  return arena;
}

ScratchArena& scratch_arena() {
  return tl_active_arena ? *tl_active_arena : thread_scratch_arena();
}

ArenaScope::ArenaScope(ScratchArena* arena) : prev_(tl_active_arena) {
  tl_active_arena = arena;
}

ArenaScope::~ArenaScope() { tl_active_arena = prev_; }

}  // namespace moldable::util

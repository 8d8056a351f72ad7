// Reusable bump-pointer scratch memory for the hot solver kernels.
//
// The dense knapsack DP and the Pareto pair-list merge both need transient
// working memory — a profit row, a flat decision bitmap, ping-pong merge
// buffers — whose lifetime is exactly one solve. Allocating that memory
// fresh on every call (the pre-arena behaviour: one std::vector per DP, one
// per merge step) shows up directly in the pinned kernel benchmarks, because
// the engines solve thousands of instances back to back.
//
// A ScratchArena is a chunked bump allocator:
//
//   * allocate() carves aligned blocks out of geometrically growing chunks;
//     chunks are never reallocated, so every pointer handed out stays valid
//     until the arena is rewound past it;
//   * Frame (RAII) marks a position and rewinds to it on scope exit —
//     nested kernels (reconstruct_rec recursing, fptas calling the DP per
//     dual-search iteration) stack their scratch without stomping on the
//     caller's;
//   * rewinding or reset() never releases chunk memory, so a warm arena
//     services a steady-state solve loop with zero heap traffic.
//
// Kernels pick their arena through scratch_arena(), which returns the arena
// installed by the innermost ArenaScope on this thread, falling back to a
// per-thread default. The core algorithms stay signature-free, and every
// engine thread solves on its own default arena; ArenaScope lets a test pin
// the kernels to an arena it owns. The arena is strictly a memory
// recycler — results never alias arena memory after a kernel returns, so
// the engines' bitwise determinism contract is untouched.
//
// Thread-compatibility: a ScratchArena is single-threaded by design (one
// race lane / worker thread each). The per-thread default keeps parallel
// batch workers isolated without any locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace moldable::util {

class ScratchArena {
 public:
  /// Arena with one initial chunk of `initial_bytes` capacity (allocated
  /// lazily on first use).
  explicit ScratchArena(std::size_t initial_bytes = std::size_t{1} << 16)
      : next_chunk_bytes_(initial_bytes < 64 ? 64 : initial_bytes) {}

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-allocates `bytes` with `align` (power of two). The block stays
  /// valid until a rewind past the current position. Never zeroed.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Uninitialized array of `count` trivially-destructible T.
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Zero-filled array of `count` T (T trivially copyable).
  template <typename T>
  T* alloc_zeroed(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    T* p = alloc<T>(count);
    std::memset(static_cast<void*>(p), 0, count * sizeof(T));
    return p;
  }

  /// A rewindable position. Valid for rewind() as long as no earlier marker
  /// has been rewound to in between.
  struct Marker {
    std::size_t chunk;
    std::size_t used;
  };

  Marker mark() const { return {active_, active_ < chunks_.size() ? chunks_[active_].used : 0}; }

  /// Returns to `m`; blocks allocated after it become reusable. Chunk
  /// memory is kept.
  void rewind(Marker m);

  /// Rewinds to empty, keeping every chunk for reuse.
  void reset() { rewind({0, 0}); }

  /// Marks on construction, rewinds on destruction. The unit of scratch
  /// ownership inside kernels: everything a kernel allocates under a Frame
  /// vanishes when the kernel returns.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena) : arena_(arena), mark_(arena.mark()) {}
    ~Frame() { arena_.rewind(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& arena_;
    Marker mark_;
  };

  /// Total bytes held (all chunks), for tests and introspection.
  std::size_t capacity_bytes() const;

  /// Bytes currently allocated (between the origin and the bump pointer).
  std::size_t used_bytes() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk being bumped
  std::size_t next_chunk_bytes_;
};

inline void* ScratchArena::allocate(std::size_t bytes, std::size_t align) {
  if (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    const auto addr = reinterpret_cast<std::uintptr_t>(c.data.get()) + c.used;
    const std::size_t pad = (~addr + 1) & (align - 1);
    const std::size_t base = c.used + pad;
    if (bytes <= c.size && base <= c.size - bytes) {
      c.used = base + bytes;
      return c.data.get() + base;
    }
  }
  return allocate_slow(bytes, align);
}

/// The arena installed by the innermost ArenaScope on the calling thread,
/// or the thread's default arena when none is installed. Never null.
ScratchArena& scratch_arena();

/// This thread's default arena (lives until thread exit): what
/// scratch_arena() returns when no ArenaScope is installed.
ScratchArena& thread_scratch_arena();

/// RAII installer of the calling thread's active scratch arena (nullable —
/// null re-selects the thread default). Nests like CancelScope.
class ArenaScope {
 public:
  explicit ArenaScope(ScratchArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  ScratchArena* prev_;
};

}  // namespace moldable::util

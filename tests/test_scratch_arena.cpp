// Unit tests for util::ScratchArena, the bump-pointer scratch allocator
// behind the hot knapsack kernels: alignment, Frame/rewind semantics, chunk
// growth with pointer stability, warm reuse, the ArenaScope thread
// installation protocol tests use to pin the kernels to an arena they own,
// and the per-thread defaults every engine thread solves on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "src/util/arena.hpp"

namespace moldable::util {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(ScratchArena, AllocatesAlignedBlocks) {
  ScratchArena arena;
  // Interleave awkward sizes so padding is actually exercised.
  EXPECT_TRUE(aligned_to(arena.allocate(1, 1), 1));
  EXPECT_TRUE(aligned_to(arena.allocate(8, 8), 8));
  EXPECT_TRUE(aligned_to(arena.allocate(3, 1), 1));
  EXPECT_TRUE(aligned_to(arena.allocate(16, 16), 16));
  EXPECT_TRUE(aligned_to(arena.allocate(5, 1), 1));
  EXPECT_TRUE(aligned_to(arena.allocate(64, 64), 64));
  EXPECT_TRUE(aligned_to(arena.alloc<double>(7), alignof(double)));
}

TEST(ScratchArena, AllocZeroedIsZero) {
  ScratchArena arena;
  // Dirty the memory first, rewind, then ask for zeroed: the zeroing must
  // not rely on chunks being fresh from the OS.
  auto m = arena.mark();
  std::uint64_t* dirty = arena.alloc<std::uint64_t>(128);
  std::memset(dirty, 0xAB, 128 * sizeof(std::uint64_t));
  arena.rewind(m);
  const std::uint64_t* z = arena.alloc_zeroed<std::uint64_t>(128);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(z[i], 0u) << i;
}

TEST(ScratchArena, FrameRewindsAndMemoryIsReused) {
  ScratchArena arena;
  void* first = nullptr;
  {
    ScratchArena::Frame frame(arena);
    first = arena.allocate(256, 8);
    EXPECT_GE(arena.used_bytes(), 256u);
  }
  EXPECT_EQ(arena.used_bytes(), 0u);
  // Same position again: the frame returned the bytes for reuse.
  EXPECT_EQ(arena.allocate(256, 8), first);
}

TEST(ScratchArena, FramesNest) {
  ScratchArena arena;
  ScratchArena::Frame outer(arena);
  arena.allocate(64, 8);
  const std::size_t outer_used = arena.used_bytes();
  {
    ScratchArena::Frame inner(arena);
    arena.allocate(1024, 8);
    EXPECT_GT(arena.used_bytes(), outer_used);
    {
      ScratchArena::Frame innermost(arena);
      arena.allocate(4096, 64);
    }
    EXPECT_EQ(arena.used_bytes(), outer_used + 1024);
  }
  EXPECT_EQ(arena.used_bytes(), outer_used);
}

TEST(ScratchArena, GrowsAcrossChunksWithStablePointers) {
  ScratchArena arena(/*initial_bytes=*/64);
  std::vector<std::uint32_t*> blocks;
  // Overflow the first chunk many times over; every earlier block must stay
  // readable and hold its value (chunks are never reallocated).
  for (std::uint32_t i = 0; i < 200; ++i) {
    std::uint32_t* p = arena.alloc<std::uint32_t>(16);
    for (int k = 0; k < 16; ++k) p[k] = i;
    blocks.push_back(p);
  }
  for (std::uint32_t i = 0; i < 200; ++i)
    for (int k = 0; k < 16; ++k) ASSERT_EQ(blocks[i][k], i) << i << "," << k;
}

TEST(ScratchArena, ResetKeepsCapacity) {
  ScratchArena arena(64);
  for (int i = 0; i < 50; ++i) arena.allocate(1000, 8);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GT(cap, 0u);
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), cap);  // warm: nothing released
  // A warm arena must satisfy the same load without growing.
  for (int i = 0; i < 50; ++i) arena.allocate(1000, 8);
  EXPECT_EQ(arena.capacity_bytes(), cap);
}

TEST(ScratchArena, OversizedRequestGetsOwnChunk) {
  ScratchArena arena(64);
  // Request far beyond the chunk size: must still succeed and be usable.
  std::byte* big = static_cast<std::byte*>(arena.allocate(1 << 20, 64));
  std::memset(big, 0x5A, 1 << 20);
  EXPECT_EQ(static_cast<unsigned char>(big[(1 << 20) - 1]), 0x5Au);
}

TEST(ScratchArenaScope, InstallsAndRestores) {
  ScratchArena mine;
  ScratchArena& fallback = scratch_arena();  // thread default (or outer)
  {
    ArenaScope scope(&mine);
    EXPECT_EQ(&scratch_arena(), &mine);
    {
      ScratchArena inner;
      ArenaScope nested(&inner);
      EXPECT_EQ(&scratch_arena(), &inner);
      {
        ArenaScope null_scope(nullptr);  // null re-selects the thread default
        EXPECT_EQ(&scratch_arena(), &thread_scratch_arena());
      }
      EXPECT_EQ(&scratch_arena(), &inner);
    }
    EXPECT_EQ(&scratch_arena(), &mine);
  }
  EXPECT_EQ(&scratch_arena(), &fallback);
}

TEST(ScratchArenaScope, ThreadDefaultsAreDistinct) {
  ScratchArena* main_default = &thread_scratch_arena();
  ScratchArena* worker_default = nullptr;
  std::thread t([&] { worker_default = &thread_scratch_arena(); });
  t.join();
  EXPECT_NE(worker_default, nullptr);
  EXPECT_NE(worker_default, main_default);
}

}  // namespace
}  // namespace moldable::util

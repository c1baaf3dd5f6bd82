// util/slab.h: the arena/slab allocator backing Task objects (Processor's
// SlabPool) and checkpoint-index map nodes (PoolAllocator over SlabArena).
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/slab.h"

namespace splice::util {
namespace {

struct Probe {
  static int live;
  int value;
  explicit Probe(int v) : value(v) { ++live; }
  ~Probe() { --live; }
};
int Probe::live = 0;

TEST(SlabPool, AcquireConstructsReleaseDestroys) {
  SlabPool<Probe> pool;
  EXPECT_EQ(pool.live(), 0u);
  Probe* p = pool.acquire(41);
  EXPECT_EQ(p->value, 41);
  EXPECT_EQ(Probe::live, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(p);
  EXPECT_EQ(Probe::live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, RecyclesSlotsWithoutGrowingCapacity) {
  SlabPool<Probe, 8> pool;
  Probe* first = pool.acquire(1);
  pool.release(first);
  Probe* second = pool.acquire(2);
  // The freed slot comes straight back off the free list.
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->value, 2);
  pool.release(second);
  EXPECT_EQ(pool.capacity(), 8u);
}

TEST(SlabPool, PointersStayStableAcrossChunkGrowth) {
  SlabPool<Probe, 4, 2> pool;
  std::vector<Probe*> held;
  for (int i = 0; i < 64; ++i) held.push_back(pool.acquire(i));
  EXPECT_GE(pool.capacity(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(held[i]->value, i);
  for (Probe* p : held) pool.release(p);
  EXPECT_EQ(Probe::live, 0);
}

TEST(SlabPool, ChunksGrowGeometricallyFromMinChunk) {
  // A pool that only ever holds one object must not commit a full
  // kChunk-sized chunk: on a 256-processor machine there are hundreds of
  // pools, and most of them stay nearly empty.
  SlabPool<Probe, 256, 8> pool;
  Probe* p = pool.acquire(1);
  EXPECT_EQ(pool.capacity(), 8u);
  pool.release(p);
  std::vector<Probe*> held;
  for (int i = 0; i < 1000; ++i) held.push_back(pool.acquire(i));
  // 8 + 16 + 32 + 64 + 128 + 256 + 256 + 256 = 1016.
  EXPECT_EQ(pool.capacity(), 1016u);
  for (Probe* q : held) pool.release(q);
}

TEST(SlabPool, ReusesReleasedSlotsLifoBeforeBumpingFreshOnes) {
  SlabPool<Probe, 4, 2> pool;
  Probe* a = pool.acquire(1);
  Probe* b = pool.acquire(2);
  const std::less<Probe*> before;
  EXPECT_TRUE(before(a, b));  // fresh slots come in address order
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(a);
  pool.release(b);
  // Released slots come back newest-first, before any fresh slot is used.
  EXPECT_EQ(pool.acquire(3), b);
  EXPECT_EQ(pool.acquire(4), a);
  EXPECT_EQ(pool.capacity(), 2u);
  // Only once the free list is empty does the pool carve the next chunk
  // (twice the size, up to kChunk), and bumps through it in order.
  Probe* c = pool.acquire(5);
  Probe* d = pool.acquire(6);
  EXPECT_EQ(pool.capacity(), 6u);
  EXPECT_TRUE(before(c, d));
  Probe* e = pool.acquire(7);
  Probe* f = pool.acquire(8);
  EXPECT_TRUE(before(d, e));
  EXPECT_TRUE(before(e, f));
  EXPECT_EQ(pool.capacity(), 6u);
  Probe* g = pool.acquire(9);  // 4-slot chunk full: the next one is capped
  EXPECT_EQ(pool.capacity(), 10u);
  EXPECT_EQ(pool.live(), 7u);
  for (Probe* p : {a, b, c, d, e, f, g}) pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(Probe::live, 0);
}

TEST(SlabPool, OwningPtrReturnsSlotOnScopeExit) {
  SlabPool<Probe> pool;
  {
    SlabPool<Probe>::Ptr p = pool.make(7);
    EXPECT_EQ(p->value, 7);
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(Probe::live, 0);
}

TEST(SlabArena, RecyclesPerSizeClass) {
  SlabArena arena;
  void* a = arena.allocate(24);
  arena.deallocate(a, 24);
  // Same 16-byte class (17..32 bytes) reuses the freed block.
  void* b = arena.allocate(32);
  EXPECT_EQ(a, b);
  arena.deallocate(b, 32);
  // A different class carves fresh storage.
  void* c = arena.allocate(64);
  EXPECT_NE(b, c);
  arena.deallocate(c, 64);
  EXPECT_EQ(arena.chunks_allocated(), 1u);
}

TEST(SlabArena, OversizeBlocksBypassTheArena) {
  SlabArena arena;
  const std::size_t big = SlabArena::kMaxBlock + 1;
  void* p = arena.allocate(big);
  ASSERT_NE(p, nullptr);
  arena.deallocate(p, big);
  EXPECT_EQ(arena.chunks_allocated(), 0u);
}

TEST(PoolAllocator, BacksNodeContainers) {
  SlabArena arena;
  using Alloc = PoolAllocator<std::pair<const std::uint64_t, std::string>>;
  std::unordered_map<std::uint64_t, std::string, std::hash<std::uint64_t>,
                     std::equal_to<>, Alloc>
      map(Alloc{arena});
  for (std::uint64_t i = 0; i < 500; ++i) {
    map.emplace(i, "task-" + std::to_string(i));
  }
  EXPECT_GT(arena.chunks_allocated(), 0u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(map.at(i), "task-" + std::to_string(i));
  }
  map.clear();
  // Refilling after clear recycles freed nodes instead of carving new chunks.
  const std::size_t chunks = arena.chunks_allocated();
  for (std::uint64_t i = 0; i < 500; ++i) map.emplace(i, "again");
  EXPECT_EQ(arena.chunks_allocated(), chunks);
}

TEST(PoolAllocator, EqualityTracksArenaIdentity) {
  SlabArena a;
  SlabArena b;
  PoolAllocator<int> pa(a);
  PoolAllocator<int> pb(b);
  PoolAllocator<long> pa2(pa);  // converting copy shares the arena
  EXPECT_TRUE(pa == pa2);
  EXPECT_FALSE(pa == pb);
}

}  // namespace
}  // namespace splice::util

// Arena/slab allocation: per-owner object pools in the Nu-runtime idiom
// (per-core slabs + free-list recycling; SNIPPETS.md #3).
//
// Two faces over one mechanism:
//
//  * SlabPool<T> — a typed pool. acquire() placement-constructs into a
//    released slot if there is one, else bump-allocates the next slot of
//    the newest chunk; release() destroys and pushes the slot onto an
//    intrusive free list. One malloc per kChunk objects instead of one per
//    object; slots never move, so pointers stay stable for the object's
//    lifetime.
//
//  * SlabArena + PoolAllocator<T> — a size-classed untyped arena with a
//    std::allocator adapter, for node-based containers (unordered_map's
//    per-element nodes are the last malloc on the task hot path). Blocks
//    round up to 16-byte classes; one free list per class; bulk (n > 1)
//    allocations fall through to operator new (vector rehash buffers are
//    amortised and not worth pooling).
//
// Neither is thread-safe: a pool belongs to exactly one owner (a Processor,
// a PDES shard) and every acquire/release happens on that owner's thread —
// which is the whole trick: no locks, no atomic traffic, no false sharing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace splice::util {

/// Typed object pool. Slots are recycled through an intrusive free list;
/// storage is carved from chunks that grow geometrically from `kMinChunk`
/// slots to a `kChunk` cap — a pool that only ever holds a handful of
/// objects (one of 256 processors on a big machine) stays a handful of
/// slots, while a hot pool converges to one malloc per kChunk objects.
template <typename T, std::size_t kChunk = 256, std::size_t kMinChunk = 8>
class SlabPool {
  static_assert(kChunk > 0 && kMinChunk > 0 && kMinChunk <= kChunk);

 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() = default;  // all objects must have been released (slots hold
                          // raw storage, so leaked objects are not destroyed)

  template <typename... Args>
  [[nodiscard]] T* acquire(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next;
    } else {
      if (bump_ == bump_end_) carve();
      slot = bump_++;
    }
    ++live_;
    return ::new (static_cast<void*>(slot->storage)) T(
        std::forward<Args>(args)...);
  }

  void release(T* object) noexcept {
    object->~T();
    auto* slot = reinterpret_cast<Slot*>(
        reinterpret_cast<unsigned char*>(object) - offsetof(Slot, storage));
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Deleter for std::unique_ptr<T, SlabPool<T>::Deleter>: owning handles
  /// that return their slot to the pool instead of the heap.
  struct Deleter {
    SlabPool* pool = nullptr;
    void operator()(T* object) const noexcept {
      if (object != nullptr) pool->release(object);
    }
  };
  using Ptr = std::unique_ptr<T, Deleter>;

  template <typename... Args>
  [[nodiscard]] Ptr make(Args&&... args) {
    return Ptr(acquire(std::forward<Args>(args)...), Deleter{this});
  }

 private:
  struct Slot {
    union {
      Slot* next;  // valid while on the free list
      alignas(T) unsigned char storage[sizeof(T)];
    };
  };

  void carve() {
    const std::size_t n = next_chunk_;
    next_chunk_ = std::min(next_chunk_ * 2, kChunk);
    // Default-initialized storage (plain new[], not make_unique), handed
    // out by bumping a cursor: a slot's page is first written when the slot
    // is first acquired, never up front — zeroing or free-list threading a
    // fresh chunk would touch all of it, measurably slow with many pools on
    // a big machine.
    chunks_.emplace_back(new Slot[n]);
    capacity_ += n;
    bump_ = chunks_.back().get();
    bump_end_ = bump_ + n;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  /// Released slots only; never-used slots are the bump range below.
  Slot* free_ = nullptr;
  Slot* bump_ = nullptr;      // next never-used slot of the newest chunk
  Slot* bump_end_ = nullptr;
  std::size_t live_ = 0;
  std::size_t capacity_ = 0;
  std::size_t next_chunk_ = kMinChunk;
};

/// Size-classed untyped slab arena backing PoolAllocator. Classes are
/// 16-byte multiples up to kMaxBlock; larger requests go to operator new.
class SlabArena {
 public:
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMaxBlock = 256;
  static constexpr std::size_t kClasses = kMaxBlock / kAlign;
  static constexpr std::size_t kChunkBytes = 16 * 1024;
  static constexpr std::size_t kMinChunkBytes = 1024;

  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const std::size_t cls = class_of(bytes);
    if (cls >= kClasses) {
      return ::operator new(bytes, std::align_val_t(kAlign));
    }
    FreeNode*& head = free_[cls];
    if (head != nullptr) {
      FreeNode* node = head;
      head = node->next;
      return node;
    }
    const std::size_t block = (cls + 1) * kAlign;
    if (bump_remaining_ < block) {
      // Chunks grow geometrically to the kChunkBytes cap, default-
      // initialized and bump-allocated (no up-front page-touching) — same
      // rationale as SlabPool::carve().
      const std::size_t chunk_bytes = next_chunk_bytes_;
      next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kChunkBytes);
      chunks_.emplace_back(new unsigned char[chunk_bytes]);
      bump_ = chunks_.back().get();
      bump_remaining_ = chunk_bytes;
    }
    void* out = bump_;
    bump_ += block;
    bump_remaining_ -= block;
    return out;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = class_of(bytes);
    if (cls >= kClasses) {
      ::operator delete(p, std::align_val_t(kAlign));
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  [[nodiscard]] std::size_t chunks_allocated() const noexcept {
    return chunks_.size();
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  [[nodiscard]] static constexpr std::size_t class_of(
      std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kAlign;
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  unsigned char* bump_ = nullptr;
  std::size_t bump_remaining_ = 0;
  std::size_t next_chunk_bytes_ = kMinChunkBytes;
  FreeNode* free_[kClasses] = {};
};

/// std::allocator adapter over a SlabArena. Single-element allocations (the
/// node-based-container case) come from the arena; bulk allocations (hash
/// bucket arrays, vector buffers) pass through to operator new.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit PoolAllocator(SlabArena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) noexcept
      : arena_(other.arena_) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 1 && alignof(T) <= SlabArena::kAlign) {
      return static_cast<T*>(arena_->allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1 && alignof(T) <= SlabArena::kAlign) {
      arena_->deallocate(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  [[nodiscard]] bool operator==(const PoolAllocator<U>& other) const noexcept {
    return arena_ == other.arena_;
  }

  SlabArena* arena_;  // public so the converting constructor can read it
};

}  // namespace splice::util

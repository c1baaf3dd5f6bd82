#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace splice::sim {

namespace {
// Min-heap comparator: the heap's top is the earliest (when, seq).
struct OverflowLater {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;  // FIFO among equal-time events
  }
};
}  // namespace

// ---------------------------------------------------------------------------
// Slot table
// ---------------------------------------------------------------------------

std::uint32_t EventQueue::acquire_slot(std::int64_t when, EventFn fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    Slot& slot = slots_[idx];
    slot.fn = std::move(fn);
    slot.when = when;
    return idx;
  }
  slots_.push_back(Slot{std::move(fn), when, 1});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn = nullptr;  // destroy the callable (and its captures) immediately
  ++s.gen;         // every queued entry and handed-out id becomes stale
  free_slots_.push_back(slot);
}

// ---------------------------------------------------------------------------
// Occupancy bitmap
// ---------------------------------------------------------------------------

// The size_t casts below intend two's-complement wraparound: `when` is a
// signed tick but the bucket index is its value modulo kWindowSize (a power
// of two), and converting to unsigned before masking makes the modulo
// well-defined for any tick the ring can legally hold.
void EventQueue::set_occupied(std::int64_t when) noexcept {
  const std::size_t j = static_cast<std::size_t>(when) & (kWindowSize - 1);
  occupied_[j >> 6] |= std::uint64_t{1} << (j & 63);
}

void EventQueue::clear_occupied(std::int64_t when) noexcept {
  const std::size_t j = static_cast<std::size_t>(when) & (kWindowSize - 1);
  occupied_[j >> 6] &= ~(std::uint64_t{1} << (j & 63));
}

std::int64_t EventQueue::next_occupied_offset(
    std::int64_t from_offset) const noexcept {
  // Scan in *time* order: offsets map to bucket indices modulo kWindowSize,
  // so the walk is cyclic over the bitmap but monotone in time. Word steps
  // never straddle the array edge because kWindowSize is a multiple of 64.
  // When base_ is not 64-aligned, the last word scanned also holds the
  // window's first buckets (offsets before `from_offset`); a hit there
  // lands at or past kWindowSize and means "none".
  std::int64_t off = from_offset;
  while (off < kWindowSize) {
    const std::size_t j =
        static_cast<std::size_t>(base_ + off) & (kWindowSize - 1);
    const std::uint64_t bits = occupied_[j >> 6] >> (j & 63);
    if (bits != 0) {
      return std::min(off + std::countr_zero(bits), kWindowSize);
    }
    off += 64 - static_cast<std::int64_t>(j & 63);
  }
  return kWindowSize;
}

// ---------------------------------------------------------------------------
// Overflow tier
// ---------------------------------------------------------------------------

void EventQueue::overflow_push(OverflowEntry entry) {
  overflow_.push_back(entry);
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

void EventQueue::overflow_pop_top() noexcept {
  std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
  overflow_.pop_back();
}

void EventQueue::overflow_drop_dead_tops() noexcept {
  while (!overflow_.empty() &&
         !entry_live(overflow_[0].slot, overflow_[0].gen)) {
    overflow_pop_top();
    --overflow_dead_;
  }
}

// ---------------------------------------------------------------------------
// Window maintenance
// ---------------------------------------------------------------------------

void EventQueue::restore_head() {
  std::int64_t off = scan_offset_;
  while ((off = next_occupied_offset(off)) < kWindowSize) {
    Bucket& b = bucket_of(base_ + off);
    while (b.head < b.items.size()) {
      const Entry& e = b.items[b.head];
      if (entry_live(e.slot, e.gen)) {
        scan_offset_ = off;
        head_when_ = base_ + off;
        head_in_window_ = true;
        return;
      }
      ++b.head;  // discard tombstone
      --window_dead_;
    }
    b.items.clear();
    b.head = 0;
    clear_occupied(base_ + off);
    ++off;
  }
  // Window fully drained (and every bucket cleared).
  assert(window_live_ == 0 && window_dead_ == 0);
  scan_offset_ = 0;
  span_max_ = base_;
  overflow_drop_dead_tops();
  if (!overflow_.empty()) {
    head_when_ = overflow_[0].when;
    head_in_window_ = false;
  }
  // else: live_ must be 0 and the head is simply invalid until re-anchoring.
}

void EventQueue::migrate_overflow() {
  while (!overflow_.empty()) {
    const OverflowEntry top = overflow_[0];
    if (!entry_live(top.slot, top.gen)) {
      overflow_pop_top();
      --overflow_dead_;
      continue;
    }
    if (top.when - base_ >= kWindowSize) break;
    overflow_pop_top();
    --overflow_live_;
    Bucket& b = bucket_of(top.when);
    b.items.push_back(Entry{top.seq, top.slot, top.gen});
    set_occupied(top.when);
    ++window_live_;
    span_max_ = std::max(span_max_, top.when);
  }
}

void EventQueue::rotate_window() {
  // Only called from run_next when the head sits in the overflow tier: the
  // window is empty, and head_when_ is about to become "now", so no future
  // schedule can legally land below the new base.
  assert(window_live_ == 0 && window_dead_ == 0);
  base_ = head_when_;
  span_max_ = base_;
  scan_offset_ = 0;
  migrate_overflow();  // overflow pops arrive (when, seq)-sorted: FIFO holds
  assert(window_live_ > 0);
  head_in_window_ = true;
}

void EventQueue::demote_window() {
  std::int64_t off = 0;
  while ((off = next_occupied_offset(off)) < kWindowSize) {
    Bucket& b = bucket_of(base_ + off);
    for (std::size_t i = b.head; i < b.items.size(); ++i) {
      const Entry& e = b.items[i];
      if (!entry_live(e.slot, e.gen)) {
        --window_dead_;
        continue;
      }
      overflow_push(OverflowEntry{base_ + off, e.seq, e.slot, e.gen});
      --window_live_;
      ++overflow_live_;
    }
    b.items.clear();
    b.head = 0;
    clear_occupied(base_ + off);
    ++off;
  }
  scan_offset_ = 0;
}

void EventQueue::purge_all_dead() noexcept {
  std::int64_t off = 0;
  while ((off = next_occupied_offset(off)) < kWindowSize) {
    Bucket& b = bucket_of(base_ + off);
    b.items.clear();
    b.head = 0;
    clear_occupied(base_ + off);
    ++off;
  }
  overflow_.clear();
  window_dead_ = 0;
  overflow_dead_ = 0;
}

void EventQueue::maybe_compact() {
  if (overflow_dead_ > 64 && overflow_dead_ > overflow_live_) {
    std::erase_if(overflow_, [&](const OverflowEntry& e) {
      return !entry_live(e.slot, e.gen);
    });
    std::make_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    overflow_dead_ = 0;
    ++compactions_;
  }
  if (window_dead_ > 64 && window_dead_ > window_live_) {
    std::int64_t off = scan_offset_;
    while ((off = next_occupied_offset(off)) < kWindowSize) {
      Bucket& b = bucket_of(base_ + off);
      b.items.erase(b.items.begin(),
                    b.items.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
      std::erase_if(b.items, [&](const Entry& e) {
        return !entry_live(e.slot, e.gen);
      });
      if (b.items.empty()) clear_occupied(base_ + off);
      ++off;
    }
    window_dead_ = 0;
    ++compactions_;
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId EventQueue::schedule(SimTime when_t, EventFn fn) {
  std::int64_t when = when_t.ticks();
  if (live_ == 0) {
    if (window_dead_ != 0 || overflow_dead_ != 0) purge_all_dead();
    base_ = when;
    scan_offset_ = 0;
    span_max_ = when;
  } else if (when < base_) {
    // Below the window base (only legal from a standalone queue that was
    // anchored by a later first event). Slide the base down when the window
    // span still fits — the modulo bucket mapping means nothing moves — or,
    // in the degenerate wide-span case, spill the window into the overflow
    // heap and migrate back what fits around the new base.
    if (span_max_ - when < kWindowSize) {
      base_ = when;
      scan_offset_ = 0;
    } else {
      demote_window();
      base_ = when;
      span_max_ = when;
      migrate_overflow();
      head_in_window_ = head_when_ - base_ < kWindowSize;
    }
  }

  const std::uint64_t seq = ++seq_counter_;
  const std::uint32_t slot = acquire_slot(when, std::move(fn));
  const std::uint32_t gen = slots_[slot].gen;
  if (when - base_ < kWindowSize) {
    Bucket& b = bucket_of(when);
    b.items.push_back(Entry{seq, slot, gen});
    set_occupied(when);
    ++window_live_;
    span_max_ = std::max(span_max_, when);
    if (live_ == 0 || when < head_when_) {
      head_when_ = when;
      head_in_window_ = true;
      scan_offset_ = when - base_;
    }
  } else {
    overflow_push(OverflowEntry{when, seq, slot, gen});
    ++overflow_live_;
    if (live_ == 0 || when < head_when_) {
      head_when_ = when;
      head_in_window_ = false;
    }
  }
  ++live_;
  return (static_cast<EventId>(gen) << 32) |
         static_cast<EventId>(slot + 1);
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t low = id & 0xffffffffULL;
  if (low == 0) return false;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.fn || s.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  const std::int64_t when = s.when;
  free_slot(slot);
  --live_;
  assert(when >= base_);
  if (when - base_ < kWindowSize) {
    ++window_dead_;
    --window_live_;
  } else {
    ++overflow_dead_;
    --overflow_live_;
  }
  if (live_ > 0 && when == head_when_) {
    restore_head();  // the head bucket may still hold later-seq live events
  }
  maybe_compact();
  return true;
}

SimTime EventQueue::next_time() const {
  assert(live_ > 0);
  return SimTime(head_when_);
}

SimTime EventQueue::run_next(SimTime* clock) {
  assert(live_ > 0 && "run_next on empty queue");
  if (!head_in_window_) rotate_window();
  Bucket& b = bucket_of(head_when_);
  assert(b.head < b.items.size());
  const Entry e = b.items[b.head++];
  assert(entry_live(e.slot, e.gen) && "head invariant violated");
  EventFn fn = std::move(slots_[e.slot].fn);
  free_slot(e.slot);
  --live_;
  --window_live_;
  const SimTime when{head_when_};
  if (b.head == b.items.size()) {
    b.items.clear();
    b.head = 0;
    clear_occupied(head_when_);
  }
  if (clock != nullptr) *clock = when;
  // Re-establish the head *before* running: the callback may schedule new
  // events, and schedule() compares against the head. The base does not
  // move here, so a callback scheduling at the just-popped time (== now)
  // still lands in the window.
  if (live_ > 0) restore_head();
  fn();
  return when;
}

}  // namespace splice::sim

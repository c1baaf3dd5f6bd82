#include "checkpoint/checkpoint_table.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/small_vec.h"

namespace splice::checkpoint {

CheckpointTable::CheckpointTable(net::ProcId self, net::ProcId processors)
    : self_(self), processors_(processors) {
  // Stripe s owns dests s, s + kStripeCount, ...; their entries appear as
  // records arrive (entry_mut).
  stripes_.reserve(kStripeCount);
  for (std::uint32_t s = 0; s < kStripeCount; ++s) stripes_.emplace_back(arena_);
}

const std::vector<CheckpointRecord>& CheckpointTable::entry(
    net::ProcId dest) const {
  static const std::vector<CheckpointRecord> kNone;
  const std::vector<CheckpointRecord>* found = find_entry(dest);
  return found != nullptr ? *found : kNone;
}

const std::vector<CheckpointRecord>* CheckpointTable::find_entry(
    net::ProcId dest) const {
  if (dest >= processors_) throw std::out_of_range("checkpoint: bad dest");
  const auto& entries = stripes_[stripe_of(dest)].entries;
  const std::size_t index = dest / kStripeCount;
  return index < entries.size() ? &entries[index] : nullptr;
}

std::vector<CheckpointRecord>* CheckpointTable::find_entry(net::ProcId dest) {
  return const_cast<std::vector<CheckpointRecord>*>(
      std::as_const(*this).find_entry(dest));
}

std::vector<CheckpointRecord>& CheckpointTable::entry_mut(net::ProcId dest) {
  if (std::vector<CheckpointRecord>* found = find_entry(dest)) return *found;
  auto& entries = stripes_[stripe_of(dest)].entries;
  entries.resize(dest / kStripeCount + 1);
  return entries.back();
}

void CheckpointTable::index_add(net::ProcId dest,
                                const runtime::LevelStamp& stamp) {
  stripes_[stripe_of(dest)].by_stamp.emplace(
      runtime::LevelStamp::Hash{}(stamp), dest);
}

void CheckpointTable::index_remove(net::ProcId dest,
                                   const runtime::LevelStamp& stamp) {
  auto& index = stripes_[stripe_of(dest)].by_stamp;
  auto [it, end] = index.equal_range(runtime::LevelStamp::Hash{}(stamp));
  for (; it != end; ++it) {
    if (it->second == dest) {
      index.erase(it);
      return;
    }
  }
}

void CheckpointTable::on_insert(const CheckpointRecord& record) noexcept {
  ++total_records_;
  total_units_ += record.packet.size_units();
  peak_records_ = std::max(peak_records_, total_records_);
  peak_units_ = std::max(peak_units_, total_units_);
}

void CheckpointTable::on_erase(const CheckpointRecord& record) noexcept {
  --total_records_;
  total_units_ -= record.packet.size_units();
}

RecordOutcome CheckpointTable::record(net::ProcId dest,
                                      CheckpointRecord record) {
  auto& entry = entry_mut(dest);
  // §3.2: descendant of an existing checkpoint -> nothing to store.
  for (const CheckpointRecord& existing : entry) {
    if (existing.packet.stamp.subsumes(record.packet.stamp)) {
      ++subsumed_;
      return RecordOutcome::kSubsumed;
    }
  }
  // Maintain the antichain: drop records the new stamp subsumes. (With
  // ancestor-before-descendant spawn order this rarely fires, but recovery
  // respawns can reorder arrivals.)
  std::erase_if(entry, [&](const CheckpointRecord& existing) {
    if (record.packet.stamp.is_ancestor_of(existing.packet.stamp)) {
      on_erase(existing);
      index_remove(dest, existing.packet.stamp);
      ++evicted_;
      return true;
    }
    return false;
  });
  entry.push_back(std::move(record));
  on_insert(entry.back());
  index_add(dest, entry.back().packet.stamp);
  ++records_made_;
  if (listener_ != nullptr) listener_->on_record(dest, entry.back());
  return RecordOutcome::kRecorded;
}

std::vector<CheckpointRecord> CheckpointTable::take(net::ProcId dead) {
  std::vector<CheckpointRecord>* entry = find_entry(dead);
  if (entry == nullptr) return {};
  std::vector<CheckpointRecord> out = std::move(*entry);
  entry->clear();
  for (const CheckpointRecord& record : out) {
    on_erase(record);
    index_remove(dead, record.packet.stamp);
    ++taken_;
  }
  if (listener_ != nullptr && !out.empty()) listener_->on_take(dead);
  return out;
}

bool CheckpointTable::release(net::ProcId dest,
                              const runtime::LevelStamp& stamp) {
  std::vector<CheckpointRecord>* held = find_entry(dest);
  if (held == nullptr) return false;
  auto& entry = *held;
  const auto before = entry.size();
  std::erase_if(entry, [&](const CheckpointRecord& existing) {
    if (existing.packet.stamp == stamp) {
      on_erase(existing);
      return true;
    }
    return false;
  });
  const bool found = entry.size() != before;
  if (found) {
    index_remove(dest, stamp);
    ++released_;
    if (listener_ != nullptr) listener_->on_release(dest, stamp);
  }
  return found;
}

bool CheckpointTable::release_anywhere(const runtime::LevelStamp& stamp) {
  const std::size_t hash = runtime::LevelStamp::Hash{}(stamp);
  for (Stripe& stripe : stripes_) {
    // Collect candidates first: release() edits the index being ranged.
    util::SmallVec<net::ProcId, 8> candidates;
    auto [it, end] = stripe.by_stamp.equal_range(hash);
    for (; it != end; ++it) candidates.push_back(it->second);
    for (const net::ProcId dest : candidates) {
      // Hash hit: confirm against the actual records (collisions between
      // distinct stamps are possible, release() re-checks equality).
      if (release(dest, stamp)) return true;
    }
  }
  return false;
}

bool CheckpointTable::contains(net::ProcId dest,
                               const runtime::LevelStamp& stamp) const {
  const Stripe& stripe = stripes_[stripe_of(dest)];
  auto [it, end] =
      stripe.by_stamp.equal_range(runtime::LevelStamp::Hash{}(stamp));
  for (; it != end; ++it) {
    if (it->second != dest) continue;
    // Hash hit on this destination: confirm against the actual records
    // (distinct stamps may collide).
    for (const CheckpointRecord& record : entry(dest)) {
      if (record.packet.stamp == stamp) return true;
    }
    return false;
  }
  return false;
}

void CheckpointTable::clear() {
  cleared_ += total_records_;
  for (Stripe& stripe : stripes_) {
    for (auto& entry : stripe.entries) entry.clear();
    stripe.by_stamp.clear();
  }
  total_records_ = 0;
  total_units_ = 0;
}

std::vector<std::pair<net::ProcId, CheckpointRecord*>>
CheckpointTable::restored_children_of(const runtime::LevelStamp& parent) {
  std::vector<std::pair<net::ProcId, CheckpointRecord*>> out;
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    std::vector<CheckpointRecord>* entry = find_entry(dest);
    if (entry == nullptr) continue;
    for (CheckpointRecord& record : *entry) {
      if (record.restored && record.packet.stamp.depth() == parent.depth() + 1 &&
          parent.is_ancestor_of(record.packet.stamp)) {
        out.emplace_back(dest, &record);
      }
    }
  }
  return out;
}

}  // namespace splice::checkpoint

#include "net/transport.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/shm_ring.h"

namespace splice::net {

std::string_view to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kShmRing:
      return "shm";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "?";
}

TransportKind parse_transport(std::string_view name) {
  if (name == "inproc" || name == "in-process" || name == "inprocess") {
    return TransportKind::kInProcess;
  }
  if (name == "shm" || name == "shm-ring" || name == "shmring") {
    return TransportKind::kShmRing;
  }
  if (name == "tcp") return TransportKind::kTcp;
  throw std::invalid_argument("unknown transport: " + std::string(name) +
                              " (expected inproc | shm | tcp)");
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- in-process ------------------------------------------------------------

/// The pooled mailbox that used to live inside Network. In-flight
/// envelopes park in recycled slots while their delivery event waits in
/// the queue; the event captures only {this, slot pointer} — 16 bytes,
/// inside EventFn's inline buffer — so a send is allocation-free end to
/// end. Slots live in chunks that never move, so the reference the
/// delivery dispatches through stays valid even when a receiver's nested
/// send grows the pool; a slot returns to the free list only after
/// delivery returns, so nested sends cannot reuse it mid-dispatch either.
/// Delivery empties the slot's payload at once: a free slot holding on to
/// a delivered packet or boxed bounce would keep its heap alive until the
/// slot happened to be reused.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(sim::Simulator& sim) : sim_(sim) {}

  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kInProcess;
  }

  void submit(Envelope&& env, sim::SimTime delay) override {
    Envelope* slot = pool_acquire();
    *slot = std::move(env);
    sim_.after(delay, [this, slot] {
      deliver_(std::move(*slot));
      slot->payload = std::monostate{};
      free_.push_back(slot);
    });
  }

 private:
  // Chunks grow geometrically to a cap, like util::SlabPool's: a quiet
  // network commits a handful of slots, a busy one one malloc per kChunk.
  static constexpr std::size_t kMinChunk = 16;
  static constexpr std::size_t kChunk = 256;

  Envelope* pool_acquire() {
    if (!free_.empty()) {
      Envelope* slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (bump_ == bump_end_) {
      const std::size_t n = next_chunk_;
      next_chunk_ = std::min(next_chunk_ * 2, kChunk);
      chunks_.push_back(std::make_unique<Envelope[]>(n));
      bump_ = chunks_.back().get();
      bump_end_ = bump_ + n;
    }
    return bump_++;
  }

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Envelope[]>> chunks_;
  std::vector<Envelope*> free_;  // delivered slots, reused newest-first
  Envelope* bump_ = nullptr;     // next never-used slot of the newest chunk
  Envelope* bump_end_ = nullptr;
  std::size_t next_chunk_ = kMinChunk;
};

// ---- shared-memory rings ---------------------------------------------------

/// One SPSC byte ring per destination rank; every envelope is encoded with
/// the wire codec, pushed as a sequence-tagged frame, and reconstituted at
/// delivery time. Delivery *scheduling* still rides the simulator event
/// queue with the same latency as kInProcess, and the delivery event names
/// the frame's sequence number: the consumer pops (and decodes) frames
/// until it finds its own, parking early arrivals in a reorder map. Rings
/// therefore deliver in exactly the event-queue order — seeded runs are
/// bit-identical to the in-process oracle, which is the A/B contract the
/// transport tests enforce.
///
/// A frame that does not fit (ring full) spills to a per-destination heap
/// queue, counted in WireStats::ring_spills — overflow degrades to heap
/// buffering instead of dropping or deadlocking. FIFO is preserved: once a
/// destination spills, new frames keep spilling until both ring and spill
/// queue drain.
class ShmRingTransport final : public Transport {
 public:
  ShmRingTransport(sim::Simulator& sim, std::uint32_t procs,
                   std::uint32_t ring_bytes)
      : sim_(sim), ring_bytes_(ring_bytes) {
    lanes_.reserve(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
      lanes_.push_back(std::make_unique<Lane>());
    }
  }

  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kShmRing;
  }

  void submit(Envelope&& env, sim::SimTime delay) override {
    assert(env.to < lanes_.size());
    Lane& lane = *lanes_[env.to];
    const std::uint64_t seq = lane.next_seq++;

    scratch_.clear();
    const std::uint64_t t0 = now_ns();
    codec::encode_envelope(env, scratch_);
    wire_.encode_ns += now_ns() - t0;
    ++wire_.frames;
    wire_.payload_bytes += scratch_.size();
    wire_.frame_bytes +=
        ShmRing::record_bytes(static_cast<std::uint32_t>(scratch_.size()));

    if (lane.ring == nullptr) lane.ring = std::make_unique<ShmRing>(ring_bytes_);
    // FIFO across the spill boundary: while the spill queue is non-empty
    // the ring receives nothing, so every ring frame predates every
    // spilled one and the consumer can always drain ring-first.
    if (!lane.spill.empty() ||
        !lane.ring->push(seq, scratch_.data(),
                         static_cast<std::uint32_t>(scratch_.size()))) {
      ++wire_.ring_spills;
      lane.spill.push_back(
          ShmRing::Record{seq, {scratch_.begin(), scratch_.end()}});
    }
    const ProcId dest = env.to;
    sim_.after(delay, [this, dest, seq] { deliver_seq(dest, seq); });
  }

 private:
  struct Lane {
    std::unique_ptr<ShmRing> ring;
    std::deque<ShmRing::Record> spill;
    /// Frames popped ahead of their delivery event, parked by sequence.
    std::unordered_map<std::uint64_t, Envelope> reorder;
    std::uint64_t next_seq = 0;
  };

  void deliver_seq(ProcId dest, std::uint64_t seq) {
    Lane& lane = *lanes_[dest];
    const auto parked = lane.reorder.find(seq);
    if (parked != lane.reorder.end()) {
      Envelope env = std::move(parked->second);
      lane.reorder.erase(parked);
      deliver_(std::move(env));
      return;
    }
    ShmRing::Record record;
    while (pop_next(lane, &record)) {
      const std::uint64_t t0 = now_ns();
      Envelope env =
          codec::decode_envelope(record.bytes.data(), record.bytes.size());
      wire_.decode_ns += now_ns() - t0;
      if (record.seq == seq) {
        deliver_(std::move(env));
        return;
      }
      lane.reorder.emplace(record.seq, std::move(env));
    }
    // Every submitted frame has exactly one delivery event, so the frame
    // must exist; reaching here means the ring was corrupted.
    throw std::logic_error("shm transport: frame missing for seq " +
                           std::to_string(seq));
  }

  bool pop_next(Lane& lane, ShmRing::Record* out) {
    if (lane.ring != nullptr && lane.ring->pop(out)) return true;
    if (lane.spill.empty()) return false;
    *out = std::move(lane.spill.front());
    lane.spill.pop_front();
    return true;
  }

  sim::Simulator& sim_;
  std::uint32_t ring_bytes_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace

std::unique_ptr<Transport> make_in_process_transport(sim::Simulator& sim) {
  return std::make_unique<InProcessTransport>(sim);
}

std::unique_ptr<Transport> make_shm_ring_transport(sim::Simulator& sim,
                                                   std::uint32_t procs,
                                                   std::uint32_t ring_bytes) {
  return std::make_unique<ShmRingTransport>(sim, procs, ring_bytes);
}

}  // namespace splice::net

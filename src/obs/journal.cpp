#include "obs/journal.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "net/codec.h"

namespace splice::obs {

namespace {

// One name per EventKind, in enum order: the kind column of the figure
// walkthroughs and the splice_trace text dump.
// The array bound pins the entry *count*; the lint marker additionally
// requires every enumerator to be named in the block, so a new kind cannot
// silently value-initialize an empty name at the end of the table.
// splice-lint: exhaustive(EventKind)
constexpr std::string_view kKindNames[kEventKindCount] = {
    "place",          // kPlace
    "spawn",          // kSpawn
    "checkpoint",     // kCheckpoint
    "complete",       // kComplete
    "abort",          // kAbort
    "crash",          // kCrash
    "detect",         // kDetect
    "revive",         // kRevive
    "rejoin",         // kRejoin
    "peer-rejoin",    // kPeerRejoin
    "reissue",        // kReissue
    "twin",           // kTwin
    "relay",          // kRelay
    "salvage",        // kSalvage
    "ack-of-corpse",  // kAckOfCorpse
    "cancel",         // kCancel
    "stranded",       // kStranded
    "defer",          // kDefer
    "grace-expired",  // kGraceExpired
    "oracle-leak",    // kOracleLeak
    "state-chunk",    // kStateChunk
    "transfer-in",    // kTransferIn
    "pre-link",       // kPreLink
    "catch-up",       // kCatchUp
    "partition",      // kPartition
    "heal",           // kHeal
    "gray",           // kGray
    "inject-root",    // kInjectRoot
    "done",           // kDone
    "answer",         // kAnswer
    "snapshot",       // kSnapshot
    "restore",        // kRestore
    "unpark",         // kUnpark
    "park-expired",   // kParkExpired
};

template <typename Map, typename Key>
EventId lookup(const Map& map, const Key& key) {
  auto it = map.find(key);
  return it == map.end() ? kNoEvent : it->second;
}

std::uint64_t stamp_key(const runtime::LevelStamp& stamp) {
  return runtime::LevelStamp::Hash{}(stamp);
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kEventKindCount ? kKindNames[index] : "?";
}

const Event* Journal::find(EventId id) const {
  if (id == kNoEvent || events.empty()) return nullptr;
  // Retained ids are consecutive (the ring keeps the newest window), so
  // lookup is an offset from the first event.
  const EventId first = events.front().id;
  if (id < first || id >= first + events.size()) return nullptr;
  return &events[static_cast<std::size_t>(id - first)];
}

void Recorder::configure(bool enabled, std::uint32_t capacity,
                         bool keep_details) {
  enabled_ = enabled && capacity > 0;
  keep_details_ = keep_details;
  capacity_ = capacity;
  slots_.clear();
  details_.clear();
  if (enabled_) {
    slots_.reserve(capacity_);
    if (keep_details_) details_.reserve(capacity_);
    // Pre-size the stamp-keyed linker maps: rehashing them mid-run would
    // recompute every stamp hash.
    reissue_of_.reserve(1024);
    place_of_.reserve(4096);
  }
  head_ = 0;
  next_id_ = 1;
  dropped_ = 0;
  metrics_.clear();
  fault_of_.clear();
  detect_of_.clear();
  detect_by_.clear();
  rejoin_of_.clear();
  place_of_.clear();
  reissue_of_.clear();
  cancel_of_.clear();
  relay_of_.clear();
  last_fault_ = kNoEvent;
  last_partition_ = kNoEvent;
}

EventId Recorder::record_slow(sim::SimTime t, EventKind kind,
                              const Fields& fields, std::string* detail) {
  // Claim the ring slot first and build the Event in place: the ring is
  // large and cache-cold, so one pass over the destination lines beats a
  // local Event plus a copy.
  Event* slot;
  std::string* detail_slot = nullptr;
  if (slots_.size() < capacity_) {
    slot = &slots_.emplace_back();
    if (keep_details_) detail_slot = &details_.emplace_back();
  } else {
    // Ring full: overwrite the oldest retained slot and count the drop.
    slot = &slots_[head_];
    if (keep_details_) detail_slot = &details_[head_];
    head_ = (head_ + 1) % slots_.size();
    ++dropped_;
  }
  Event& event = *slot;
  event.id = next_id_++;
  event.ticks = t.ticks();
  event.kind = kind;
  event.proc = fields.proc;
  event.peer = fields.peer;
  event.uid = fields.uid;
  event.cause =
      fields.cause != kNoEvent ? fields.cause : infer_cause(kind, fields);
  if (fields.stamp != nullptr) {
    event.stamp = *fields.stamp;
  } else {
    event.stamp = runtime::LevelStamp{};  // reused slots must not leak one
  }
  event.arg = fields.arg;
  if (detail_slot != nullptr) {
    if (detail != nullptr) {
      *detail_slot = std::move(*detail);
    } else {
      detail_slot->clear();
    }
  }

  note_links(event);

  // Metrics feed: spawn/complete drive the goodput window, completion
  // carries spawn→complete latency in arg.
  if (kind == EventKind::kPlace) {
    metrics_.on_task_spawn();
  } else if (kind == EventKind::kComplete) {
    metrics_.on_task_complete(fields.arg);
  }
  return event.id;
}

EventId Recorder::placed_at(std::uint64_t uid) const {
  return uid < place_of_.size() ? place_of_[uid] : kNoEvent;
}

EventId Recorder::infer_cause(EventKind kind, const Fields& f) const {
  switch (kind) {
    case EventKind::kPlace:
      // The packet that placed this task came from a spawn, reissue or
      // twin addressed at the same stamp.
      return f.stamp ? lookup(reissue_of_, stamp_key(*f.stamp)) : kNoEvent;
    case EventKind::kSpawn:
    case EventKind::kCheckpoint:
    case EventKind::kComplete:
    case EventKind::kOracleLeak:
      return placed_at(f.uid);
    case EventKind::kAbort: {
      if (f.stamp) {
        if (EventId c = lookup(cancel_of_, stamp_key(*f.stamp)); c != kNoEvent) return c;
      }
      return placed_at(f.uid);
    }
    case EventKind::kCrash:
    case EventKind::kPartition:
    case EventKind::kGray:
      return kNoEvent;  // root causes
    case EventKind::kHeal:
      return last_partition_;
    case EventKind::kDetect: {
      if (EventId c = lookup(fault_of_, f.peer); c != kNoEvent) return c;
      return last_fault_;
    }
    case EventKind::kTwin:
    case EventKind::kReissue:
    case EventKind::kRelay: {
      if (EventId c = lookup(detect_by_, f.proc); c != kNoEvent) return c;
      return last_fault_;
    }
    case EventKind::kCancel: {
      if (f.stamp) {
        if (EventId c = lookup(reissue_of_, stamp_key(*f.stamp)); c != kNoEvent) return c;
      }
      return lookup(detect_by_, f.proc);
    }
    case EventKind::kSalvage:
    case EventKind::kStranded: {
      if (f.stamp) {
        if (EventId c = lookup(relay_of_, stamp_key(*f.stamp)); c != kNoEvent) return c;
      }
      return last_fault_;
    }
    case EventKind::kAckOfCorpse: {
      if (EventId c = placed_at(f.uid); c != kNoEvent) return c;
      return last_fault_;
    }
    case EventKind::kDefer:
    case EventKind::kGraceExpired:
    case EventKind::kParkExpired: {
      if (EventId c = lookup(fault_of_, f.peer); c != kNoEvent) return c;
      return last_fault_;
    }
    case EventKind::kRevive:
      return lookup(fault_of_, f.proc);
    case EventKind::kRejoin: {
      // Chains revive → rejoin when the injector journaled the repair.
      if (EventId c = lookup(rejoin_of_, f.proc); c != kNoEvent) return c;
      return lookup(fault_of_, f.proc);
    }
    case EventKind::kStateChunk:
    case EventKind::kPeerRejoin:
      return lookup(rejoin_of_, f.peer);
    case EventKind::kTransferIn:
    case EventKind::kPreLink:
    case EventKind::kCatchUp:
      return lookup(rejoin_of_, f.proc);
    case EventKind::kUnpark: {
      if (EventId c = lookup(rejoin_of_, f.peer); c != kNoEvent) return c;
      return lookup(rejoin_of_, f.proc);
    }
    case EventKind::kRestore:
      return last_fault_;
    // Run milestones are causal roots: nothing upstream explains them.
    // Exhaustive by SPL003 and -Wswitch-enum — a 35th EventKind must pick
    // its causal-inference rule here explicitly, not inherit "no cause".
    case EventKind::kInjectRoot:
    case EventKind::kDone:
    case EventKind::kAnswer:
    case EventKind::kSnapshot:
    case EventKind::kCount:
      return kNoEvent;
  }
  return kNoEvent;
}

void Recorder::note_links(const Event& event) {
  switch (event.kind) {
    case EventKind::kCrash:
      fault_of_[event.proc] = event.id;
      last_fault_ = event.id;
      break;
    case EventKind::kPartition:
      last_fault_ = event.id;
      last_partition_ = event.id;
      break;
    case EventKind::kGray:
      last_fault_ = event.id;
      break;
    case EventKind::kDetect:
      detect_of_[event.peer] = event.id;
      detect_by_[event.proc] = event.id;
      break;
    case EventKind::kSpawn:
    case EventKind::kTwin:
    case EventKind::kReissue:
      reissue_of_[stamp_key(event.stamp)] = event.id;
      break;
    case EventKind::kPlace:
      if (event.uid != 0) {
        if (event.uid >= place_of_.size()) {
          place_of_.resize(
              std::max<std::size_t>(event.uid + 1, place_of_.size() * 2),
              kNoEvent);
        }
        place_of_[event.uid] = event.id;
      }
      break;
    case EventKind::kComplete:
    case EventKind::kAbort:
      // Uids are never reused, so clear the entry: a stale placement can
      // never be relinked.
      if (event.uid < place_of_.size()) place_of_[event.uid] = kNoEvent;
      break;
    case EventKind::kCancel:
      cancel_of_[stamp_key(event.stamp)] = event.id;
      break;
    case EventKind::kRelay:
      relay_of_[stamp_key(event.stamp)] = event.id;
      break;
    case EventKind::kRevive:
    case EventKind::kRejoin:
      rejoin_of_[event.proc] = event.id;
      break;
    // Kinds that feed no linker map. Exhaustive by SPL003 and
    // -Wswitch-enum: a new EventKind must state here that nothing links
    // *through* it (it can still be linked *from*, via infer_cause).
    case EventKind::kCheckpoint:
    case EventKind::kPeerRejoin:
    case EventKind::kSalvage:
    case EventKind::kAckOfCorpse:
    case EventKind::kStranded:
    case EventKind::kDefer:
    case EventKind::kGraceExpired:
    case EventKind::kOracleLeak:
    case EventKind::kStateChunk:
    case EventKind::kTransferIn:
    case EventKind::kPreLink:
    case EventKind::kCatchUp:
    case EventKind::kHeal:
    case EventKind::kInjectRoot:
    case EventKind::kDone:
    case EventKind::kAnswer:
    case EventKind::kSnapshot:
    case EventKind::kRestore:
    case EventKind::kUnpark:
    case EventKind::kParkExpired:
    case EventKind::kCount:
      break;
  }
}

Journal Recorder::snapshot() const {
  Journal journal;
  journal.header.rank = header_rank_;
  journal.header.processors = header_procs_;
  journal.header.total_recorded = total_recorded();
  journal.header.dropped = dropped_;
  journal.events.reserve(slots_.size());
  for_each([&](const Event& event, const std::string&) {
    journal.events.push_back(event);
  });
  return journal;
}

std::vector<std::uint8_t> serialize(const Journal& journal) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + journal.events.size() * 12);
  for (const char c : kJournalMagic) out.push_back(static_cast<std::uint8_t>(c));
  net::codec::Writer w(out);
  w.varint(journal.header.version);
  w.varint(journal.header.rank);
  w.varint(journal.header.processors);
  w.varint(journal.header.total_recorded);
  w.varint(journal.header.dropped);
  w.varint(journal.events.size());
  // Ids are consecutive in a snapshot, ticks nondecreasing: both delta-
  // encode to ~1 byte. Proc ids shift by one so kNoProc encodes as 0.
  EventId prev_id = 0;
  std::int64_t prev_ticks = 0;
  for (const Event& e : journal.events) {
    w.varint(e.id - prev_id);
    prev_id = e.id;
    w.svarint(e.ticks - prev_ticks);
    prev_ticks = e.ticks;
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.varint(e.proc == net::kNoProc ? 0 : std::uint64_t{e.proc} + 1);
    w.varint(e.peer == net::kNoProc ? 0 : std::uint64_t{e.peer} + 1);
    w.varint(e.uid);
    w.varint(e.cause);
    w.varint(e.arg);
    w.varint(e.stamp.depth());
    for (const runtime::StampDigit digit : e.stamp.digits()) w.varint(digit);
  }
  return out;
}

Journal deserialize(const std::uint8_t* data, std::size_t size) {
  if (size < 4 || std::memcmp(data, kJournalMagic, 4) != 0) {
    throw std::runtime_error("journal: bad magic (not an SPLJ dump)");
  }
  net::codec::Reader r(data + 4, size - 4);
  Journal journal;
  journal.header.version = static_cast<std::uint32_t>(r.varint());
  if (journal.header.version != 1) {
    throw std::runtime_error("journal: unsupported version");
  }
  journal.header.rank = static_cast<std::uint32_t>(r.varint());
  journal.header.processors = static_cast<std::uint32_t>(r.varint());
  journal.header.total_recorded = r.varint();
  journal.header.dropped = r.varint();
  const std::uint64_t count = r.varint();
  if (count > size) {  // each event is >= 1 byte; cheap sanity bound
    throw std::runtime_error("journal: event count exceeds dump size");
  }
  journal.events.reserve(static_cast<std::size_t>(count));
  EventId prev_id = 0;
  std::int64_t prev_ticks = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    e.id = prev_id + r.varint();
    prev_id = e.id;
    e.ticks = prev_ticks + r.svarint();
    prev_ticks = e.ticks;
    const std::uint8_t kind = r.u8();
    if (kind >= kEventKindCount) {
      throw std::runtime_error("journal: unknown event kind");
    }
    e.kind = static_cast<EventKind>(kind);
    const std::uint64_t proc = r.varint();
    e.proc = proc == 0 ? net::kNoProc : static_cast<net::ProcId>(proc - 1);
    const std::uint64_t peer = r.varint();
    e.peer = peer == 0 ? net::kNoProc : static_cast<net::ProcId>(peer - 1);
    e.uid = r.varint();
    e.cause = r.varint();
    e.arg = r.varint();
    const std::uint64_t depth = r.varint();
    if (depth > 4096) throw std::runtime_error("journal: stamp too deep");
    runtime::LevelStamp::Digits digits;
    for (std::uint64_t d = 0; d < depth; ++d) {
      const std::uint64_t digit = r.varint();
      if (digit > std::numeric_limits<runtime::StampDigit>::max()) {
        throw std::runtime_error("journal: stamp digit out of range");
      }
      digits.push_back(static_cast<runtime::StampDigit>(digit));
    }
    e.stamp = runtime::LevelStamp(std::move(digits));
    journal.events.push_back(e);
  }
  if (!r.done()) throw std::runtime_error("journal: trailing bytes");
  return journal;
}

}  // namespace splice::obs

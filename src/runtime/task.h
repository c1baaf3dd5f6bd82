// A task: one function application in the call tree.
//
// Task evaluation follows §4.2's protocol loop:
//   "task packet: Execute the task. DO each instruction. If an unevaluated
//    function encountered, DEMAND IT. If cannot proceed, suspend the task.
//    UNTIL completion. Send the result to the parent."
//
// Each *scan* interprets the body against the current call-slot contents:
// primitive subtrees evaluate locally; Call nodes whose arguments are ready
// and whose slot is empty become spawn requests (DEMAND_IT); when the root
// expression folds to a value the task completes. If-branches are lazy, so
// only the demanded side of a conditional spawns children — that is what
// terminates recursion.
//
// The task state machine mirrors Fig. 6 (states a-g) from the task's own
// viewpoint; transient states b/d of the figure live in the network as
// unacknowledged packets.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "lang/program.h"
#include "runtime/task_packet.h"
#include "sim/time.h"

namespace splice::runtime {

enum class TaskState : std::uint8_t {
  kQueued,     // packet accepted by a processor, no scan yet
  kRunning,    // a scan step is executing
  kWaiting,    // suspended on outstanding children ("cannot proceed")
  kCompleted,  // value produced and forwarded
  kAborted,    // killed by recovery policy (rollback orphan rule)
};

[[nodiscard]] std::string_view to_string(TaskState state) noexcept;

/// Bookkeeping for one call site of the body: the functional checkpoint
/// (the child's args), the child pointer(s) learned from acks, the result,
/// and splice-recovery relay state.
struct CallSlot {
  lang::ExprId site = lang::kNoExpr;

  bool spawned = false;

  /// True when the current incarnation of the child is a recovery twin
  /// (step-child) created after a failure.
  bool twin_active = false;

  /// True when a warm rejoin pre-linked this slot to a child that survives
  /// on a peer: the result is awaited instead of respawned. Cleared when
  /// the pre-link grace sweep gives up waiting and respawns.
  bool prelinked = false;

  /// Replication votes (§5.3): values returned by replicas so far.
  std::uint32_t votes = 0;

  /// Times this slot was re-spawned by recovery.
  std::uint32_t respawns = 0;

  /// Functional checkpoint: "as a child task is spawned to a new node, the
  /// parent task may retain a copy of the task packet. This retained copy
  /// is all that the parent needs to regenerate the child task." (§2.1)
  /// Only the args of that packet cannot be derived; Task::child_packet
  /// rebuilds the rest from the owner. The one full copy of the packet
  /// lives in the checkpoint table's record. Dropped once the child
  /// returns.
  TaskPacket::Args args;

  std::optional<lang::Value> result;

  /// Destinations the packet (replicas) went to at the last (re)spawn.
  /// Inline for the common replication factors — slot bookkeeping costs no
  /// heap for <= 2 replicas.
  util::SmallVec<net::ProcId, 2> sent_to;
  /// Where each replica of the child was acknowledged (kNoProc until ack).
  util::SmallVec<net::ProcId, 2> child_procs;
  util::SmallVec<TaskUid, 2> child_uids;

  /// Pre-link provenance: the uid of the *previous incarnation's* task that
  /// originally spawned the awaited child (the restored checkpoint's owner
  /// before rebinding). A cancel for the awaited original must carry the
  /// parent ref that original actually holds — the re-hosted owner's fresh
  /// uid would name the replacement twin instead. Cleared on respawn.
  TaskUid prelink_prev_owner = kNoTask;

  /// The packet of a slot re-linked from a restored checkpoint record (warm
  /// rejoin pre-link, a rollback/splice owner matched by stamp). A previous
  /// incarnation built it, so its ancestor chain and lineage need not be
  /// what this owner would derive: the slot keeps it whole (args included)
  /// and reissues it as recorded. Null for every slot this owner spawned.
  class RestoredPacket {
   public:
    RestoredPacket() = default;
    explicit RestoredPacket(const TaskPacket& packet)
        : packet_(std::make_unique<TaskPacket>(packet)) {}
    RestoredPacket(const RestoredPacket& other)
        : packet_(other.packet_ ? std::make_unique<TaskPacket>(*other)
                                : nullptr) {}
    RestoredPacket& operator=(const RestoredPacket& other) {
      if (this != &other) *this = RestoredPacket(other);
      return *this;
    }
    RestoredPacket(RestoredPacket&&) noexcept = default;
    RestoredPacket& operator=(RestoredPacket&&) noexcept = default;

    [[nodiscard]] explicit operator bool() const noexcept {
      return packet_ != nullptr;
    }
    [[nodiscard]] TaskPacket& operator*() const noexcept { return *packet_; }
    [[nodiscard]] TaskPacket* operator->() const noexcept {
      return packet_.get();
    }

   private:
    std::unique_ptr<TaskPacket> packet_;
  };
  RestoredPacket restored;

  /// Orphan results received for *grandchildren* under this slot, awaiting
  /// the twin's ack so they can be relayed (grandparent transport role,
  /// §4.1: "it transports the orphan results to their step-parent").
  std::vector<ResultMsg> pending_relay;

  [[nodiscard]] bool resolved() const noexcept { return result.has_value(); }
  [[nodiscard]] bool outstanding() const noexcept {
    return spawned && !result.has_value();
  }
  /// Spawn generation of the packet the slot last sent (TaskPacket::
  /// lineage): the respawn count, or a restored record's own lineage until
  /// the slot first reissues it.
  [[nodiscard]] std::uint32_t lineage() const noexcept {
    return restored ? restored->lineage : respawns;
  }
  /// The child returned: its args can no longer be needed to regenerate it.
  void drop_args() noexcept;
};

/// Recycles call-slot arrays for one owner (a Processor). A task's slot
/// array is sized once, to its function's call-site count, on its first
/// slot; when the task dies the array goes back on the free list for its
/// size, so steady-state slot storage costs no malloc. Not thread-safe:
/// like the task pool, every acquire/release happens on the owner's
/// thread.
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool();

  /// Uninitialized storage for `capacity` slots.
  [[nodiscard]] CallSlot* acquire(std::uint32_t capacity);
  /// Return storage from acquire(capacity); its slots must be destroyed.
  void release(CallSlot* block, std::uint32_t capacity) noexcept;

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  std::vector<FreeBlock*> free_;  // free_[n]: released blocks of n slots
};

/// A task's call slots, out of line: a task that never reaches a Call node
/// (every leaf) holds no slot storage at all. The array is sized once, at
/// the first slot, to the planned capacity (the function's call-site
/// count) and comes from the owner's SlotPool; it only regrows for a site
/// outside that plan (hand-built tasks in tests). Copies — periodic-global
/// snapshots, which outlive any one processor's pool — use the heap.
class CallSlots {
 public:
  CallSlots() = default;
  CallSlots(SlotPool* pool, std::uint32_t capacity) noexcept
      : pool_(pool), capacity_(capacity) {}
  CallSlots(const CallSlots& other);
  CallSlots& operator=(const CallSlots& other);
  CallSlots(CallSlots&& other) noexcept;
  CallSlots& operator=(CallSlots&& other) noexcept;
  ~CallSlots();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True once the array exists (a leaf task never allocates it).
  [[nodiscard]] bool allocated() const noexcept { return data_ != nullptr; }
  [[nodiscard]] CallSlot* begin() noexcept { return data_; }
  [[nodiscard]] CallSlot* end() noexcept { return data_ + size_; }
  [[nodiscard]] const CallSlot* begin() const noexcept { return data_; }
  [[nodiscard]] const CallSlot* end() const noexcept { return data_ + size_; }

  /// Append an empty slot for `site`. References to earlier slots stay
  /// valid unless the array regrows (never, for a site in the plan).
  CallSlot& add(lang::ExprId site);

 private:
  void reserve(std::uint32_t capacity);
  void destroy() noexcept;

  CallSlot* data_ = nullptr;
  SlotPool* pool_ = nullptr;  // null: heap storage
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;  // planned until allocated, then actual
};

/// A spawn demanded by a scan: DEMAND_IT input.
/// The callee is the Call node's at `site` (Task::child_fn).
struct SpawnRequest {
  lang::ExprId site = lang::kNoExpr;
  TaskPacket::Args args;
};

struct ScanOutcome {
  std::optional<lang::Value> result;
  /// Inline for the common fan-outs (a binary body demands at most two
  /// children per scan); higher-arity bodies spill to the heap once.
  util::SmallVec<SpawnRequest, 2> spawns;
  /// Abstract ticks of local work this scan performed.
  std::uint64_t cost = 0;
};

class Task {
 public:
  /// `slots` plans the slot storage (pool and call-site count); the
  /// default is unplanned heap storage, grown as slots appear.
  Task(TaskUid uid, TaskPacket packet, sim::SimTime created_at,
       CallSlots slots = {})
      : uid_(uid),
        packet_(std::move(packet)),
        created_at_(created_at),
        slots_(std::move(slots)) {}

  [[nodiscard]] TaskUid uid() const noexcept { return uid_; }
  [[nodiscard]] const TaskPacket& packet() const noexcept { return packet_; }
  [[nodiscard]] const LevelStamp& stamp() const noexcept {
    return packet_.stamp;
  }
  [[nodiscard]] TaskState state() const noexcept { return state_; }
  void set_state(TaskState state) noexcept { state_ = state; }
  [[nodiscard]] sim::SimTime created_at() const noexcept { return created_at_; }

  /// Interpret the body against current slots. Does not mutate slot spawn
  /// flags — the caller (processor) marks slots spawned once packets are
  /// actually sent, then calls note_spawned().
  [[nodiscard]] ScanOutcome scan(const lang::Program& program);

  /// Mark a slot spawned and retain its checkpoint: the child's args.
  void note_spawned(lang::ExprId site, TaskPacket::Args args);
  /// Mark a slot spawned from a restored checkpoint record's packet, which
  /// the slot keeps whole (see CallSlot::restored).
  void note_restored(lang::ExprId site, const TaskPacket& packet);

  /// Stamp of the child at `slot`.
  [[nodiscard]] LevelStamp child_stamp(const CallSlot& slot) const {
    return packet_.stamp.child(static_cast<StampDigit>(slot.site));
  }
  /// Function the child at `slot` applies: the callee of its Call node.
  [[nodiscard]] lang::FuncId child_fn(const CallSlot& slot,
                                      const lang::Program& program) const {
    return program.function(packet_.fn).nodes[slot.site].callee;
  }
  /// The packet of the child at `slot` (replica 0), rebuilt — the one
  /// function every spawn, reissue and recovery path sends through. Only
  /// the args come from the slot; the rest derives from this task, hosted
  /// on `host`:
  ///   stamp     = stamp().child(site)
  ///   fn        = the callee of the Call node at `site`
  ///   ancestors = {host, uid()}, then this task's own chain, truncated to
  ///               `ancestor_depth` (>= 1) entries
  ///   zone      = this task's zone (lane confinement is inherited)
  ///   lineage   = the slot's respawn count
  /// A slot re-linked from a restored record returns that record's packet.
  [[nodiscard]] TaskPacket child_packet(const CallSlot& slot,
                                        const lang::Program& program,
                                        net::ProcId host,
                                        std::uint32_t ancestor_depth) const;

  /// Record a child ack (parent-to-child pointer, Fig. 6 state c). Returns
  /// false — and records nothing — when `lineage` is older than the slot's
  /// current spawn generation: a stale ack from a superseded (possibly
  /// already cancelled) instance must not overwrite the pointer the
  /// replacement's ack establishes, or recovery would relay results and
  /// forward cancels into a corpse.
  bool note_ack(lang::ExprId site, TaskRef child, std::uint32_t replica,
                std::uint32_t lineage);

  /// Deliver a result into a slot. With replication, `quorum` > 1 results
  /// must arrive before the slot resolves (§5.3 majority consensus; values
  /// are identical by determinacy, so the vote is a count). Returns true if
  /// the slot newly resolved — false for duplicates (cases 6-8: "the second
  /// copy is simply ignored").
  bool deliver_result(lang::ExprId site, const lang::Value& value,
                      std::uint32_t quorum);

  /// Pre-fill a slot that was never spawned (splice case 4: result arrives
  /// before the twin first scans; "P' will not spawn C' because the answer
  /// is already there").
  void prefill(lang::ExprId site, const lang::Value& value);

  [[nodiscard]] CallSlot* find_slot(lang::ExprId site);
  [[nodiscard]] const CallSlot* find_slot(lang::ExprId site) const;
  CallSlot& slot(lang::ExprId site);
  /// Slots in creation (body scan) order; each carries its own `site`.
  using Slots = CallSlots;
  [[nodiscard]] const Slots& slots() const noexcept { return slots_; }
  [[nodiscard]] Slots& slots_mut() noexcept { return slots_; }

  [[nodiscard]] std::uint32_t outstanding_children() const noexcept;
  [[nodiscard]] std::uint64_t scan_count() const noexcept { return scans_; }

  /// Dirty: a slot resolved while a scan step was executing, so the task
  /// must be rescanned when the step finishes.
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  void set_dirty(bool dirty) noexcept { dirty_ = dirty; }

  /// State-resident size in abstract units (packet + resolved results +
  /// each spawned child's packet, whose ancestor chain `ancestor_depth`
  /// truncates as in child_packet); used by the periodic-global baseline to
  /// cost snapshots and by the storage-overhead experiment.
  [[nodiscard]] std::uint32_t state_units(
      std::uint32_t ancestor_depth) const noexcept;

 private:
  using RequestedSites = util::SmallVec<lang::ExprId, 8>;
  std::optional<lang::Value> eval(const lang::Program& program,
                                  const lang::FunctionDef& def,
                                  lang::ExprId expr, ScanOutcome& outcome,
                                  RequestedSites& requested);

  TaskUid uid_;
  TaskPacket packet_;
  sim::SimTime created_at_;
  TaskState state_ = TaskState::kQueued;
  Slots slots_;
  std::uint64_t scans_ = 0;
  bool dirty_ = false;
};

// Footprint budgets. Every live task costs a Task; a task that spawns adds
// one CallSlot per call site of its body. A member that re-inflates either
// (say, a whole TaskPacket back inside CallSlot) fails the build here.
static_assert(sizeof(CallSlot) <= 280, "CallSlot outgrew its budget");
static_assert(sizeof(Task) <= 352, "Task outgrew its budget");

}  // namespace splice::runtime

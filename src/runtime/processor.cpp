#include "runtime/processor.h"

#include <algorithm>
#include <cassert>
#include <variant>

#include "runtime/runtime.h"
#include "util/logging.h"

namespace splice::runtime {

using net::Envelope;
using net::MsgKind;

namespace {
store::StateStreamer::Env make_streamer_env(Processor& self, Runtime& rt) {
  store::StateStreamer::Env env;
  env.chunk_records = rt.config().store.chunk_records;
  env.chunk_interval = sim::SimTime(rt.config().store.chunk_interval);
  env.send = [&self, &rt](net::ProcId to, store::StateChunkMsg chunk) {
    if (self.crashed()) return;
    ++self.counters().state_chunks_sent;
    rt.recorder().record(rt.sim().now(), obs::EventKind::kStateChunk,
                         {.proc = self.id(),
                          .peer = to,
                          .arg = static_cast<std::uint64_t>(
                              chunk.packets.size())},
                         [&] {
                           return "seq " + std::to_string(chunk.seq) + " (" +
                                  std::to_string(chunk.packets.size()) +
                                  " packets" +
                                  (chunk.last ? ", last)" : ")") + " -> P" +
                                  std::to_string(to);
                         });
    Envelope env_out;
    env_out.kind = MsgKind::kStateChunk;
    env_out.from = self.id();
    env_out.to = to;
    env_out.size_units = chunk.size_units();
    env_out.payload = std::move(chunk);
    rt.network().send(std::move(env_out));
  };
  env.after = [&rt](sim::SimTime delay, std::function<void()> fn) {
    rt.sim().after(delay, std::move(fn));
  };
  env.alive = [&rt](net::ProcId p) { return rt.network().alive(p); };
  env.packets_against = [&self](net::ProcId rejoiner) {
    std::vector<TaskPacket> packets;
    for (const checkpoint::CheckpointRecord& record :
         self.table().entry(rejoiner)) {
      packets.push_back(record.packet);
    }
    return packets;
  };
  env.still_checkpointed = [&self](net::ProcId rejoiner,
                                   const LevelStamp& stamp) {
    return self.table().contains(rejoiner, stamp);
  };
  env.known_dead = [&self, &rt] {
    // Sorted so the chunk contents — and therefore the whole run — stay a
    // pure function of the seed (the dead set is an unordered container).
    std::vector<net::ProcId> dead;
    for (net::ProcId p = 0; p < rt.network().size(); ++p) {
      if (p != self.id() && self.knows_dead(p)) dead.push_back(p);
    }
    return dead;
  };
  return env;
}
}  // namespace

Processor::Processor(Runtime& rt, net::ProcId id)
    : rt_(rt),
      id_(id),
      tasks_(util::PoolAllocator<std::pair<const TaskUid, TaskPtr>>(arena_)),
      table_(id, rt.config().processors),
      store_(id, rt.config().store.model, rt.config().store.survive_p,
             rt.config().seed),
      streamer_(make_streamer_env(*this, rt)) {
  if (store_.enabled()) table_.set_listener(&store_);
}

// ---------------------------------------------------------------------------
// Protocol loop dispatch
// ---------------------------------------------------------------------------

void Processor::handle(Envelope&& env) {
  if (dead_) return;  // fail-silent: a dead node processes nothing
  assert(net::payload_consistent(env.kind, env.payload));
  // `env` may alias transport-owned storage (stable for the duration of
  // this call). Each overload consumes the payload by move while evaluating
  // its handler's *arguments*, so handlers own their data outright and
  // never hold references into that storage.
  std::visit(
      [&](auto&& payload) {
        on_payload(env, std::forward<decltype(payload)>(payload));
      },
      std::move(env.payload));
}

void Processor::on_payload(Envelope&, std::monostate&&) {
  // kFetchData / kDataReply / kCheckpointXfer carry no modelled payload:
  // "if a processor receives a packet and cannot find a proper rule to
  // handle it, the processor simply ignores the received message."
}

void Processor::on_payload(Envelope&, TaskPacket&& msg) {
  accept_packet(std::move(msg));
}

void Processor::on_payload(Envelope&, AckMsg&& msg) {
  handle_ack(std::move(msg));
}

void Processor::on_payload(Envelope&, ResultMsg&& msg) {
  handle_result(std::move(msg));
}

void Processor::on_payload(Envelope&, ErrorMsg&& msg) {
  // A broadcast that raced a repair is stale: the accused node already
  // revived (and announced it), so don't re-mark it dead. Across OS
  // processes there is no liveness oracle to consult — trust the reporter;
  // a rejoin notice from the repaired node clears the verdict later.
  if (rt_.network().distributed() || !rt_.network().alive(msg.dead)) {
    learn_dead(msg.dead, /*direct_detection=*/false);
  }
}

void Processor::on_payload(Envelope&, HeartbeatMsg&&) {
  // Receipt alone proves liveness; detection watches for *absence*.
}

void Processor::on_payload(Envelope&, RejoinMsg&& msg) { learn_alive(msg.who); }

void Processor::on_payload(Envelope&, LoadMsg&&) {
  // Load gossip feeds the scheduler via Runtime, not the protocol loop.
}

void Processor::on_payload(Envelope&, ControlMsg&& msg) {
  // kShutdown ends a multi-process rank's driver loop; the other control
  // kinds are point-to-point runtime traffic handled at their call sites.
  if (msg.kind == ControlKind::kShutdown) rt_.request_shutdown();
}

void Processor::on_payload(Envelope&, CancelMsg&& msg) {
  handle_cancel(std::move(msg));
}

void Processor::on_payload(Envelope&, store::StateRequestMsg&& msg) {
  handle_state_request(std::move(msg));
}

void Processor::on_payload(Envelope& env, store::StateChunkMsg&& msg) {
  handle_state_chunk(env.from, std::move(msg));
}

void Processor::on_payload(Envelope&, net::EnvelopeBox&& box) {
  handle_delivery_failure(std::move(*box));
}

// ---------------------------------------------------------------------------
// Task intake & execution
// ---------------------------------------------------------------------------

TaskUid Processor::accept_packet(TaskPacket packet) {
  if (dead_) return kNoTask;
  if (const net::LinkFaultModel* faults = rt_.network().link_faults();
      faults != nullptr && faults->may_duplicate() && !packet.stamp.is_root()) {
    // Links may deliver twice. A co-resident live task with identical
    // (stamp, replica, parent, lineage) can only be the earlier delivery of
    // the same wire message — every respawn bumps lineage, so a legitimate
    // replacement never matches. Drop the copy before it executes (and
    // before it counts as created: it is not a new task, it is the same
    // send arriving again).
    if (Task* first = find_task_by_stamp_replica(
            packet.stamp, packet.replica, packet.parent(), sim::SimTime::max());
        first != nullptr && first->packet().lineage == packet.lineage) {
      ++counters_.wire_dups_discarded;
      return kNoTask;
    }
  }
  ++counters_.tasks_created;
  const TaskUid uid = rt_.next_uid(id_);
  const LevelStamp stamp = packet.stamp;
  const TaskRef parent = packet.parent();
  const lang::ExprId call_site = packet.call_site;
  const std::uint32_t replica = packet.replica;
  const std::uint32_t lineage = packet.lineage;
  const lang::FuncId fn = packet.fn;
  if (rt_.config().reclaim.cancellation && lineage > 0 && !stamp.is_root() &&
      rt_.replication_for(stamp.depth()) == 1) {
    // A recovery respawn landed here. If an older instance of the same
    // (stamp, replica) *from the same parent instance* is co-resident, it
    // is the superseded original of the lineage this packet replaces —
    // reclaim it locally before the replacement starts. (Gated on
    // lineage > 0 so the hot first-spawn path pays nothing for the scan;
    // parent-filtered so a sibling lineage's copy is never touched.)
    if (Task* older = find_task_by_stamp_replica(stamp, replica, parent,
                                                 rt_.sim().now())) {
      cancel_task(older->uid(), "cancelled: superseded by local respawn");
    }
  }
  tasks_.emplace(
      uid, task_pool_.make(
               uid, std::move(packet), rt_.sim().now(),
               CallSlots(&slot_pool_, rt_.program().function(fn).call_sites)));

  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPlace,
                        {.proc = id_, .uid = uid, .stamp = &stamp}, [&] {
                          return rt_.program().function(fn).name + " " +
                                 stamp.to_string() +
                                 " uid=" + std::to_string(uid);
                        });

  // Positive acknowledgement: establishes the parent-to-child pointer
  // (Fig. 6 state b -> c).
  AckMsg ack;
  ack.stamp = stamp;
  ack.call_site = call_site;
  ack.parent = parent;
  ack.child = TaskRef{id_, uid};
  ack.replica = replica;
  ack.lineage = lineage;
  if (parent.proc == net::kNoProc) {
    rt_.super_root_ack(ack, id_);
  } else {
    Envelope env;
    env.kind = MsgKind::kSpawnAck;
    env.from = id_;
    env.to = parent.proc;
    env.size_units = 1;
    env.payload = ack;
    rt_.network().send(std::move(env));
  }
  enqueue_scan(uid);
  return uid;
}

void Processor::enqueue_scan(TaskUid uid) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  task->set_state(TaskState::kQueued);
  step_queue_.push_back(uid);
  start_next_step();
}

void Processor::start_next_step() {
  if (dead_ || frozen_ || executing_) return;
  // Skip stale queue entries (aborted / completed tasks).
  while (!step_queue_.empty()) {
    const TaskUid uid = step_queue_.front();
    Task* task = find_task(uid);
    if (task == nullptr || task->state() != TaskState::kQueued) {
      step_queue_.pop_front();
      continue;
    }
    step_queue_.pop_front();
    task->set_state(TaskState::kRunning);
    task->set_dirty(false);
    if (rt_.has_triggers() && task->scan_count() == 0) {
      rt_.fire_trigger("exec:" + rt_.program().function(task->packet().fn).name);
      // The trigger may have synchronously killed this processor (nuke()
      // frees every task): re-validate before touching `task` again.
      if (dead_) return;
      task = find_task(uid);
      if (task == nullptr || task->state() != TaskState::kRunning) continue;
    }
    // The scan's outcome is computed now; its cost advances the clock and
    // its effects (sends, completion) apply when the step finishes.
    ScanOutcome outcome = task->scan(rt_.program());
    ++counters_.scans;
    const auto& cfg = rt_.config();
    const std::int64_t cost =
        1 + static_cast<std::int64_t>(outcome.cost) * cfg.op_cost +
        static_cast<std::int64_t>(outcome.spawns.size()) * cfg.spawn_cost;
    counters_.busy_ticks += cost;
    executing_ = true;
    // One step runs at a time, so the outcome parks in the processor and the
    // step-completion event captures only {this, uid, life} — inline in
    // EventFn. The incarnation guard keeps a pre-crash step event from
    // meddling with the revived node's parked outcome (it used to merely
    // no-op on a stale uid; now it must not even clear executing_).
    executing_outcome_ = std::move(outcome);
    rt_.sim().after(sim::SimTime(cost), [this, uid, life = incarnation_] {
      if (dead_ || life != incarnation_) return;
      executing_ = false;
      finish_scan(uid, executing_outcome_);
      start_next_step();
    });
    return;
  }
}

void Processor::finish_scan(TaskUid uid, ScanOutcome& outcome) {
  Task* task = find_task(uid);
  if (task == nullptr || task->state() == TaskState::kAborted) return;
  if (outcome.result.has_value()) {
    complete_task(uid, *outcome.result);
    return;
  }
  for (SpawnRequest& request : outcome.spawns) {
    spawn_child(*task, std::move(request));
    if (dead_) return;  // a spawn trigger killed this node mid-loop
  }
  // A result may have landed while this scan executed.
  if (task->dirty()) {
    task->set_dirty(false);
    task->set_state(TaskState::kQueued);
    step_queue_.push_back(uid);
  } else {
    task->set_state(TaskState::kWaiting);
  }
}

// ---------------------------------------------------------------------------
// DEMAND_IT (§4.2)
// ---------------------------------------------------------------------------
//   "Create a task packet. Level-stamp the task packet. Attach parent and
//    grandparent identifications to the task. Queue the task packet to load
//    balancing manager. Functional checkpoint the packet."

void Processor::spawn_child(Task& owner, SpawnRequest request) {
  if (const CallSlot* existing = owner.find_slot(request.site);
      existing != nullptr && existing->spawned && !existing->resolved()) {
    // The slot was pre-linked by a warm rejoin while this scan's outcome
    // was in flight: the original child survives elsewhere and its result
    // is awaited — spawning again would duplicate the whole subtree.
    return;
  }
  // The slot retains only the args; send_packet rebuilds the packet
  // (stamp, ancestor chain, zone, ...) from the owner.
  owner.note_spawned(request.site, std::move(request.args));
  send_packet(owner, owner.slot(request.site));
}

TaskPacket Processor::child_packet(const Task& owner,
                                   const CallSlot& slot) const {
  return owner.child_packet(slot, rt_.program(), id_,
                            rt_.config().recovery.ancestor_depth);
}

void Processor::send_packet(Task& owner, CallSlot& slot) {
  // The packet carries the slot's current spawn generation: acks echo it
  // (stale-lineage acks are dropped) and a superseded instance can be told
  // apart from its replacement wherever both land. A restored record's
  // packet takes it on from its first reissue.
  if (slot.restored) slot.restored->lineage = slot.respawns;
  const TaskPacket packet = child_packet(owner, slot);
  const std::uint32_t replicas =
      rt_.replication_for(packet.stamp.depth());
  const bool zoned = rt_.config().replication.enabled() &&
                     rt_.config().replication.zoned && replicas > 1;
  sched::Scheduler::DestVec dests;
  if (zoned) {
    // Each replica is placed within its own lane, so destinations must be
    // chosen with the replica's zone annotated.
    for (std::uint32_t r = 0; r < replicas; ++r) {
      TaskPacket probe = packet;
      probe.replica = r;
      probe.zone = static_cast<std::int32_t>(r);
      const net::ProcId dest = rt_.scheduler().choose(id_, probe);
      if (dest != net::kNoProc) dests.push_back(dest);
    }
  } else {
    dests = rt_.scheduler().choose_replicas(id_, packet, replicas);
  }
  if (dests.empty()) return;  // no alive processor: the system is gone
  slot.sent_to = dests;
  slot.child_procs.assign(dests.size(), net::kNoProc);
  slot.child_uids.assign(dests.size(), kNoTask);
  // This spawn is the slot's lineage now; pre-link provenance (used to
  // address cancels at the previous incarnation's child) is spent.
  slot.prelink_prev_owner = kNoTask;
  if (rt_.has_triggers()) {
    rt_.fire_trigger("spawn:" + rt_.program().function(packet.fn).name);
    if (dead_) return;  // trigger killed this node; owner/slot freed
  }
  for (std::uint32_t r = 0; r < dests.size(); ++r) {
    TaskPacket copy = packet;
    copy.replica = r;
    if (zoned) copy.zone = static_cast<std::int32_t>(r);
    Envelope env;
    env.kind = MsgKind::kTaskPacket;
    env.from = id_;
    env.to = dests[r];
    env.size_units = copy.size_units();
    env.payload = std::move(copy);
    rt_.network().send(std::move(env));
  }
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kSpawn,
      {.proc = id_, .peer = dests[0], .stamp = &packet.stamp}, [&] {
        return rt_.program().function(packet.fn).name + " " +
               packet.stamp.to_string() + " -> P" + std::to_string(dests[0]) +
               (dests.size() > 1
                    ? " (+" + std::to_string(dests.size() - 1) + ")"
                    : "");
      });
  // Functional checkpoint (replica 0's destination keys the table entry).
  if (rt_.policy().functional_checkpointing()) {
    if (slot.respawns > 0) {
      // A respawn moves the reissue obligation to the new destination; the
      // record made for the superseded spawn must not linger in the old
      // destination's entry, or a later warm rejoin of that processor
      // would re-host — resurrect — the lineage this respawn replaces.
      table_.release_anywhere(packet.stamp);
    }
    checkpoint::CheckpointRecord record;
    record.owner = owner.uid();
    record.site = slot.site;
    record.packet = packet;
    const auto outcome = table_.record(dests[0], std::move(record));
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kCheckpoint,
        {.proc = id_,
         .peer = dests[0],
         .uid = owner.uid(),
         .stamp = &packet.stamp},
        [&] {
          return packet.stamp.to_string() + " entry P" +
                 std::to_string(dests[0]) +
                 (outcome == checkpoint::RecordOutcome::kSubsumed
                      ? " (subsumed)"
                      : "");
        });
  }
}

// ---------------------------------------------------------------------------
// Completion & result routing
// ---------------------------------------------------------------------------

void Processor::complete_task(TaskUid uid, const lang::Value& value) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  task->set_state(TaskState::kCompleted);
  ++counters_.tasks_completed;

  ResultMsg msg;
  msg.stamp = task->stamp();
  msg.call_site = task->packet().call_site;
  msg.value = value;
  msg.target = task->packet().parent();
  msg.relation = ResultRelation::kToParent;
  msg.ancestor_index = 0;
  msg.ancestors = task->packet().ancestors;
  msg.replica = task->packet().replica;

  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kComplete,
      {.proc = id_,
       .uid = task->uid(),
       .stamp = &task->stamp(),
       .arg = static_cast<std::uint64_t>(
           (rt_.sim().now() - task->created_at()).ticks())},
      [&] {
        return rt_.program().function(task->packet().fn).name + " " +
               task->stamp().to_string() + " = " + value.to_string();
      });
  if (rt_.has_triggers()) {
    rt_.fire_trigger("complete:" +
                     rt_.program().function(task->packet().fn).name);
    if (dead_) return;  // trigger killed this node; `task` is freed
  }

  // The task is fully reduced; free the node's copy before routing the
  // result (matches the paper's reduction of the evaluation structure).
  tasks_.erase(uid);

  if (msg.target.proc == net::kNoProc) {
    rt_.deliver_to_super_root(std::move(msg), id_);
    return;
  }
  if (knows_dead(msg.target.proc)) {
    // "C sends the result to G after failing to communicate with parent P"
    // — when the parent is already known dead, skip the doomed send and let
    // the policy route (splice: to the grandparent; rollback: drop).
    rt_.policy().on_result_undeliverable(*this, std::move(msg));
    return;
  }
  send_result_msg(std::move(msg), msg.target.proc);
}

void Processor::send_result_msg(ResultMsg msg, net::ProcId to) {
  Envelope env;
  env.kind = MsgKind::kForwardResult;
  env.from = id_;
  env.to = to;
  env.size_units = msg.size_units();
  env.payload = std::move(msg);
  rt_.network().send(std::move(env));
}

void Processor::handle_result(ResultMsg msg) {
  if (msg.relation == ResultRelation::kToAncestor) {
    rt_.policy().on_ancestor_result(*this, std::move(msg));
    return;
  }
  Task* task = find_task(msg.target.uid);
  if (task == nullptr && warm_rejoined_ && !msg.stamp.is_root()) {
    // The result addresses a task of this node's previous incarnation; the
    // warm rejoin re-created it under a fresh uid. Level stamps come from
    // program structure (§3.1), so they name the same task across lives —
    // "interpret the level stamp" instead of the stale pointer.
    task = find_task_by_stamp(msg.stamp.parent());
  }
  if (task == nullptr || task->state() == TaskState::kCompleted ||
      task->state() == TaskState::kAborted) {
    if (task == nullptr && buffer_warm_result(std::move(msg))) return;
    // Case 8: "The processor which contained P' may no longer recognize the
    // arrived answer. The result is discarded."
    ++counters_.late_results_discarded;
    return;
  }
  deliver_parent_result(*task, msg);
}

bool Processor::buffer_warm_result(ResultMsg msg) {
  // Only while chunks are still streaming: the consumer may be in flight.
  if (!warm_rejoined_ || awaiting_transfer_.empty()) return false;
  warm_pending_results_.push_back(std::move(msg));
  return true;
}

void Processor::flush_warm_results() {
  if (warm_pending_results_.empty()) return;
  std::vector<ResultMsg> pending = std::move(warm_pending_results_);
  warm_pending_results_.clear();
  // Unmatched results re-buffer themselves while catch-up is active and
  // fall through to the normal discard path after it completes.
  for (ResultMsg& msg : pending) handle_result(std::move(msg));
}

void Processor::deliver_parent_result(Task& task, const ResultMsg& msg) {
  CallSlot& slot = task.slot(msg.call_site);
  if (slot.resolved()) {
    // Cases 6/7: "Since they are identical, the second copy is simply
    // ignored."
    ++counters_.duplicate_results_ignored;
    return;
  }
  const std::uint32_t quorum =
      msg.relayed ? 1U : rt_.quorum_for(msg.stamp.depth());
  const bool newly = task.deliver_result(msg.call_site, msg.value, quorum);
  if (!newly) return;  // vote registered, quorum pending (§5.3)

  if (msg.relayed) {
    ++counters_.orphan_results_salvaged;
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kSalvage,
        {.proc = id_, .uid = task.uid(), .stamp = &msg.stamp}, [&] {
          return msg.stamp.to_string() + " into " + task.stamp().to_string();
        });
  }
  // An unspawned slot can be pre-filled here (twin not yet scanned, or a
  // stamp-matched delivery into a re-hosted task); it spawned nothing, so
  // no trigger fires for it.
  if (rt_.has_triggers() && slot.spawned) {
    rt_.fire_trigger(
        "result:" +
        rt_.program().function(task.child_fn(slot, rt_.program())).name);
    if (dead_) return;  // trigger killed this node; task/slot are freed
  }
  // The slot resolved on a lineage that was recovered at least once (a
  // salvaged orphan return beat the twin, or the twin's own return beat the
  // superseded original): some instance of it may still be computing the
  // very value just delivered. The §4.1 rules would let it run to run end
  // and ignore its result; instead the discard travels as a cancel to
  // every instance the slot still points at (a completed producer is
  // simply no longer there to receive it). A pre-linked slot resolving
  // directly needs nothing: its single awaited original just completed,
  // and its grace respawn would have set twin_active.
  if (rt_.config().reclaim.cancellation && (msg.relayed || slot.twin_active)) {
    cancel_slot_instances(task, slot);  // async sends: nothing dies here
  }
  // The child returned; its functional checkpoint is no longer needed.
  if (rt_.policy().functional_checkpointing()) {
    table_.release_anywhere(msg.stamp);
  }
  slot.drop_args();
  resume_after_fill(task);
}

void Processor::resume_after_fill(Task& task) {
  switch (task.state()) {
    case TaskState::kWaiting:
      task.set_state(TaskState::kQueued);
      step_queue_.push_back(task.uid());
      start_next_step();
      break;
    case TaskState::kRunning:
      task.set_dirty(true);
      break;
    case TaskState::kQueued:
    case TaskState::kCompleted:
    case TaskState::kAborted:
      break;
  }
}

// ---------------------------------------------------------------------------
// Acks, failures, recovery plumbing
// ---------------------------------------------------------------------------

void Processor::handle_ack(AckMsg msg) {
  // Ack-of-corpse: the child announced itself to a parent instance that no
  // longer exists (cancelled, aborted as an orphan, or lost to a crash the
  // uid outlived). Nothing will ever consume the child's result — reply
  // with a uid-exact cancel so the in-flight spawns of reclaimed lineages
  // are reclaimed too, however late they land. (Replicated depths keep
  // every copy; see cancel_slot_instances.)
  const auto reply_cancel = [&](std::string_view why) {
    if (!rt_.config().reclaim.cancellation || msg.stamp.is_root() ||
        rt_.replication_for(msg.stamp.depth()) > 1 ||
        msg.child.proc == net::kNoProc || knows_dead(msg.child.proc)) {
      return;
    }
    if (msg.parent.uid < incarnation_uid_floor_) {
      // The addressed parent died with a previous incarnation of this
      // node, it was not cancelled: its branch may be regrowing from a
      // restored checkpoint record (respawn_from_record keeps the old
      // parent ref so results still route by stamp), and cancelling the
      // fresh child would nullify the only remaining copy.
      return;
    }
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kAckOfCorpse,
        {.proc = id_, .uid = msg.child.uid, .stamp = &msg.stamp},
        [&] { return msg.stamp.to_string() + " " + std::string(why); });
    send_cancel(msg.stamp, msg.replica, msg.child.uid, msg.parent,
                msg.child.proc);
  };
  Task* task = find_task(msg.parent.uid);
  if (task == nullptr) {
    reply_cancel("parent instance gone");
    return;
  }
  if (!task->note_ack(msg.call_site, msg.child, msg.replica, msg.lineage)) {
    // Stale spawn generation: the instance this ack names was superseded
    // (and cancelled) by a later respawn of the slot. Recording it would
    // point relays — and forwarded cancels — at a corpse; the reply makes
    // sure the superseded instance itself dies even if the respawn-time
    // cancel raced past it in flight.
    reply_cancel("superseded spawn generation");
    return;
  }
  if (rt_.has_triggers()) {
    const lang::FuncId fn =
        task->child_fn(task->slot(msg.call_site), rt_.program());
    rt_.fire_trigger("ack:" + rt_.program().function(fn).name);
    if (dead_) return;  // trigger killed this node; `task` is freed
  }
  // Grandparent transport role: flush orphan results buffered for the twin.
  CallSlot& slot = task->slot(msg.call_site);
  if (!slot.pending_relay.empty() && msg.replica == 0) {
    std::vector<ResultMsg> pending = std::move(slot.pending_relay);
    slot.pending_relay.clear();
    for (ResultMsg& orphan : pending) {
      relay_or_buffer(*task, slot, std::move(orphan));
    }
  }
}

void Processor::relay_or_buffer(Task& ancestor, CallSlot& slot,
                                ResultMsg msg) {
  // Target: the slot's current (step-)child, i.e. the twin of the orphan's
  // dead ancestor.
  if (slot.child_procs.empty() || slot.child_procs[0] == net::kNoProc ||
      knows_dead(slot.child_procs[0])) {
    slot.pending_relay.push_back(std::move(msg));
    return;
  }
  const TaskRef twin{slot.child_procs[0], slot.child_uids[0]};
  const std::size_t producer_depth = msg.stamp.depth();
  const std::size_t twin_depth = ancestor.stamp().depth() + 1;
  assert(producer_depth > twin_depth);
  const auto gap = producer_depth - twin_depth;
  msg.target = twin;
  msg.relation =
      gap == 1 ? ResultRelation::kToParent : ResultRelation::kToAncestor;
  msg.ancestor_index = static_cast<std::uint32_t>(gap - 1);
  msg.relayed = true;
  ++counters_.results_relayed;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kRelay,
      {.proc = id_, .peer = twin.proc, .uid = twin.uid, .stamp = &msg.stamp},
      [&] {
        return msg.stamp.to_string() + " -> twin " + std::to_string(twin.uid) +
               "@P" + std::to_string(twin.proc);
      });
  send_result_msg(std::move(msg), twin.proc);
}

void Processor::handle_delivery_failure(Envelope original) {
  const net::ProcId dead = original.to;
  // The bounce notice trails the failure by the detection timeout; under a
  // rejoin plan the node may have revived (and broadcast its rejoin notice)
  // in between. Marking a live node dead would stick forever — no second
  // rejoin notice will come — so only record the death while it holds.
  // Payload-level recovery below still runs either way: the original
  // message *was* lost, whatever the destination's current state. Across
  // OS processes the bounce came from a real connection failure — the
  // destination was down moments ago; record it (its rejoin notice will
  // clear the verdict if it comes back). An unreachable destination — the
  // far side of an active partition — is §1's "considered faulty" case:
  // detection fires exactly as for a crash. A loss to a destination both
  // alive and reachable (lossy or gray link) triggers no detection at all;
  // only the payload-level recovery below runs.
  if (rt_.network().distributed() || !rt_.network().alive(dead) ||
      !rt_.network().reachable(id_, dead)) {
    learn_dead(dead, /*direct_detection=*/true);
  }
  // Payload loss to a destination both alive and reachable is a wire
  // accident, not a death: the addressee still wants the message, so the
  // right recovery is to send it again. Respawning the child (spawn) or
  // escalating the result to an ancestor (salvage) are *death* recoveries —
  // escalating a result past a live, waiting parent would park it as
  // salvage nobody ever claims.
  const bool wire_loss = !rt_.network().distributed() &&
                         rt_.network().alive(dead) &&
                         rt_.network().reachable(id_, dead);
  switch (original.kind) {
    case MsgKind::kTaskPacket:
      if (wire_loss) {
        retransmit_after_backoff(std::move(original));
      } else {
        rt_.policy().on_spawn_undeliverable(
            *this, std::get<TaskPacket>(original.payload));
      }
      break;
    case MsgKind::kForwardResult:
      if (wire_loss) {
        retransmit_after_backoff(std::move(original));
      } else {
        rt_.policy().on_result_undeliverable(
            *this, std::get<ResultMsg>(std::move(original.payload)));
      }
      break;
    case MsgKind::kStateRequest:
      if (!rt_.network().distributed() && rt_.network().alive(dead)) {
        // Lost on a lossy/gray link, not to a crash: ask again.
        retransmit_after_backoff(std::move(original));
      } else {
        // The peer died before it could stream anything; stop waiting.
        note_transfer_peer_done(dead);
      }
      break;
    case MsgKind::kSpawnAck:
    case MsgKind::kFetchData:
    case MsgKind::kDataReply:
    case MsgKind::kErrorDetection:
    case MsgKind::kCheckpointXfer:
    case MsgKind::kRejoinNotice:
    case MsgKind::kStateChunk:
    case MsgKind::kCancel:
    case MsgKind::kControl:
      // Protocol messages with no payload-level reissue path: nobody
      // regenerates a lost ack, data reply, state chunk, or cancel, and the
      // detector broadcasts each death once, so a loss on a lossy/gray link
      // would quietly break liveness (a waiting parent, an unhonoured
      // reissue obligation, a duplicate computing to run end). Retry after
      // a backoff while the destination stays alive — each retry is another
      // independent draw, so delivery is eventually certain; receivers are
      // idempotent (stale broadcasts, chunks, and cancels are guarded at the
      // handler). A broadcast whose subject is alive is not retried at all
      // (stale_error_notice): its receiver would discard it, and across a
      // partition the retries would bounce until the heal.
      // In-process backends only: across OS processes the bounce means the
      // peer really went down, and a retry would just bounce again.
      if (!rt_.network().distributed() && rt_.network().alive(dead)) {
        retransmit_after_backoff(std::move(original));
      }
      break;
    case MsgKind::kHeartbeat:
    case MsgKind::kLoadUpdate:
      break;  // periodic gossip; the next beat serves the same purpose
    case MsgKind::kDeliveryFailure:
      // A bounce notice that itself bounced: the loss it reported was
      // already handled when the notice was first generated, and the
      // reverse link's health is the detector's problem, not ours.
      break;
  }
}

void Processor::retransmit_after_backoff(Envelope env) {
  if (stale_error_notice(env)) return;
  const net::ProcId dest = env.to;
  const bool is_cancel = env.kind == MsgKind::kCancel;
  // Register waiting cancels with the runtime so the gc oracle knows the
  // lineage's reclaim is delayed in this pipeline, not leaked.
  LevelStamp cancel_stamp;
  if (is_cancel) {
    cancel_stamp = std::get<CancelMsg>(env.payload).stamp;
    note_cancel_backoff(cancel_stamp, +1);
  }
  const sim::SimTime backoff =
      sim::SimTime(2 * rt_.network().latency_model().failure_timeout);
  rt_.sim().after(
      backoff, [this, env = std::move(env), dest, is_cancel, cancel_stamp,
                life = incarnation_]() mutable {
        if (is_cancel) note_cancel_backoff(cancel_stamp, -1);
        if (dead_ || life != incarnation_ || rt_.done()) return;
        if (!rt_.network().alive(dest)) return;  // addressee died meanwhile
        if (stale_error_notice(env)) return;     // subject revived meanwhile
        if (is_cancel) {
          ++counters_.cancel_retries;
        } else {
          ++counters_.bounce_retransmits;
        }
        rt_.network().send(std::move(env));
      });
}

bool Processor::stale_error_notice(const Envelope& env) const {
  return env.kind == MsgKind::kErrorDetection &&
         !rt_.network().distributed() &&
         rt_.network().alive(std::get<ErrorMsg>(env.payload).dead);
}

void Processor::note_cancel_backoff(const LevelStamp& stamp, int delta) {
  if (delta > 0) {
    cancels_in_backoff_[stamp] += static_cast<std::uint32_t>(delta);
    return;
  }
  const auto it = cancels_in_backoff_.find(stamp);
  if (it == cancels_in_backoff_.end()) return;
  const auto dec = static_cast<std::uint32_t>(-delta);
  if (it->second <= dec) {
    cancels_in_backoff_.erase(it);
  } else {
    it->second -= dec;
  }
}

void Processor::learn_dead(net::ProcId dead, bool direct_detection) {
  if (dead == id_ || known_dead_.contains(dead)) return;
  known_dead_.insert(dead);
  if (rt_.network().alive(dead)) cut_off_.insert(dead);
  // A catch-up peer that died mid-stream will never send its last chunk.
  note_transfer_peer_done(dead);
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kDetect,
      {.proc = id_, .peer = dead, .arg = direct_detection ? 1u : 0u}, [&] {
        // Incremental concatenation dodges a gcc 12 -Wrestrict false
        // positive.
        std::string detail = "P";
        detail += std::to_string(dead);
        detail += direct_detection ? " (direct)" : " (broadcast)";
        return detail;
      });
  rt_.note_detection(dead, id_);
  if (direct_detection) {
    // First-hand detector: broadcast error-detection so every processor can
    // honour its reissue obligations. A peer this node already holds dead
    // and cannot reach sits across an active partition: the send could only
    // bounce, so skip it — learn_alive_across_heal delivers the notice
    // when the cut heals.
    ++counters_.error_broadcasts;
    for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
      if (p == id_ || p == dead || !rt_.network().alive(p)) continue;
      if (knows_dead(p) && !rt_.network().reachable(id_, p)) continue;
      send_error_notice(p, dead);
    }
  }
  rt_.policy().on_error_detected(*this, dead);
}

void Processor::send_error_notice(net::ProcId to, net::ProcId dead) {
  Envelope env;
  env.kind = MsgKind::kErrorDetection;
  env.from = id_;
  env.to = to;
  env.size_units = 1;
  env.payload = ErrorMsg{dead, id_};
  rt_.network().send(std::move(env));
}

void Processor::respawn_slot(Task& owner, CallSlot& slot, bool as_twin,
                             std::string_view reason) {
  if (slot.resolved() || !slot.spawned) return;
  // The instances the slot pointed at so far are superseded by the twin
  // about to spawn; any that survive on a live processor (undetected
  // rejoin, pre-link grace expiry, warm re-host vs. survivor fallback)
  // would compute a duplicate lineage. Discard travels as a message:
  // cancels go out *before* the replacement packets, so on a shared
  // destination the cancel is delivered first and can never hit the twin.
  if (rt_.config().reclaim.cancellation) cancel_slot_instances(owner, slot);
  ++slot.respawns;
  ++counters_.tasks_respawned;
  if (as_twin) {
    slot.twin_active = true;
    ++counters_.twins_created;
  }
  const LevelStamp stamp = owner.child_stamp(slot);
  rt_.recorder().record(
      rt_.sim().now(),
      as_twin ? obs::EventKind::kTwin : obs::EventKind::kReissue,
      {.proc = id_, .stamp = &stamp}, [&] {
        return rt_.program().function(owner.child_fn(slot, rt_.program()))
                   .name +
               " " + stamp.to_string() + " (" + std::string(reason) + ")";
      });
  send_packet(owner, slot);
}

// ---------------------------------------------------------------------------
// Cancellation protocol (kCancel)
// ---------------------------------------------------------------------------
// The recovery scheme never assumes global knowledge: every corrective
// action — reissue, splice, discard — travels as a message. Reclamation of
// duplicate lineages is the discard case. A cancel names its victim by
// (stamp, replica), the identity that survives crashes (§3.1), plus the
// exact uid when the issuer holds an acknowledged pointer; the receiver
// aborts the addressed task, releases the checkpoints it retained for its
// own children, and forwards cancels down every outstanding call slot, so
// the duplicate subtree converges hop by hop.

void Processor::send_cancel(const LevelStamp& stamp, std::uint32_t replica,
                            TaskUid uid, TaskRef parent, net::ProcId to) {
  ++counters_.cancels_sent;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kCancel,
      {.proc = id_, .peer = to, .uid = uid, .stamp = &stamp}, [&] {
        return stamp.to_string() +
               (uid != kNoTask
                    ? " uid=" + std::to_string(uid)
                    : " (of parent uid=" + std::to_string(parent.uid) + ")") +
               " -> P" + std::to_string(to);
      });
  CancelMsg msg;
  msg.stamp = stamp;
  msg.replica = replica;
  msg.uid = uid;
  msg.parent = parent;
  msg.issued_at = rt_.sim().now();
  Envelope env;
  env.kind = MsgKind::kCancel;
  env.from = id_;
  env.to = to;
  env.size_units = msg.size_units();
  env.payload = msg;
  rt_.network().send(std::move(env));
}

void Processor::cancel_slot_instances(const Task& owner, const CallSlot& slot) {
  if (!rt_.config().reclaim.cancellation) return;
  const LevelStamp stamp = owner.child_stamp(slot);
  // Roots belong to the super-root; replicated depths keep every copy by
  // design (§5.3 — the redundancy IS the copies).
  if (stamp.is_root() || rt_.replication_for(stamp.depth()) > 1) return;
  // Stamp-addressed cancels revoke a specific parent instance's spawn: for
  // a pre-linked slot the awaited original carries the *previous
  // incarnation's* owner uid; every other never-acked instance carries the
  // current owner's.
  const TaskRef spawner{id_, slot.prelink_prev_owner != kNoTask
                                 ? slot.prelink_prev_owner
                                 : owner.uid()};
  for (std::size_t r = 0; r < slot.sent_to.size(); ++r) {
    const bool acked = r < slot.child_procs.size() &&
                       slot.child_procs[r] != net::kNoProc &&
                       slot.child_uids[r] != kNoTask;
    const net::ProcId where = acked ? slot.child_procs[r] : slot.sent_to[r];
    if (where == net::kNoProc || where >= rt_.network().size() ||
        (knows_dead(where) && !rt_.network().alive(where))) {
      // Really dead: nothing lives there to reclaim. A destination this
      // node merely *believes* dead may have rejoined undetected (repair,
      // healed partition) with the instance still resident — the cancel
      // must go out or that copy leaks; to a truly dead node it only
      // bounces.
      continue;
    }
    send_cancel(stamp, static_cast<std::uint32_t>(r),
                acked ? slot.child_uids[r] : kNoTask, spawner, where);
  }
}

void Processor::handle_cancel(CancelMsg msg) {
  if (!rt_.config().reclaim.cancellation || msg.stamp.is_root()) return;
  Task* task = nullptr;
  if (msg.uid != kNoTask) {
    task = find_task(msg.uid);
    // Uids are never reused, but a stamp mismatch would mean a protocol
    // bug upstream — refuse to abort anything the cancel does not name.
    if (task != nullptr && task->stamp() != msg.stamp) task = nullptr;
  } else {
    task = find_task_by_stamp_replica(msg.stamp, msg.replica, msg.parent,
                                      msg.issued_at);
  }
  if (task == nullptr || task->state() == TaskState::kCompleted ||
      task->state() == TaskState::kAborted) {
    // Already completed, already reclaimed, or a fresh lineage the
    // incarnation fence protects — either way the cancel found no work.
    ++counters_.cancels_ignored;
    return;
  }
  cancel_task(task->uid(), "cancelled: duplicate lineage");
}

void Processor::cancel_task(TaskUid uid, std::string_view reason) {
  Task* task = find_task(uid);
  if (task == nullptr || task->state() == TaskState::kCompleted ||
      task->state() == TaskState::kAborted) {
    return;
  }
  ++counters_.tasks_cancelled;
  counters_.reclaim_latency_ticks +=
      (rt_.sim().now() - task->created_at()).ticks();
  // Release the checkpoints this lineage retained and propagate the cancel
  // down every outstanding slot before the local abort frees them.
  for (const CallSlot& slot : task->slots()) {
    if (!slot.spawned || slot.resolved()) continue;
    if (rt_.policy().functional_checkpointing()) {
      table_.release_anywhere(task->child_stamp(slot));
    }
    cancel_slot_instances(*task, slot);
  }
  abort_task(uid, reason);
}

void Processor::abort_task(TaskUid uid, std::string_view reason) {
  Task* task = find_task(uid);
  if (task == nullptr) return;
  if (task->state() == TaskState::kCompleted ||
      task->state() == TaskState::kAborted) {
    return;
  }
  task->set_state(TaskState::kAborted);
  ++counters_.tasks_aborted;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kAbort,
      {.proc = id_, .uid = uid, .stamp = &task->stamp()}, [&] {
        return task->stamp().to_string() + " (" + std::string(reason) + ")";
      });
  tasks_.erase(uid);
}

Task* Processor::find_task(TaskUid uid) {
  auto it = tasks_.find(uid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

bool Processor::has_stake_in(net::ProcId dead) const {
  if (!table_.entry(dead).empty()) return true;
  for (const auto& [uid, task] : tasks_) {
    if (task->state() == TaskState::kCompleted ||
        task->state() == TaskState::kAborted) {
      continue;
    }
    if (task->packet().parent().proc == dead) return true;
    for (const CallSlot& slot : task->slots()) {
      if (!slot.outstanding()) continue;
      for (net::ProcId p : slot.sent_to) {
        if (p == dead) return true;
      }
      // A child may have been accepted by a node the scheduler did not
      // originally pick (respawn landed elsewhere); the ack knows.
      for (net::ProcId p : slot.child_procs) {
        if (p == dead) return true;
      }
    }
  }
  return false;
}

Task* Processor::find_task_by_stamp_replica(const LevelStamp& stamp,
                                            std::uint32_t replica,
                                            TaskRef parent,
                                            sim::SimTime before) {
  Task* best = nullptr;
  for (auto& [uid, task] : tasks_) {
    if (task->state() == TaskState::kCompleted ||
        task->state() == TaskState::kAborted || task->stamp() != stamp ||
        task->packet().replica != replica ||
        !(task->packet().parent() == parent) ||
        !(task->created_at() < before)) {
      continue;
    }
    if (best == nullptr || task->uid() < best->uid()) best = task.get();
  }
  return best;
}

Task* Processor::find_task_by_stamp(const LevelStamp& stamp) {
  // Lowest uid wins so the choice is deterministic regardless of hash-map
  // iteration order (replicas can share a stamp on one node).
  Task* best = nullptr;
  for (auto& [uid, task] : tasks_) {
    if (task->state() == TaskState::kCompleted ||
        task->state() == TaskState::kAborted || task->stamp() != stamp) {
      continue;
    }
    if (best == nullptr || task->uid() < best->uid()) best = task.get();
  }
  return best;
}

void Processor::respawn_from_record(checkpoint::CheckpointRecord record,
                                    std::string_view reason) {
  TaskPacket packet = record.packet;
  packet.replica = 0;
  // A restored-record reissue supersedes whatever instance the record's
  // previous spawn produced; bump the generation so (a) the replacement's
  // acceptance triggers local duplicate reclaim and (b) a straggling ack
  // from the old instance cannot outrank the new one.
  ++packet.lineage;
  record.packet.lineage = packet.lineage;
  const net::ProcId dest = rt_.scheduler().choose(id_, packet);
  if (dest == net::kNoProc) return;
  ++counters_.tasks_respawned;
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kReissue,
                        {.proc = id_, .stamp = &packet.stamp}, [&] {
                          return packet.stamp.to_string() +
                                 " from restored record (" +
                                 std::string(reason) + ")";
                        });
  Envelope env;
  env.kind = MsgKind::kTaskPacket;
  env.from = id_;
  env.to = dest;
  env.size_units = packet.size_units();
  env.payload = packet;
  rt_.network().send(std::move(env));
  if (rt_.policy().functional_checkpointing()) {
    table_.record(dest, std::move(record));
  }
}

// ---------------------------------------------------------------------------
// Crash / freeze / snapshot
// ---------------------------------------------------------------------------

void Processor::nuke() {
  dead_ = true;
  // Everything resident is live work (completed/aborted tasks are erased
  // eagerly); it dies with the node. Counted so the RecoveryOracle can
  // balance the task-conservation equation — counters_ itself survives the
  // crash, it describes the run, not the incarnation.
  counters_.tasks_lost_to_crash += tasks_.size();
  tasks_.clear();
  step_queue_.clear();
  executing_ = false;
  warm_rejoined_ = false;
  awaiting_transfer_.clear();
  streamer_.cancel_all();     // abandon any catch-up streams this node fed
  store_.on_crash(incarnation_);  // the persistency model decides survival
  ++incarnation_;  // orphan this life's pending heartbeat chain
  store_.set_incarnation(incarnation_);
}

void Processor::revive() {
  if (!dead_) return;
  dead_ = false;
  frozen_ = false;
  executing_ = false;
  incarnation_uid_floor_ = rt_.current_uid(id_);
  // Whatever the rejoin mode, the node has no memory of which peers failed
  // while it was down; warm catch-up re-learns that from survivors.
  known_dead_.clear();
  cut_off_.clear();
  const bool warm = rt_.warm_rejoin();
  std::size_t restored = 0;
  table_.set_listener(nullptr);  // replay must not re-log itself
  table_.clear();
  if (warm) {
    // Replay skips checkpoints held against this node itself — they guard
    // children that died in the same crash, so the re-accepted parents
    // respawn those subtrees fresh.
    restored = store_.replay_into(table_);
    store_.compact_from(table_);
    warm_rejoined_ = true;
    revive_time_ = rt_.sim().now();
  } else {
    store_.clear();  // cold: the new life starts from an empty log
  }
  if (store_.enabled()) table_.set_listener(&store_);
  ++counters_.rejoins;
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kRejoin,
      {.proc = id_, .arg = warm ? static_cast<std::uint64_t>(restored) : 0},
      [&] {
        return warm ? "repaired, warm (" + std::to_string(restored) +
                          " checkpoints restored)"
                    : std::string("repaired, blank");
      });
  // Announce the rejoin so live peers drop this node from their dead sets
  // (dead peers either stay silent forever or rejoin themselves).
  for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
    if (p == id_ || !rt_.network().alive(p)) continue;
    Envelope env;
    env.kind = MsgKind::kRejoinNotice;
    env.from = id_;
    env.to = p;
    env.size_units = 1;
    env.payload = RejoinMsg{id_};
    rt_.network().send(std::move(env));
  }
  if (warm) {
    // Survivor-assisted catch-up: ask every live peer for the checkpoints
    // it holds against this node (the tasks this node should re-host) and
    // its liveness view. Chunks stream back interleaved with normal
    // traffic; the incarnation guards against a re-crash mid-transfer.
    for (net::ProcId p = 0; p < rt_.network().size(); ++p) {
      if (p == id_ || !rt_.network().alive(p)) continue;
      awaiting_transfer_.insert(p);
      Envelope env;
      env.kind = MsgKind::kStateRequest;
      env.from = id_;
      env.to = p;
      env.size_units = 1;
      env.payload = store::StateRequestMsg{id_, incarnation_};
      rt_.network().send(std::move(env));
    }
    // Nobody left to stream from: catch-up is trivially complete (the
    // pre-link sweep and result flushing must still be armed).
    if (awaiting_transfer_.empty()) {
      complete_catch_up();
    } else {
      // Liveness guard on the stream itself: a final chunk lost to a lossy
      // or gray link would hold catch-up open forever (the peer is alive,
      // so no death notification ever closes it). After the warm grace —
      // the same horizon at which survivors give up deferring and reissue
      // cold — stop waiting; the pre-link sweep respawns whatever a
      // missing chunk should have carried.
      rt_.sim().after(sim::SimTime(rt_.config().store.warm_grace),
                      [this, life = incarnation_] {
                        if (life != incarnation_ || dead_ || rt_.done() ||
                            awaiting_transfer_.empty()) {
                          return;
                        }
                        awaiting_transfer_.clear();
                        complete_catch_up();
                      });
    }
  }
  start_heartbeats();
}

// ---------------------------------------------------------------------------
// Warm-rejoin state transfer (store/ subsystem)
// ---------------------------------------------------------------------------

void Processor::handle_state_request(store::StateRequestMsg msg) {
  // The request races the rejoin notice only in pathological orders; treat
  // it as proof of life either way.
  if (knows_dead(msg.who)) learn_alive(msg.who);
  streamer_.start(msg.who, msg.incarnation);
}

void Processor::handle_state_chunk(net::ProcId from,
                                   store::StateChunkMsg msg) {
  if (!warm_rejoined_ || msg.incarnation != incarnation_) {
    // Addressed to a previous life: this node re-crashed mid-transfer and
    // the chunk outlived it. The peer's table still holds every record, so
    // the next revive re-requests from scratch.
    ++counters_.stale_chunks_dropped;
    return;
  }
  counters_.state_units_transferred += msg.size_units();
  for (net::ProcId p : msg.known_dead) {
    // Survivor liveness view: adopt deaths the network still agrees on.
    if (p == id_ || rt_.network().alive(p)) continue;
    learn_dead(p, /*direct_detection=*/false);
  }
  for (TaskPacket& packet : msg.packets) {
    accept_transferred_packet(std::move(packet));
  }
  flush_warm_results();  // consumers for parked results may just have landed
  if (msg.last) note_transfer_peer_done(from);
}

void Processor::accept_transferred_packet(TaskPacket packet) {
  if (find_task_by_stamp(packet.stamp) != nullptr) return;  // already hosted
  ++counters_.state_packets_transferred;
  ++counters_.reissues_avoided;  // the peer would have respawned this task
  const LevelStamp stamp = packet.stamp;
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kTransferIn,
                        {.proc = id_, .stamp = &stamp},
                        [&] { return stamp.to_string() + " re-hosted"; });
  const TaskUid uid = accept_packet(std::move(packet));
  Task* task = find_task(uid);
  if (task == nullptr) return;
  // Rebind replay-restored child checkpoints to the re-accepted owner and —
  // when the policy salvages orphans — pre-link its slots: subtrees that
  // survive on peers are awaited (their results route back by stamp), not
  // recomputed. Without salvage an orphan's result can be abandoned in
  // flight, so a non-salvaging policy respawns instead of awaiting.
  const bool prelink = rt_.policy().salvages_orphans();
  for (auto& [dest, record] : table_.restored_children_of(stamp)) {
    const TaskUid prev_owner = record->owner;
    record->owner = uid;
    if (!record->packet.ancestors.empty()) {
      record->packet.ancestors[0] = TaskRef{id_, uid};
    }
    if (!prelink) continue;
    task->note_restored(record->site, record->packet);
    CallSlot& slot = task->slot(record->site);
    slot.sent_to = {dest};
    slot.prelinked = true;
    // The awaited original out there still carries the previous
    // incarnation's owner uid as its parent ref; a cancel for it (pre-link
    // grace expiry) must name that instance, not the re-hosted owner.
    slot.prelink_prev_owner = prev_owner;
    rt_.recorder().record(
        rt_.sim().now(), obs::EventKind::kPreLink,
        {.proc = id_, .peer = dest, .stamp = &record->packet.stamp}, [&] {
          return record->packet.stamp.to_string() + " awaiting P" +
                 std::to_string(dest);
        });
  }
}

void Processor::note_transfer_peer_done(net::ProcId peer) {
  if (awaiting_transfer_.erase(peer) == 0 || !awaiting_transfer_.empty()) {
    return;
  }
  complete_catch_up();
}

void Processor::complete_catch_up() {
  counters_.catch_up_ticks += (rt_.sim().now() - revive_time_).ticks();
  rt_.recorder().record(
      rt_.sim().now(), obs::EventKind::kCatchUp,
      {.proc = id_,
       .arg = static_cast<std::uint64_t>(
           (rt_.sim().now() - revive_time_).ticks())},
      [&] {
        return "state transfer complete after " +
               std::to_string((rt_.sim().now() - revive_time_).ticks()) +
               " ticks";
      });
  flush_warm_results();  // stragglers now resolve or discard normally
  // Liveness guard on the awaited orphans: a pre-linked result can be lost
  // to a later fault (ancestor chain exhausted, host re-crash) or be a
  // stale obligation whose release the persistency model dropped. After
  // the pre-link grace, stop waiting and respawn whatever is unresolved —
  // duplicate returns are ignored by the §4.1 rules, so this trades a
  // little repeat work for guaranteed progress.
  rt_.sim().after(sim::SimTime(rt_.config().store.prelink_grace),
                  [this, life = incarnation_] {
                    if (life != incarnation_ || dead_ || rt_.done()) return;
                    for_each_task([&](Task& task) {
                      for (CallSlot& slot : task.slots_mut()) {
                        if (!slot.prelinked || slot.resolved()) continue;
                        slot.prelinked = false;
                        respawn_slot(task, slot, /*as_twin=*/true,
                                     "pre-link grace expired");
                      }
                    });
                    // Catch-up is over and every awaited slot has either
                    // resolved or respawned: results for the previous
                    // incarnation are no longer expected, so stop paying
                    // the stamp-scan fallback on every unmatched result.
                    warm_rejoined_ = false;
                  });
}

void Processor::learn_alive(net::ProcId back) {
  if (back == id_) return;
  // A peer this node is awaiting catch-up chunks from crashed mid-stream
  // (its pump died with it) and has now been repaired: re-request. The
  // repaired peer streams whatever its own store preserved — possibly just
  // an empty final chunk — so the catch-up bookkeeping always completes.
  if (awaiting_transfer_.contains(back)) {
    Envelope env;
    env.kind = MsgKind::kStateRequest;
    env.from = id_;
    env.to = back;
    env.size_units = 1;
    env.payload = store::StateRequestMsg{id_, incarnation_};
    rt_.network().send(std::move(env));
  }
  // Incremental concatenation in the thunks dodges a gcc 12 -Wrestrict
  // false positive (same workaround as learn_dead).
  cut_off_.erase(back);
  if (known_dead_.erase(back) > 0) {
    rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPeerRejoin,
                          {.proc = id_, .peer = back}, [&] {
                            std::string detail = "P";
                            detail += std::to_string(back);
                            detail += " is back";
                            return detail;
                          });
    return;
  }
  // We never saw this node die: the repair beat our detection timeout. Its
  // volatile state — including any of our children it hosted — is gone all
  // the same, so honour the reissue obligations a death notification would
  // have triggered. (No-op when we hold no checkpoints toward it.)
  rt_.recorder().record(rt_.sim().now(), obs::EventKind::kPeerRejoin,
                        {.proc = id_, .peer = back}, [&] {
                          std::string detail = "P";
                          detail += std::to_string(back);
                          detail += " rejoined undetected";
                          return detail;
                        });
  rt_.policy().on_error_detected(*this, back);
}

void Processor::learn_alive_across_heal(net::ProcId back,
                                        const std::vector<net::ProcId>& dead) {
  learn_alive(back);
  for (net::ProcId d : dead) {
    // A peer written off while only cut off, that died later: its own side
    // detects the death first-hand and broadcasts it to every survivor. A
    // notice from here would pre-empt that detection and leave this side
    // of the cut without the broadcast.
    if (knows_dead(d) && !cut_off_.contains(d)) send_error_notice(back, d);
  }
}

void Processor::freeze() { frozen_ = true; }

void Processor::unfreeze() {
  frozen_ = false;
  start_next_step();
}

std::vector<Task> Processor::snapshot_tasks() const {
  std::vector<Task> out;
  out.reserve(tasks_.size());
  for (const auto& [uid, task] : tasks_) {
    Task copy = *task;
    // An in-flight step is not part of durable state; the restored task
    // rescans from its slots.
    if (copy.state() == TaskState::kRunning) copy.set_state(TaskState::kQueued);
    copy.set_dirty(false);
    out.push_back(std::move(copy));
  }
  return out;
}

void Processor::restore_tasks(std::vector<Task> tasks) {
  if (dead_) return;
  tasks_.clear();
  step_queue_.clear();
  for (Task& task : tasks) {
    const TaskUid uid = task.uid();
    task.set_state(TaskState::kQueued);
    tasks_.emplace(uid, task_pool_.make(std::move(task)));
    step_queue_.push_back(uid);
  }
  start_next_step();
}

void Processor::adopt_tasks(std::vector<Task> tasks) {
  if (dead_) return;
  for (Task& task : tasks) {
    const TaskUid uid = task.uid();
    task.set_state(TaskState::kQueued);
    tasks_.emplace(uid, task_pool_.make(std::move(task)));
    step_queue_.push_back(uid);
  }
  start_next_step();
}

std::uint64_t Processor::state_units() const {
  std::uint64_t units = 0;
  for (const auto& [uid, task] : tasks_) {
    units += task->state_units(rt_.config().recovery.ancestor_depth);
  }
  return units;
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

void Processor::start_heartbeats() {
  const std::int64_t interval = rt_.config().heartbeat_interval;
  if (interval <= 0) return;
  // Stagger initial probes so the fleet does not heartbeat in lockstep.
  const std::int64_t offset =
      static_cast<std::int64_t>(id_) * (interval / (rt_.network().size() + 1));
  rt_.sim().after(sim::SimTime(interval + offset),
                  [this, life = incarnation_] {
                    if (life == incarnation_) do_heartbeat();
                  });
}

void Processor::do_heartbeat() {
  if (dead_ || rt_.done()) return;
  ++heartbeat_seq_;
  for (net::ProcId q : rt_.network().topology().neighbors(id_)) {
    if (knows_dead(q)) continue;
    Envelope env;
    env.kind = MsgKind::kHeartbeat;
    env.from = id_;
    env.to = q;
    env.size_units = 1;
    env.payload = HeartbeatMsg{heartbeat_seq_};
    rt_.network().send(std::move(env));
  }
  rt_.sim().after(sim::SimTime(rt_.config().heartbeat_interval),
                  [this, life = incarnation_] {
                    if (life == incarnation_) do_heartbeat();
                  });
}

}  // namespace splice::runtime

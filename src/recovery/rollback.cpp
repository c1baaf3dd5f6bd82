#include "recovery/rollback.h"

#include "runtime/processor.h"
#include "runtime/runtime.h"

namespace splice::recovery {

using runtime::CallSlot;
using runtime::Processor;
using runtime::ResultMsg;
using runtime::Task;

bool all_destinations_dead(Processor& proc, const CallSlot& slot) {
  if (slot.sent_to.empty()) return false;
  for (std::size_t i = 0; i < slot.sent_to.size(); ++i) {
    // Prefer the acknowledged location (the packet may have been accepted
    // by a node that later forwarded nothing), else the send destination.
    net::ProcId where = slot.sent_to[i];
    if (i < slot.child_procs.size() && slot.child_procs[i] != net::kNoProc) {
      where = slot.child_procs[i];
    }
    if (!proc.knows_dead(where)) return false;
  }
  return true;
}

/// Rollback-specific recoverability: deaths are learned one at a time, and
/// the doomed sweep can run between learning a destination dead and
/// discharging the reissue obligation against it. A checkpoint still
/// retained against any destination means the slot is recoverable — the
/// pending reissue_against(that destination) will regrow the child — so
/// the owning task must not be doomed out from under it. (The eager-splice
/// variant must NOT use this: splice never takes records, so a record's
/// presence there says nothing about a pending reissue.)
bool slot_still_checkpointed(Processor& proc, const Task& owner,
                             const CallSlot& slot) {
  const runtime::LevelStamp stamp = owner.child_stamp(slot);
  for (std::size_t i = 0; i < slot.sent_to.size(); ++i) {
    net::ProcId where = slot.sent_to[i];
    if (i < slot.child_procs.size() && slot.child_procs[i] != net::kNoProc) {
      where = slot.child_procs[i];
    }
    if (proc.table().contains(where, stamp)) return true;
  }
  return false;
}

std::pair<Task*, CallSlot*> resolve_record_owner(
    Processor& proc, checkpoint::CheckpointRecord& record) {
  Task* owner = proc.find_task(record.owner);
  if (owner == nullptr && record.restored &&
      !record.packet.stamp.is_root()) {
    // Restored across a crash: the uid names the previous incarnation.
    owner = proc.find_task_by_stamp(record.packet.stamp.parent());
  }
  if (owner == nullptr) return {nullptr, nullptr};
  CallSlot* slot = owner->find_slot(record.site);
  if (slot == nullptr || !slot->spawned) {
    // A stamp-matched owner re-accepted after the crash may not have
    // reached this call site yet; re-link the slot from the checkpoint.
    owner->note_restored(record.site, record.packet);
    slot = owner->find_slot(record.site);
  }
  return {owner, slot};
}

void RollbackPolicy::on_error_detected(Processor& proc, net::ProcId dead) {
  if (proc.runtime().defer_reissue(proc, dead)) return;
  reissue_against(proc, dead);
}

void RollbackPolicy::reissue_against(Processor& proc, net::ProcId dead) {
  // Under the cancellation protocol a doomed lineage's descendants on
  // *other* processors are reclaimed too: the abort forwards kCancel down
  // every outstanding slot instead of letting the subtree compute to run
  // end for a result nobody can consume.
  const bool cascade = proc.runtime().config().reclaim.cancellation;
  // (a) Abort direct orphans: their results could only flow to the dead
  //     parent ("the result of the task cannot be forwarded").
  const auto orphaned = [&](Task& task) {
    return task.packet().parent().proc == dead;
  };
  if (cascade) {
    proc.cancel_tasks_if(orphaned, "orphan: parent processor failed");
  } else {
    proc.abort_tasks_if(orphaned, "orphan: parent processor failed");
  }

  // (b) Reissue the topmost checkpoints held against the dead processor.
  auto records = proc.table().take(dead);
  for (auto& record : records) {
    auto [owner, slot] = resolve_record_owner(proc, record);
    if (owner == nullptr) {
      if (record.restored) {
        // The owner died with this node's previous incarnation and was not
        // re-accepted; the retained packet alone regrows the branch.
        proc.respawn_from_record(std::move(record), "rollback restored");
      }
      continue;  // owner was aborted in (a): its branch regrows from a
                 // higher ancestor
    }
    if (slot == nullptr || slot->resolved()) continue;
    proc.respawn_slot(*owner, *slot, /*as_twin=*/false, "rollback reissue");
  }

  // (c) Abort doomed descendants: tasks waiting on children trapped in the
  //     dead node whose checkpoints were subsumed — their own topmost
  //     ancestor is being regrown elsewhere, so "new arguments of the task
  //     cannot be obtained". (Reissued slots in (b) already point at live
  //     destinations and are skipped.)
  const auto doomed = [&](Task& task) {
    for (const auto& slot : task.slots()) {
      if (slot.outstanding() && all_destinations_dead(proc, slot) &&
          !slot_still_checkpointed(proc, task, slot)) {
        return true;
      }
    }
    return false;
  };
  if (cascade) {
    proc.cancel_tasks_if(doomed, "doomed: child lost and not topmost");
  } else {
    proc.abort_tasks_if(doomed, "doomed: child lost and not topmost");
  }
}

void RollbackPolicy::on_result_undeliverable(Processor& proc,
                                             ResultMsg /*msg*/) {
  // "Returns from orphan tasks are theoretically harmless since they are
  //  forwarded to a faulty processor." Rollback abandons the partial result.
  ++proc.counters().late_results_discarded;
}

void RollbackPolicy::on_ancestor_result(Processor& proc, ResultMsg /*msg*/) {
  // Rollback has no grandparent transport; "others: ignore the packet".
  ++proc.counters().late_results_discarded;
}

}  // namespace splice::recovery

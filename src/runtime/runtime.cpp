#include "runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "recovery/rollback.h"
#include "util/logging.h"

namespace splice::runtime {

Runtime::Runtime(sim::Simulator& sim, net::Network& network,
                 const core::SystemConfig& config,
                 const lang::Program& program)
    : sim_(sim),
      network_(network),
      config_(config),
      program_(program),
      hosts_super_root_(network.is_local(0)),
      detection_noted_(config.processors, false) {
  // The recorder is the single write path for observability: an explicit
  // obs.recorder opt-in journals typed events, and collect_trace (the
  // legacy human-readable trace) additionally keeps rendered detail
  // strings — the Trace accessor materialises its view from this journal.
  recorder_.configure(config_.obs.recorder || config_.collect_trace,
                      config_.obs.journal_capacity, config_.collect_trace);
  recorder_.set_processors(config_.processors);
  scheduler_ = sched::make_scheduler(config_.scheduler);
  policy_ = recovery::make_policy(config_.recovery);

  procs_.reserve(config_.processors);
  for (net::ProcId p = 0; p < config_.processors; ++p) {
    procs_.push_back(std::make_unique<Processor>(*this, p));
    network_.set_receiver(p, [this, p](net::Envelope&& env) {
      procs_[p]->handle(std::move(env));
    });
  }

  attach_scheduler();

  checkpoint::SuperRoot::Env sr;
  sr.spawn = [this](TaskPacket packet) {
    return spawn_root_packet(std::move(packet));
  };
  sr.relay = [this](ResultMsg msg) { host_send_result(std::move(msg)); };
  sr.on_stranded = [this] { ++stranded_from_host_; };
  sr.recorder = &recorder_;
  sr.quorum = quorum_for(0);
  sr.replicas = replication_for(0);
  // Root respawn is itself a recovery action: the no-recovery control arm
  // must not get it, and periodic-global restores the root from its own
  // snapshots instead.
  sr.recover_root = config_.super_root &&
                    config_.recovery.kind != core::RecoveryKind::kNone &&
                    config_.recovery.kind !=
                        core::RecoveryKind::kPeriodicGlobal;
  super_root_ = std::make_unique<checkpoint::SuperRoot>(std::move(sr));

  policy_->attach(*this);
}

Runtime::~Runtime() = default;

void Runtime::attach_scheduler() {
  sched::SchedulerEnv env;
  env.topology = &network_.topology();
  env.program = &program_;
  env.alive = [this](net::ProcId p) { return network_.alive(p); };
  // A processor never spawns toward a peer it has itself declared dead:
  // its reissue obligation against that peer is already discharged, so a
  // checkpoint recorded there afterwards would never be taken — the slot
  // would be unrecoverable. (Partitions make this reachable: the far side
  // is globally alive yet locally suspected.)
  env.suspected = [this](net::ProcId origin, net::ProcId p) {
    return origin < procs_.size() && procs_[origin]->knows_dead(p);
  };
  if (engine_ != nullptr) {
    // A worker must not read another shard's live queue; the engine
    // publishes a load snapshot at every window barrier. Staleness of at
    // most one window is the same imperfect-information regime the
    // schedulers already operate in between gradient refreshes.
    env.queue_length = [this](net::ProcId p) { return engine_->load_of(p); };
    env.sharded = true;
  } else {
    env.queue_length = [this](net::ProcId p) {
      return procs_[p]->queue_length();
    };
  }
  if (config_.replication.enabled() && config_.replication.zoned) {
    // Replica-lane confinement: zone z tasks live on processors p with
    // p % factor == z, so one crash damages at most one lane (§5.3/§5.4).
    env.eligible = [this](net::ProcId p, const TaskPacket& packet) {
      if (packet.zone < 0) return true;
      return static_cast<std::int32_t>(p % config_.replication.factor) ==
             packet.zone % static_cast<std::int32_t>(
                               config_.replication.factor);
    };
  }
  env.seed = config_.seed;
  scheduler_->attach(env);
}

void Runtime::set_engine(EngineHooks* engine) {
  engine_ = engine;
  uid_stream_next_.assign(procs_.size(), 0);
  for (net::ProcId p = 0; p < procs_.size(); ++p) {
    uid_stream_next_[p] = checkpoint::SuperRoot::kSuperRootUid + 1 + p;
  }
  // Per-origin scheduler streams replace the shared classic streams.
  attach_scheduler();
}

void Runtime::start() {
  // Multi-process group: only the OS process hosting rank 0 owns the
  // super-root (and therefore injects the root program); every process
  // arms heartbeats for the ranks it actually hosts. Under a
  // single-process transport every rank is local, so this is the same
  // full bring-up as always.
  if (hosts_super_root_) {
    TaskPacket root;
    root.stamp = LevelStamp::root();
    root.fn = program_.entry();
    root.args = TaskPacket::Args(program_.entry_args().begin(),
                                 program_.entry_args().end());
    root.call_site = lang::kNoExpr;
    root.ancestors.push_back(super_root_->ref());
    super_root_->start(std::move(root));
  }

  for (auto& proc : procs_) {
    if (!network_.is_local(proc->id())) continue;
    if (engine_ != nullptr) {
      // Heartbeat timers live on the owning shard's simulator; workers are
      // not running yet, so installing the context here is safe.
      Processor* raw = proc.get();
      engine_->with_shard_of(raw->id(), [raw] { raw->start_heartbeats(); });
    } else {
      proc->start_heartbeats();
    }
  }
  if (engine_ != nullptr &&
      config_.scheduler.kind == core::SchedulerKind::kGradient) {
    // Prime the gradient field before any worker calls choose(): the lazy
    // first refresh mutates shared state and must stay off worker threads.
    scheduler_messages_ += scheduler_->on_tick(sim::SimTime(0));
  }
  schedule_scheduler_tick();
  schedule_gc_tick();
  schedule_obs_sample();
}

core::Trace& Runtime::trace() {
  // Rebuild the rendering view when the journal advanced. With the
  // recorder off both counts are 0 after the first call, so this stays a
  // cheap comparison.
  if (trace_materialized_ != recorder_.total_recorded()) {
    trace_ = core::Trace(true);
    recorder_.for_each([this](const obs::Event& event,
                              const std::string& detail) {
      trace_.add(sim::SimTime(event.ticks), event.proc,
                 std::string(obs::to_string(event.kind)), detail);
    });
    trace_.set_enabled(recorder_.enabled());
    trace_materialized_ = recorder_.total_recorded();
  }
  return trace_;
}

void Runtime::schedule_obs_sample() {
  if (!recorder_.enabled() || config_.obs.sample_interval <= 0) return;
  sim_.after(sim::SimTime(config_.obs.sample_interval), [this] {
    if (engine_ != nullptr) {
      // The engine's shard rings are merged (and the metrics rebuilt) after
      // the run; live samples are stored with the engine and interleaved at
      // replay so the gauge series is identical across shard counts. The
      // gauge itself sums the same logical event set regardless of K:
      // coordinator queue + shard queues + staged ops.
      engine_->note_gauge_sample(
          sim_.now(), sim_.pending_events() + engine_->shard_pending(),
          network_.in_flight(), checkpoint_resident_now());
    } else {
      recorder_.metrics().sample(sim_.now().ticks(), sim_.pending_events(),
                                 network_.in_flight(),
                                 checkpoint_resident_now());
    }
    // The window closing at (or after) completion is the last one; without
    // this stop the rearming tick would keep the event queue alive until
    // the deadline.
    if (done_) return;
    schedule_obs_sample();
  });
}

std::uint64_t Runtime::checkpoint_resident_now() const {
  std::uint64_t resident = 0;
  for (const auto& proc : procs_) {
    if (!proc->crashed()) resident += proc->table().total_records();
  }
  return resident;
}

net::ProcId Runtime::spawn_root_packet(TaskPacket packet) {
  if (config_.replication.enabled() && config_.replication.zoned &&
      replication_for(0) > 1) {
    packet.zone = static_cast<std::int32_t>(packet.replica);
  }
  // The host channel is a direct call into the destination processor; in a
  // multi-process group that is only possible on a rank this process hosts,
  // so the root is pinned to rank 0 (whose process is the one injecting).
  const net::ProcId dest =
      network_.distributed() ? 0 : scheduler_->choose(0, packet);
  if (dest == net::kNoProc) return net::kNoProc;
  ++host_messages_;
  recorder_.record(sim_.now(), obs::EventKind::kInjectRoot,
                   {.peer = dest, .arg = packet.replica}, [&] {
                     return "replica " + std::to_string(packet.replica) +
                            " -> P" + std::to_string(dest);
                   });
  sim_.after(sim::SimTime(config_.latency.base),
             [this, dest, packet = std::move(packet)]() mutable {
               if (!network_.alive(dest)) {
                 // The host link observes the crash immediately and lets the
                 // super-root place the root elsewhere.
                 super_root_->on_processor_dead(dest);
                 return;
               }
               if (engine_ != nullptr) {
                 // Accepting records/sends/schedules on dest — run it on
                 // dest's shard at the next window start. A kill ordered
                 // after this post at the same barrier can still land first,
                 // so the shard op re-checks and bounces to the super-root
                 // through the host channel (coordinator context).
                 engine_->post_shard(
                     dest, [this, dest, packet = std::move(packet)]() mutable {
                       if (procs_[dest]->crashed()) {
                         engine_->post_host(dest, [this, dest] {
                           super_root_->on_processor_dead(dest);
                         });
                         return;
                       }
                       procs_[dest]->accept_packet(std::move(packet));
                     });
                 return;
               }
               procs_[dest]->accept_packet(std::move(packet));
             });
  return dest;
}

void Runtime::deliver_to_super_root(ResultMsg msg, net::ProcId acting) {
  if (in_shard_context()) {
    // Re-enter on the coordinator at the next barrier; the replay executes
    // at the posting time, so the base-latency leg below is unchanged.
    engine_->post_host(acting,
                       [this, msg = std::move(msg), acting]() mutable {
                         deliver_to_super_root(std::move(msg), acting);
                       });
    return;
  }
  ++host_messages_;
  sim_.after(sim::SimTime(config_.latency.base),
             [this, msg = std::move(msg)]() mutable {
               const bool was_done = super_root_->done();
               super_root_->on_result(std::move(msg));
               if (!was_done && super_root_->done()) {
                 done_ = true;
                 completion_time_ = sim_.now();
                 recorder_.record(sim_.now(), obs::EventKind::kDone, {}, [&] {
                   return super_root_->answer().to_string();
                 });
               }
             });
}

void Runtime::super_root_ack(AckMsg msg, net::ProcId acting) {
  if (in_shard_context()) {
    engine_->post_host(acting, [this, msg, acting] {
      super_root_ack(msg, acting);
    });
    return;
  }
  ++host_messages_;
  sim_.after(sim::SimTime(config_.latency.base),
             [this, msg] { super_root_->on_ack(msg); });
}

void Runtime::host_send_result(ResultMsg msg) {
  assert(!in_shard_context() &&
         "host_send_result is a coordinator-context channel");
  ++host_messages_;
  sim_.after(sim::SimTime(config_.latency.base),
             [this, msg = std::move(msg)]() mutable {
               const net::ProcId dest = msg.target.proc;
               if (dest == net::kNoProc || !network_.alive(dest)) {
                 ++stranded_from_host_;
                 return;
               }
               net::Envelope env;
               env.kind = net::MsgKind::kForwardResult;
               env.from = dest;  // host channel surfaces at the destination
               env.to = dest;
               env.size_units = msg.size_units();
               env.payload = std::move(msg);
               if (engine_ != nullptr) {
                 // handle() records/sends on dest — shard-op it, with the
                 // same late-crash re-check as the root inject leg.
                 auto shared = std::make_shared<net::Envelope>(std::move(env));
                 engine_->post_shard(dest, [this, dest, shared] {
                   if (procs_[dest]->crashed()) {
                     engine_->post_host(dest, [this] { ++stranded_from_host_; });
                     return;
                   }
                   procs_[dest]->handle(std::move(*shared));
                 });
                 return;
               }
               procs_[dest]->handle(std::move(env));
             });
}

void Runtime::note_detection(net::ProcId dead, net::ProcId detector) {
  if (in_shard_context()) {
    // Once-per-death bookkeeping touches coordinator-owned state
    // (detection_noted_, super-root, global policy hooks); replay at the
    // barrier. The dedup below makes concurrent detections idempotent.
    engine_->post_host(detector, [this, dead, detector] {
      note_detection(dead, detector);
    });
    return;
  }
  if (dead >= detection_noted_.size() || detection_noted_[dead]) return;
  detection_noted_[dead] = true;
  if (first_detection_ticks_ < 0) first_detection_ticks_ = sim_.now().ticks();
  if (hosts_super_root_) super_root_->on_processor_dead(dead);
  policy_->on_global_failure(*this, dead);
}

void Runtime::on_kill(net::ProcId dead) {
  // A kill starts a new death. A node noted dead while alive was only cut
  // off by a partition that has not healed yet; that false detection must
  // not stand in for this one, or the super-root and the global policy
  // never hear of the crash (a root hosted here would never be re-injected).
  if (dead < detection_noted_.size()) detection_noted_[dead] = false;
  procs_.at(dead)->nuke();
  recorder_.record(sim_.now(), obs::EventKind::kCrash, {.proc = dead},
                   [] { return std::string("processor failed (fail-silent)"); });
}

void Runtime::on_revive(net::ProcId back) {
  const bool undetected =
      back < detection_noted_.size() && !detection_noted_[back];
  // Re-arm once-per-death bookkeeping: if the node dies again after this
  // rejoin, detection and the global policy hooks must fire again.
  if (back < detection_noted_.size()) detection_noted_[back] = false;
  if (engine_ != nullptr) {
    // revive() sends rejoin notices and re-arms timers — it must run on the
    // node's own shard. The network-level revive already happened (the
    // injector flips liveness before this callback), so peers' sends toward
    // `back` deliver from the next window on either path.
    engine_->post_shard(back, [this, back] { procs_.at(back)->revive(); });
  } else {
    procs_.at(back)->revive();
  }
  recorder_.record(sim_.now(), obs::EventKind::kRevive, {.proc = back}, [&] {
    return std::string(warm_rejoin_ ? "processor repaired (warm)"
                                    : "processor repaired (blank)");
  });
  if (undetected) {
    // The repair completed before anyone observed the death (stale bounce
    // notices are suppressed once the node is alive again), but the
    // volatile state is gone all the same — fire the global once-per-death
    // hooks the detection path would have fired.
    if (hosts_super_root_) super_root_->on_processor_dead(back);
    policy_->on_global_failure(*this, back);
  }
  policy_->on_rejoin(*this, back);
}

void Runtime::on_partition_heal(const std::vector<net::ProcId>& side) {
  if (done_) return;
  std::vector<bool> in_side(procs_.size(), false);
  for (net::ProcId p : side) {
    if (p < procs_.size()) in_side[p] = true;
  }
  // The death notices the cut held back can only be about nodes that are
  // still dead; empty when the partition was the only fault.
  std::vector<net::ProcId> dead;
  for (net::ProcId d = 0; d < procs_.size(); ++d) {
    if (!network_.alive(d)) dead.push_back(d);
  }
  for (net::ProcId q = 0; q < procs_.size(); ++q) {
    if (!network_.alive(q)) continue;
    bool suspected = false;
    for (net::ProcId p = 0; p < procs_.size(); ++p) {
      // Only cross-cut suspicion is the cut's doing; same-side verdicts
      // (and verdicts about genuinely dead nodes) stand.
      if (p == q || in_side[p] == in_side[q] || procs_[p]->crashed()) continue;
      if (!procs_[p]->knows_dead(q)) continue;
      suspected = true;
      if (engine_ != nullptr) {
        // learn_alive sends a state request and the catch-up notices from
        // p — p's shard runs it, as one op.
        engine_->post_shard(p, [this, p, q, dead] {
          if (!procs_[p]->crashed()) {
            procs_[p]->learn_alive_across_heal(q, dead);
          }
        });
      } else {
        procs_[p]->learn_alive_across_heal(q, dead);
      }
    }
    if (suspected && q < detection_noted_.size()) {
      // The false detection consumed the once-per-death bookkeeping; re-arm
      // it so a real future death of q is detected and handled again.
      detection_noted_[q] = false;
    }
  }
}

bool Runtime::defer_reissue(Processor& proc, net::ProcId dead) {
  if (!warm_rejoin_) return false;
  // Observers with no stake in the dead node (every live processor hears
  // every death broadcast) take the immediate path: the cold action is a
  // no-op for them, and a 128-node machine must not schedule a grace timer
  // per observer per death.
  if (!proc.has_stake_in(dead)) return false;
  ++proc.counters().reissues_deferred;
  // Context-aware clock/recorder/timer: on the engine path this runs on the
  // holder's shard thread, and the grace timer belongs on that same shard.
  recorder().record(sim().now(), obs::EventKind::kDefer,
                    {.proc = proc.id(), .peer = dead}, [&] {
                      return "reissue against P" + std::to_string(dead) +
                             " (warm rejoin)";
                    });
  const net::ProcId holder = proc.id();
  sim().after(sim::SimTime(config_.store.warm_grace), [this, holder, dead] {
    if (done_) return;
    if (network_.alive(dead)) return;  // rejoined: state transfer covered it
    Processor& p = *procs_.at(holder);
    if (p.crashed()) return;  // the holder died meanwhile; its own recovery
                              // (or its peers') regrows the branch
    recorder().record(sim().now(), obs::EventKind::kGraceExpired,
                      {.proc = holder, .peer = dead}, [&] {
                        return "cold reissue against P" + std::to_string(dead);
                      });
    policy_->reissue_against(p, dead);
  });
  return true;
}

std::uint32_t Runtime::replication_for(std::size_t depth) const noexcept {
  const auto& repl = config_.replication;
  if (!repl.enabled()) return 1;
  return depth < repl.max_depth ? repl.factor : 1;
}

std::uint32_t Runtime::quorum_for(std::size_t depth) const noexcept {
  const auto& repl = config_.replication;
  if (!repl.enabled() || depth >= repl.max_depth) return 1;
  return repl.quorum();
}

void Runtime::schedule_scheduler_tick() {
  if (config_.scheduler.kind != core::SchedulerKind::kGradient) return;
  const std::int64_t period = config_.scheduler.gradient_refresh;
  if (period <= 0) return;
  sim_.after(sim::SimTime(period), [this] {
    if (done_) return;
    scheduler_messages_ += scheduler_->on_tick(sim_.now());
    schedule_scheduler_tick();
  });
}

void Runtime::schedule_gc_tick() {
  if (config_.reclaim.gc_interval <= 0) return;
  // The leak check reads global simulator state; a multi-process group has
  // no omniscient observer (that is rather the point).
  if (network_.distributed()) return;
  sim_.after(sim::SimTime(config_.reclaim.gc_interval), [this] {
    if (done_) return;
    gc_oracle_check(collect_gc_victims());
    schedule_gc_tick();
  });
}

std::vector<Runtime::GcVictim> Runtime::collect_gc_victims() {
  // Replication deliberately stacks copies of whole subtrees: replicas of a
  // parent each spawn their own children, and those children share (stamp,
  // replica) keys across lanes even though every lane is wanted. The
  // (stamp, replica) grouping below cannot tell such by-design lanes from
  // protocol leaks, and replica lanes are reclaimed by the quorum/cancel
  // machinery anyway — so the leak check stands down entirely when
  // replication is on.
  if (config_.replication.enabled()) return {};
  // Recovery can race the machine into hosting the same (stamp, replica)
  // twice: a reissue fired while the original survived (undetected rejoin,
  // pre-link grace expiry, warm re-host vs. survivor fallback). Results of
  // the extra copies are ignored by the §4.1 duplicate rules, so the only
  // damage is wasted compute.
  //
  // Which copy survives matters: only the copy the live parent's call slot
  // currently points at can still deliver its result (the others address a
  // stale parent ref or lost their relay chain). So the pass resolves each
  // duplicate's parent by stamp and keeps the copy on the processor the
  // parent last (re)spawned toward; with no live, unresolved parent slot —
  // or with the pointed-at copy still in flight — it conservatively keeps
  // everything. Children of the non-kept copies become duplicates of the
  // survivor's children and fall to the *next* pass: selection converges
  // subtree by subtree.
  //
  // This pass reads global state directly — the simulator's omniscient
  // view — so it only ever feeds the read-only leak check; reclaiming is
  // the cancel protocol's job. Parent resolution goes through
  // `tasks_by_stamp`, built in the same single iteration over live tasks,
  // so the whole pass is O(live tasks), independent of machine size.
  struct Copy {
    net::ProcId proc;
    TaskUid uid;
    TaskRef parent;
  };
  struct Host {
    net::ProcId proc;
    Task* task;
  };
  std::map<std::pair<LevelStamp, std::uint32_t>, std::vector<Copy>> hosts;
  std::unordered_map<LevelStamp, std::vector<Host>, LevelStamp::Hash>
      tasks_by_stamp;  // all live tasks, any replica
  for (net::ProcId p = 0; p < procs_.size(); ++p) {
    if (procs_[p]->crashed()) continue;
    procs_[p]->for_each_task([&](Task& task) {
      const LevelStamp& stamp = task.stamp();
      tasks_by_stamp[stamp].push_back(Host{p, &task});
      // Root reincarnations are the super-root's business; replicated
      // depths are redundant by design (their quorum needs every copy).
      if (stamp.is_root() || quorum_for(stamp.depth()) > 1) return;
      hosts[std::make_pair(stamp, task.packet().replica)].push_back(
          Copy{p, task.uid(), task.packet().parent()});
    });
  }
  // Deterministic candidate order for parent resolution: ascending
  // processor, then ascending uid (for_each_task iterates an unordered
  // map, so the collected order is not reproducible by itself).
  for (auto& [stamp, candidates] : tasks_by_stamp) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Host& a, const Host& b) {
                return a.proc != b.proc ? a.proc < b.proc
                                        : a.task->uid() < b.task->uid();
              });
  }
  std::vector<GcVictim> victims;
  for (auto& [key, copies] : hosts) {
    if (copies.size() < 2) continue;
    const LevelStamp& stamp = key.first;
    const lang::ExprId site = stamp.last();
    const LevelStamp parent_stamp = stamp.parent();
    const auto parent_hosts = tasks_by_stamp.find(parent_stamp);
    // A duplicated *parent* means two live lineages whose child pointers
    // disagree; reclaiming a child now could sever the lineage that wins.
    // Dedup strictly top-down: this level waits until the parent level is
    // unique (a later pass — selection converges level by level).
    if (parent_hosts != tasks_by_stamp.end() &&
        parent_hosts->second.size() > 1) {
      // Replicas legitimately share a stamp on distinct lanes; only treat
      // same-replica multiplicity at the parent level as duplication.
      bool duplicated = false;
      for (std::size_t i = 0;
           !duplicated && i + 1 < parent_hosts->second.size(); ++i) {
        for (std::size_t j = i + 1; j < parent_hosts->second.size(); ++j) {
          if (parent_hosts->second[i].task->packet().replica ==
              parent_hosts->second[j].task->packet().replica) {
            duplicated = true;
            break;
          }
        }
      }
      if (duplicated) continue;
    }
    // Resolve the live parent (lowest processor, then lowest uid — same
    // deterministic choice the old per-processor scan made) and the copy
    // its slot for this call site points at. Strict rule: the pointee must
    // be *acknowledged* — (proc, uid) known exactly — so the pass never
    // guesses between an in-flight respawn and a stale tenant.
    net::ProcId keeper_proc = net::kNoProc;
    TaskUid keeper_uid = kNoTask;
    if (parent_hosts != tasks_by_stamp.end()) {
      for (const Host& host : parent_hosts->second) {
        const CallSlot* slot = host.task->find_slot(site);
        if (slot == nullptr || !slot->spawned || slot->resolved() ||
            slot->child_procs.empty() ||
            slot->child_procs[0] == net::kNoProc ||
            slot->child_uids[0] == kNoTask) {
          continue;
        }
        keeper_proc = slot->child_procs[0];
        keeper_uid = slot->child_uids[0];
        break;
      }
    }
    if (keeper_proc == net::kNoProc) continue;  // no acked pointer: keep all
    // The pointed-at copy must be among the live hosted ones — if the ack
    // is stale (pointee crashed away), reclaim nothing this round.
    const Copy* keep = nullptr;
    for (const Copy& copy : copies) {
      if (copy.proc == keeper_proc && copy.uid == keeper_uid) {
        keep = &copy;
        break;
      }
    }
    if (keep == nullptr) continue;
    for (const Copy& copy : copies) {
      if (&copy != keep) {
        victims.push_back(GcVictim{copy.proc, copy.uid, copy.parent, stamp});
      }
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const GcVictim& a, const GcVictim& b) {
              return a.key() < b.key();
            });
  return victims;
}

void Runtime::gc_oracle_check(const std::vector<GcVictim>& victims) {
  // Read-only validation: the cancel protocol's propagation latency is
  // bounded by one network traversal per tree level, far below any
  // sensible oracle cadence — so a duplicate sighted at two consecutive
  // ticks leaked past the protocol. The enforced invariant is exactly the
  // protocol's reach: no duplicate whose own parent *instance* is live may
  // persist (that parent supersedes, resolves, or forwards the cancel).
  // True orphans — the exact parent task is gone — are excluded under a
  // salvaging policy: they are §4.1 salvage material ("returns from orphan
  // tasks are theoretically harmless"), reachable by no message until
  // their results flow, and aborting them from here would be an omniscient
  // shortcut past the rule that every corrective step is a message.
  std::vector<std::pair<net::ProcId, TaskUid>> sightings;
  const bool salvaging = policy_->salvages_orphans();
  for (const GcVictim& victim : victims) {
    // An active cut between the victim and its parent stalls every cancel
    // in flight; the duplicate is unreclaimable until links permit, so
    // persisting across ticks is not (yet) a protocol leak.
    if (victim.parent.proc != net::kNoProc &&
        victim.parent.proc < procs_.size() &&
        !network_.reachable(victim.parent.proc, victim.proc)) {
      continue;
    }
    // A lossy link can drop the cancel itself; the sender retries after a
    // backoff of two failure timeouts — several oracle cadences. While a
    // cancel for this lineage waits out that backoff, the reclaim is
    // delayed in the protocol's own pipeline, not leaked.
    if (cancel_backoff_pending(victim.stamp)) continue;
    if (salvaging) {
      const TaskRef parent = victim.parent;
      const bool parent_live =
          parent.proc != net::kNoProc && parent.proc < procs_.size() &&
          !procs_[parent.proc]->crashed() &&
          procs_[parent.proc]->find_task(parent.uid) != nullptr;
      if (!parent_live) continue;
    }
    sightings.push_back(victim.key());
  }
  for (const auto& sighting : sightings) {
    if (std::binary_search(oracle_prev_sightings_.begin(),
                           oracle_prev_sightings_.end(), sighting)) {
      ++gc_oracle_orphans_;
      recorder_.record(sim_.now(), obs::EventKind::kOracleLeak,
                       {.proc = sighting.first, .uid = sighting.second}, [&] {
                         return "uid=" + std::to_string(sighting.second) +
                                " outlived the cancel protocol";
                       });
    }
  }
  oracle_prev_sightings_ = std::move(sightings);
}

bool Runtime::cancel_backoff_pending(const LevelStamp& stamp) const {
  // A backoff's +1 and its matching -1 always come from the same sender, so
  // the books are per-processor (shard-local on the engine path). The OR
  // over processors reproduces the retired global map exactly. Read at
  // coordinator barriers only (gc oracle), where workers are parked.
  for (const auto& proc : procs_) {
    if (proc->cancel_backoff_pending(stamp)) return true;
  }
  return false;
}

void Runtime::freeze_all() {
  for (auto& proc : procs_) {
    if (!proc->crashed()) proc->freeze();
  }
}

void Runtime::unfreeze_all() {
  for (auto& proc : procs_) {
    if (!proc->crashed()) proc->unfreeze();
  }
}

std::uint64_t Runtime::total_state_units() const {
  std::uint64_t units = 0;
  for (const auto& proc : procs_) {
    if (!proc->crashed()) units += proc->state_units();
  }
  return units;
}

core::RunResult Runtime::collect(sim::SimTime end_time,
                                 std::uint64_t faults_injected) const {
  core::RunResult result;
  result.completed = done_;
  if (done_) result.answer = super_root_->answer();
  result.makespan_ticks =
      done_ ? completion_time_.ticks() : end_time.ticks();
  result.detection_ticks = first_detection_ticks_;
  result.faults_injected = faults_injected;
  result.processors = config_.processors;
  result.processors_alive_at_end = network_.alive_count();
  result.sim_events = sim_.events_executed() +
                      (engine_ != nullptr ? engine_->shard_events() : 0);
  result.net = network_.stats();
  result.net.sent[static_cast<std::size_t>(net::MsgKind::kLoadUpdate)] +=
      scheduler_messages_;
  result.counters.orphans_stranded += stranded_from_host_;
  result.counters.gc_oracle_orphans += gc_oracle_orphans_;
  // A root reincarnation is a recovery respawn too (§4.3.1).
  result.counters.tasks_respawned += super_root_->root_respawns();

  for (const auto& proc : procs_) {
    result.counters.merge(proc->counters());
    result.stranded_tasks += proc->live_task_count();
    const auto& table = proc->table();
    result.counters.checkpoint_records += table.records_made();
    result.counters.checkpoint_subsumed += table.subsumed();
    result.counters.checkpoint_released += table.released();
    result.counters.checkpoint_taken += table.taken();
    result.counters.checkpoint_evicted += table.evicted();
    result.counters.checkpoint_cleared += table.cleared();
    result.counters.checkpoint_resident += table.total_records();
    result.counters.checkpoint_peak_entries += table.peak_records();
    result.counters.checkpoint_peak_units += table.peak_units();
    const auto& durable = proc->durable_store();
    result.counters.store_entries_logged += durable.entries_logged();
    result.counters.store_entries_lost += durable.entries_lost();
    result.counters.store_records_replayed += durable.records_replayed();
  }
  policy_->contribute(result.counters);
  return result;
}

}  // namespace splice::runtime

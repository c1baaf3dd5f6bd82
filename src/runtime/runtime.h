// The distributed applicative runtime: processors + scheduler + recovery
// policy + super-root, wired onto the simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkpoint/super_root.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "lang/interpreter.h"
#include "lang/program.h"
#include "net/network.h"
#include "obs/journal.h"
#include "obs/recorder_context.h"
#include "recovery/policy.h"
#include "runtime/processor.h"
#include "sched/scheduler.h"
#include "sim/context.h"
#include "sim/simulator.h"

namespace splice::runtime {

/// The sharded (PDES) engine's service interface, as the Runtime sees it.
/// Null on the classic single-thread path. The contract mirrors the
/// conservative-window design:
///  * worker -> coordinator traffic goes through post_host: the op is
///    stamped with the posting thread's simulated time and a per-acting-
///    processor sequence number, and the coordinator replays the batch at
///    the next barrier in (when, acting, seq) order — a pure function of
///    each processor's own event history, hence independent of the shard
///    count;
///  * coordinator -> worker traffic goes through post_shard while the
///    workers are parked at a barrier: the op lands in the target shard's
///    heap and executes at the start of the next window, ordered by the
///    coordinator's posting sequence.
class EngineHooks {
 public:
  virtual ~EngineHooks() = default;
  /// Stage `fn` to run on the coordinator thread at the next barrier, as a
  /// coordinator event at the posting thread's current simulated time.
  virtual void post_host(net::ProcId acting, std::function<void()> fn) = 0;
  /// Coordinator-only: stage `fn` to run on `target`'s shard thread at the
  /// start of the next window.
  virtual void post_shard(net::ProcId target, std::function<void()> fn) = 0;
  /// Run `fn` with `p`'s shard simulator installed as the thread context.
  /// Setup-time only (no worker may be running).
  virtual void with_shard_of(net::ProcId p,
                             const std::function<void()>& fn) = 0;
  /// Barrier-published queue length of `p` — the scheduler's load snapshot.
  /// Workers must not read another shard's live queue.
  [[nodiscard]] virtual std::uint32_t load_of(net::ProcId p) const = 0;
  /// Events executed across all shard simulators (coordinator excluded).
  [[nodiscard]] virtual std::uint64_t shard_events() const = 0;
  /// Pending events + staged ops across all shards (queue-depth gauge).
  [[nodiscard]] virtual std::uint64_t shard_pending() const = 0;
  /// Record one metrics gauge sample; the engine interleaves stored samples
  /// with journal events when it merges the shard rings.
  virtual void note_gauge_sample(sim::SimTime now, std::uint64_t queue_depth,
                                 std::uint64_t in_flight,
                                 std::uint64_t residency) = 0;
};

class Runtime {
 public:
  Runtime(sim::Simulator& sim, net::Network& network,
          const core::SystemConfig& config, const lang::Program& program);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Inject the root application through the super-root; arm heartbeats and
  /// the scheduler tick. Call once before running the simulator.
  void start();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const lang::Value& answer() const {
    return super_root_->answer();
  }
  [[nodiscard]] sim::SimTime completion_time() const noexcept {
    return completion_time_;
  }

  // ---- services for processors & policies ---------------------------------
  /// The calling thread's simulator: the shard simulator inside an engine
  /// window, the owning (classic/coordinator) simulator otherwise. Protocol
  /// code schedules and reads the clock through this accessor, so the same
  /// code runs unchanged on both paths.
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim::ctx(sim_); }
  /// The coordinator's simulator regardless of thread context (engine and
  /// run-loop plumbing; protocol code wants sim()).
  [[nodiscard]] sim::Simulator& coordinator_sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] const core::SystemConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const lang::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] recovery::RecoveryPolicy& policy() noexcept { return *policy_; }
  /// The flight recorder every protocol hook journals into (obs/journal.h).
  /// Hooks call recorder().record(...) unconditionally; when the recorder
  /// is off that is a single branch. Thread-context aware like sim(): on an
  /// engine worker this resolves to the shard's own ring (no global lock on
  /// the record hot path), which the engine merges post-run.
  [[nodiscard]] obs::Recorder& recorder() noexcept {
    return obs::recorder_ctx(recorder_);
  }
  [[nodiscard]] const obs::Recorder& recorder() const noexcept {
    return obs::recorder_ctx(const_cast<obs::Recorder&>(recorder_));
  }
  /// The canonical (merged) recorder, ignoring thread context — the engine
  /// replays shard rings into this one at the end of a run.
  [[nodiscard]] obs::Recorder& base_recorder() noexcept { return recorder_; }
  /// The human-readable trace, materialised on demand as a rendering view
  /// over the typed journal (the write path is recorder(); this is the
  /// read path the figure walkthroughs and test assertions consume).
  [[nodiscard]] core::Trace& trace();
  [[nodiscard]] checkpoint::SuperRoot& super_root() noexcept {
    return *super_root_;
  }
  [[nodiscard]] Processor& processor(net::ProcId p) { return *procs_.at(p); }
  [[nodiscard]] std::uint32_t processor_count() const noexcept {
    return static_cast<std::uint32_t>(procs_.size());
  }

  /// Allocate a task uid for work hosted on `acting`. Classic path: one
  /// global counter. Engine path: per-processor arithmetic streams
  /// (uid = base + k * P + acting), so allocation is thread-free and each
  /// processor's uid sequence depends only on its own accept history —
  /// identical across shard counts.
  [[nodiscard]] TaskUid next_uid(net::ProcId acting) noexcept {
    if (engine_ == nullptr) return uid_counter_++;
    TaskUid& next = uid_stream_next_[acting];
    const TaskUid uid = next;
    next += procs_.size();
    return uid;
  }

  // ---- multi-process group (distributed transports) ------------------------
  /// Does this OS process own the super-root / host channel? True for every
  /// single-process transport; true only on rank 0's process over TCP.
  [[nodiscard]] bool hosts_super_root() const noexcept {
    return hosts_super_root_;
  }
  /// A kShutdown control message arrived (multi-process group teardown).
  /// The driver loop polls this to exit.
  void request_shutdown() noexcept { shutdown_requested_ = true; }
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_;
  }
  /// The next uid `acting` will allocate (nothing consumed). Processors
  /// snapshot this at revive time as their incarnation's uid watermark;
  /// the watermark only ever filters acks for parents allocated from the
  /// host's own stream, so the per-stream value is the right one on the
  /// engine path.
  [[nodiscard]] TaskUid current_uid(net::ProcId acting) const noexcept {
    return engine_ == nullptr ? uid_counter_ : uid_stream_next_[acting];
  }

  // ---- sharded (PDES) engine ----------------------------------------------
  /// Install the engine's service hooks (null = classic path). Re-attaches
  /// the scheduler with per-origin streams and switches uid allocation to
  /// per-processor streams. Call before start().
  void set_engine(EngineHooks* engine);
  [[nodiscard]] EngineHooks* engine() const noexcept { return engine_; }
  /// True on an engine worker thread (inside a shard window).
  [[nodiscard]] bool in_shard_context() const noexcept {
    return engine_ != nullptr && sim::ctx_shard() != sim::kNoShard;
  }

  // ---- warm rejoin (store/ subsystem) --------------------------------------
  /// Set by the simulation facade when the armed fault plan repairs nodes
  /// in warm mode: revives replay the durable log and run survivor-assisted
  /// state transfer, and reissue obligations against a dead node defer.
  void set_warm_rejoin(bool warm) noexcept { warm_rejoin_ = warm; }
  [[nodiscard]] bool warm_rejoin() const noexcept { return warm_rejoin_; }

  /// Warm-mode deferral: instead of reissuing its checkpoints against
  /// `dead` now, `proc` keeps them until the node rejoins (state transfer
  /// re-hosts them) or the grace period expires (cold reissue fallback via
  /// RecoveryPolicy::reissue_against). Returns false when warm rejoin is
  /// off — the caller reissues immediately, as the paper prescribes.
  bool defer_reissue(Processor& proc, net::ProcId dead);

  /// §5.3 replication: copies of a task at stamp depth `depth`.
  [[nodiscard]] std::uint32_t replication_for(std::size_t depth) const noexcept;
  /// Votes a slot needs before resolving a child at `depth`.
  [[nodiscard]] std::uint32_t quorum_for(std::size_t depth) const noexcept;

  /// Host channel: deliver a result addressed to the super-root sentinel.
  /// `acting` is the processor on whose behalf the call is made (the result
  /// holder) — the engine uses it to order the op deterministically.
  void deliver_to_super_root(ResultMsg msg, net::ProcId acting);
  /// Host channel: root spawn acknowledgement.
  void super_root_ack(AckMsg msg, net::ProcId acting);
  /// Host channel: relay a message to a processor (reliable, small delay).
  /// Coordinator-context only on the engine path (super-root relay).
  void host_send_result(ResultMsg msg);

  /// System-wide once-per-dead-processor bookkeeping (detection latency,
  /// super-root notification, global policy hooks). `detector` is the
  /// processor whose timeout fired.
  void note_detection(net::ProcId dead, net::ProcId detector);

  /// A kCancel for `stamp` bounced off a lossy link and is waiting out its
  /// retransmission backoff (+1), or the backoff fired (-1). While any
  /// cancel for a stamp is in this pipeline, the gc oracle must not call
  /// its victim a protocol leak — the reclaim is delayed, not lost.
  /// Storage is per-processor (the +1 and its matching -1 always come from
  /// the same sender), so the engine path needs no coordination; the
  /// pending check ORs across processors, which is exactly the old global
  /// map's semantics.
  [[nodiscard]] bool cancel_backoff_pending(const LevelStamp& stamp) const;

  /// FaultInjector callback: destroy the node's volatile state.
  void on_kill(net::ProcId dead);

  /// FaultInjector callback: a repaired node rejoined blank. Reinitialises
  /// the processor, re-arms failure detection for it, and lets the recovery
  /// policy react.
  void on_revive(net::ProcId back);

  /// FaultInjector on_heal callback: a partition around `side` healed.
  /// While the cut stood, every cross-cut send bounced and both halves
  /// declared the other dead (§1: unreachable is faulty) — a verdict no
  /// rejoin notice will ever clear, because the "dead" nodes never died.
  /// Reconcile the mutual suspicion: every survivor that believes a live
  /// node across the healed cut is dead relearns it alive, exactly as a
  /// rejoin notice would have taught it, and sends it the notices about
  /// really dead nodes that its broadcasts skipped while the cut stood.
  void on_partition_heal(const std::vector<net::ProcId>& side);

  // ---- fault triggers ------------------------------------------------------
  void set_trigger_sink(std::function<void(const std::string&)> sink) {
    trigger_sink_ = std::move(sink);
  }
  [[nodiscard]] bool has_triggers() const noexcept {
    return static_cast<bool>(trigger_sink_);
  }
  void fire_trigger(const std::string& name) {
    if (trigger_sink_) trigger_sink_(name);
  }

  // ---- periodic-global coordinator helpers ---------------------------------
  void freeze_all();
  void unfreeze_all();
  [[nodiscard]] std::uint64_t total_state_units() const;

  /// Aggregate the run's metrics. `end_time` is the simulator time when the
  /// run loop stopped.
  [[nodiscard]] core::RunResult collect(sim::SimTime end_time,
                                        std::uint64_t faults_injected) const;

  [[nodiscard]] std::int64_t first_detection_ticks() const noexcept {
    return first_detection_ticks_;
  }

  /// One identified duplicate copy (a leak-check sighting).
  struct GcVictim {
    net::ProcId proc = net::kNoProc;
    TaskUid uid = kNoTask;
    /// The victim's own parent ref (ancestors[0] of its packet).
    TaskRef parent;
    /// The duplicated stamp — lets the oracle match pending cancel
    /// retransmissions (which address lineages by stamp) to sightings.
    LevelStamp stamp;

    [[nodiscard]] auto key() const noexcept {
      return std::pair<net::ProcId, TaskUid>{proc, uid};
    }
  };

 private:
  sim::Simulator& sim_;
  net::Network& network_;
  core::SystemConfig config_;
  const lang::Program& program_;

  std::vector<std::unique_ptr<Processor>> procs_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<recovery::RecoveryPolicy> policy_;
  std::unique_ptr<checkpoint::SuperRoot> super_root_;
  obs::Recorder recorder_;
  core::Trace trace_;  // lazily rebuilt view over recorder_'s journal
  std::uint64_t trace_materialized_ = UINT64_MAX;

  EngineHooks* engine_ = nullptr;
  /// Engine path: per-processor uid stream cursors (see next_uid). Written
  /// only by the owning processor's shard thread.
  std::vector<TaskUid> uid_stream_next_;

  TaskUid uid_counter_ = checkpoint::SuperRoot::kSuperRootUid + 1;
  bool done_ = false;
  bool hosts_super_root_ = true;
  bool shutdown_requested_ = false;
  bool warm_rejoin_ = false;
  sim::SimTime completion_time_;
  std::int64_t first_detection_ticks_ = -1;
  std::vector<bool> detection_noted_;
  std::uint64_t scheduler_messages_ = 0;
  std::uint64_t host_messages_ = 0;
  std::uint64_t stranded_from_host_ = 0;
  std::function<void(const std::string&)> trigger_sink_;

  /// Build the scheduler environment (classic or engine flavour) and attach.
  void attach_scheduler();
  void schedule_scheduler_tick();
  /// Flight-recorder metrics sampling (config.obs.sample_interval): close
  /// one goodput/gauge window per interval. Read-only — it perturbs no
  /// protocol state, so seeded runs journal identically with it on or off.
  void schedule_obs_sample();
  /// Live checkpoint entries across all healthy processors (gauge feed).
  [[nodiscard]] std::uint64_t checkpoint_resident_now() const;
  /// Leak check (config.reclaim.gc_interval): periodically identify — but
  /// never reclaim — duplicate live tasks left behind by racing recovery
  /// actions; reclaiming them is the cancel protocol's job.
  void schedule_gc_tick();
  /// The leak check's victim-selection pass. Single pass over all live
  /// tasks; parent resolution goes through a stamp-hash map built
  /// alongside, so the cost is O(live tasks), independent of machine size.
  [[nodiscard]] std::vector<GcVictim> collect_gc_victims();
  /// Leak-check tick: a victim sighted at two consecutive ticks outlived the
  /// cancel protocol's bounded propagation — count it as a leak.
  void gc_oracle_check(const std::vector<GcVictim>& victims);
  [[nodiscard]] net::ProcId spawn_root_packet(TaskPacket packet);
  /// Oracle memory: victims sighted at the previous tick.
  std::vector<std::pair<net::ProcId, TaskUid>> oracle_prev_sightings_;
  std::uint64_t gc_oracle_orphans_ = 0;
};

}  // namespace splice::runtime

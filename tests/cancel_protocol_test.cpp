// The distributed task-cancellation protocol (kCancel).
//
// The paper's recovery scheme never assumes global knowledge: every
// corrective action travels as a message. These suites lock in the discard
// case — duplicate-lineage reclaim by cancel propagation — checked by the
// read-only leak check (reclaim.gc_interval):
//
//   * a 90-run chaos matrix (three duplicate-generating scenario families
//     x victims x seeds) with the leak check armed: every run must
//     complete correctly with zero oracle leaks, and the matrix
//     as a whole must actually exercise the protocol (cancels sent,
//     duplicates reclaimed);
//   * a property suite for cancels racing kStateChunk state transfer: a
//     released checkpoint must never resurrect as a re-hosted task, and
//     re-crashes mid-transfer must neither strand nor duplicate work;
//   * determinism A/B (replay identity of the full cancel traffic), and
//     leak check on vs. off (the check observes, it never acts);
//   * regression guards for the cancel/ack races: stale-lineage acks and
//     double releases of the striped checkpoint entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "core/simulation.h"
#include "lang/programs.h"
#include "store/persistency.h"

namespace splice {
namespace {

using core::RunResult;
using core::SystemConfig;

/// Cancellation on, leak check armed: the protocol must reclaim every
/// duplicate of the chaos matrix on its own.
SystemConfig cancel_config(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.processors = 8;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 500;
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 400;  // leak-check cadence
  cfg.seed = seed;
  return cfg;
}

/// The duplicate generator: warm rejoin with an immediately-expiring
/// pre-link grace, so re-hosted parents respawn surviving orphan subtrees as
/// twins while the originals keep computing on their peers.
SystemConfig prelink_race_config(std::uint64_t seed) {
  SystemConfig cfg = cancel_config(seed);
  cfg.store.model = store::Persistency::kLocal;
  cfg.store.warm_grace = 40000;
  cfg.store.prelink_grace = 1;
  return cfg;
}

struct ChaosTotals {
  std::uint64_t runs = 0;
  std::uint64_t cancels_sent = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t oracle_orphans = 0;
};

void run_chaos(const SystemConfig& cfg, const lang::Program& program,
               const net::FaultPlan& plan, ChaosTotals& totals,
               const std::string& label) {
  const RunResult r = core::run_once(cfg, program, plan);
  EXPECT_TRUE(r.completed) << label << ": " << r.summary();
  EXPECT_TRUE(r.answer_correct) << label << ": " << r.summary();
  EXPECT_EQ(r.counters.gc_oracle_orphans, 0U)
      << label << ": a duplicate with a live parent outlived the protocol";
  ++totals.runs;
  totals.cancels_sent += r.counters.cancels_sent;
  totals.tasks_cancelled += r.counters.tasks_cancelled;
  totals.oracle_orphans += r.counters.gc_oracle_orphans;
}

// 90 runs: 15 seeds x 6 fault injections across 3 scenario families,
// leak check on.
TEST(CancelProtocol, ChaosMatrixReclaimsEveryDuplicate) {
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  ChaosTotals totals;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    // Family A: the pre-link race (warm rejoin, grace expires instantly).
    {
      SystemConfig cfg = prelink_race_config(seed);
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      for (const net::ProcId victim : {1U, 3U, 5U}) {
        net::FaultPlan plan =
            net::FaultPlan::single(victim, sim::SimTime(makespan / 2));
        plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
        run_chaos(cfg, program, plan, totals,
                  "prelink seed=" + std::to_string(seed) + " victim=" +
                      std::to_string(victim));
      }
    }
    // Family B: regional outage + cascade + cold rejoin under splice (twin
    // recompute vs. surviving orphan races).
    {
      SystemConfig cfg = cancel_config(seed);
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      for (const char* spec :
           {"rect:0,0,2x1@T2;rejoin:T10", "cascade:5@T2,p=0.8,hops=1;rejoin:T10"}) {
        std::string s(spec);
        const auto sub = [&](const std::string& from, std::int64_t value) {
          for (std::size_t at = s.find(from); at != std::string::npos;
               at = s.find(from)) {
            s.replace(at, from.size(), std::to_string(value));
          }
        };
        sub("T10", makespan / 10);
        sub("T2", makespan / 2);
        net::FaultPlan plan = core::parse_fault_plan(s);
        plan.with_seed(seed * 31 + 7);
        run_chaos(cfg, program, plan, totals,
                  std::string("regional seed=") + std::to_string(seed) +
                      " spec=" + s);
      }
    }
    // Family C: rollback with a mid-run crash — doomed orphan subtrees must
    // cascade-cancel instead of computing to run end (the oracle runs with
    // no salvage exclusion under a non-salvaging policy).
    {
      SystemConfig cfg = cancel_config(seed);
      cfg.recovery.kind = core::RecoveryKind::kRollback;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      const net::ProcId victim = static_cast<net::ProcId>((seed * 13) % 8);
      run_chaos(cfg, program,
                net::FaultPlan::single(victim, sim::SimTime(makespan / 2)),
                totals, "rollback seed=" + std::to_string(seed));
    }
  }
  // 15 seeds x (3 prelink victims + 2 regional specs + 1 rollback) = 90.
  EXPECT_EQ(totals.runs, 90U);
  EXPECT_EQ(totals.oracle_orphans, 0U);
  // The matrix must exercise the protocol, not vacuously pass.
  EXPECT_GT(totals.cancels_sent, 0U) << "no scenario emitted a cancel";
  EXPECT_GT(totals.tasks_cancelled, 0U) << "no duplicate was reclaimed";
}

TEST(CancelProtocol, ReclaimsPrelinkRaceDuplicates) {
  // The flagship duplicate generator: reclaim must come from cancels.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  std::uint64_t reclaimed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemConfig cfg = prelink_race_config(seed);
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
    plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
    const RunResult r = core::run_once(cfg, program, plan);
    EXPECT_TRUE(r.completed && r.answer_correct) << "seed " << seed;
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << "seed " << seed;
    reclaimed += r.counters.tasks_cancelled;
  }
  EXPECT_GT(reclaimed, 0U)
      << "no seed produced a duplicate for the protocol to reclaim";
}

TEST(CancelProtocol, DeterministicReplay) {
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  SystemConfig cfg = prelink_race_config(7);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
  plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
  const RunResult a = core::run_once(cfg, program, plan);
  const RunResult b = core::run_once(cfg, program, plan);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent);
  EXPECT_EQ(a.counters.tasks_cancelled, b.counters.tasks_cancelled);
  EXPECT_EQ(a.counters.cancels_ignored, b.counters.cancels_ignored);
  EXPECT_EQ(a.counters.scans, b.counters.scans);
  EXPECT_EQ(a.net.sent[static_cast<std::size_t>(net::MsgKind::kCancel)],
            b.net.sent[static_cast<std::size_t>(net::MsgKind::kCancel)]);
}

TEST(LeakCheck, IsReadOnly) {
  // The leak check reads every processor's tasks at each tick; it must
  // never act on what it sees. The same seeded plans with the check on and
  // off must agree on everything but the leak count itself.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  int flagged_runs = 0;
  const auto expect_same = [&](SystemConfig cfg, const net::FaultPlan& plan,
                               const std::string& label) {
    const RunResult on = core::run_once(cfg, program, plan);
    if (on.counters.gc_oracle_orphans > 0) ++flagged_runs;
    cfg.reclaim.gc_interval = 0;
    const RunResult off = core::run_once(cfg, program, plan);
    EXPECT_EQ(on.answer, off.answer) << label;
    EXPECT_EQ(on.makespan_ticks, off.makespan_ticks) << label;
    EXPECT_EQ(on.stranded_tasks, off.stranded_tasks) << label;
    EXPECT_EQ(on.net.total_sent(), off.net.total_sent()) << label;
    core::Counters on_counters = on.counters;
    on_counters.gc_oracle_orphans = 0;
    EXPECT_EQ(on_counters, off.counters)
        << label << "\n on: " << on.summary() << "\noff: " << off.summary();
  };
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::string tag = " seed=" + std::to_string(seed);
    {
      SystemConfig cfg = prelink_race_config(seed);
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      net::FaultPlan plan =
          net::FaultPlan::single(3, sim::SimTime(makespan / 2));
      plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
      expect_same(cfg, plan, "prelink" + tag);
    }
    {
      SystemConfig cfg = cancel_config(seed);
      cfg.processors = 16;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      net::FaultPlan plan = net::FaultPlan::partition(
          net::RegionSpec::grid_rect(2, 0, 2, 4), sim::SimTime(makespan / 4),
          sim::SimTime(makespan / 4));
      plan.with_seed(seed);
      expect_same(cfg, plan, "partition" + tag);
    }
    {
      SystemConfig cfg = cancel_config(seed);
      cfg.recovery.kind = core::RecoveryKind::kRollback;
      cfg.reclaim.cancellation = false;
      const std::int64_t makespan =
          core::Simulation::fault_free_makespan(cfg, program);
      const auto victim = static_cast<net::ProcId>((seed * 13) % 8);
      expect_same(cfg,
                  net::FaultPlan::single(victim, sim::SimTime(makespan / 2)),
                  "rollback" + tag);
    }
  }
  // The check must have had leaks to see, or "read-only" is vacuous.
  EXPECT_GT(flagged_runs, 0);
}

TEST(CancelProtocol, ProtocolReclaimDoesNotIncreaseTotalWork) {
  // Reclaiming duplicates by message must not cost more scans than letting
  // them run (and should usually cost fewer).
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  std::uint64_t scans_with = 0;
  std::uint64_t scans_without = 0;
  int reclaimed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemConfig cfg_on = prelink_race_config(seed);
    SystemConfig cfg_off = prelink_race_config(seed);
    cfg_off.reclaim.cancellation = false;
    cfg_off.reclaim.gc_interval = 0;
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg_off, program);
    net::FaultPlan plan = net::FaultPlan::single(3, sim::SimTime(makespan / 2));
    plan.with_rejoin(sim::SimTime(makespan / 10), net::RejoinMode::kWarm);
    const RunResult on = core::run_once(cfg_on, program, plan);
    const RunResult off = core::run_once(cfg_off, program, plan);
    EXPECT_TRUE(on.answer_correct && off.answer_correct) << "seed " << seed;
    if (on.counters.tasks_cancelled > 0) ++reclaimed_runs;
    scans_with += on.counters.scans;
    scans_without += off.counters.scans;
  }
  ASSERT_GT(reclaimed_runs, 0);
  EXPECT_LE(scans_with, scans_without + scans_without / 20);
}

// ---------------------------------------------------------------------------
// Cancels racing kStateChunk transfers (property suite)
// ---------------------------------------------------------------------------

TEST(CancelProtocol, CancelsRacingStateTransferNeverStrandOrDuplicate) {
  // Warm rejoin with one-record chunks and a long pacing interval keeps the
  // transfer window open across many protocol events; a second fault mid
  // stream (and a second rejoin) exercises the incarnation guards. Any
  // released checkpoint that resurrected as a re-hosted task would show up
  // as a persistent duplicate (oracle) or a wrong answer; any stranding as
  // an incomplete run.
  const auto program = lang::programs::tree_sum(6, 2, 400, 30);
  int exercised = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SystemConfig cfg = prelink_race_config(seed);
    cfg.store.chunk_records = 1;   // maximal number of chunk round-trips
    cfg.store.chunk_interval = 120;
    const std::int64_t makespan =
        core::Simulation::fault_free_makespan(cfg, program);
    // Victim A rejoins warm; while its catch-up streams, victim B (one of
    // the streaming survivors) crashes and also rejoins warm.
    net::FaultPlan plan =
        net::FaultPlan::single(3, sim::SimTime(makespan / 3));
    plan.with_rejoin(sim::SimTime(makespan / 12), net::RejoinMode::kWarm);
    net::FaultPlan second = net::FaultPlan::single(
        static_cast<net::ProcId>(1 + (seed % 2) * 4),
        sim::SimTime(makespan / 3 + makespan / 12 + 60));
    second.with_rejoin(sim::SimTime(makespan / 12), net::RejoinMode::kWarm);
    plan.merge(std::move(second));
    const RunResult r = core::run_once(cfg, program, plan);
    EXPECT_TRUE(r.completed) << "seed " << seed << ": " << r.summary();
    EXPECT_TRUE(r.answer_correct) << "seed " << seed;
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << "seed " << seed;
    if (r.counters.state_chunks_sent > 0 && r.counters.cancels_sent > 0) {
      ++exercised;
    }
  }
  EXPECT_GT(exercised, 0)
      << "no seed raced a cancel against a state transfer";
}

// ---------------------------------------------------------------------------
// Cancel/ack race guards (regression, satellite: striped-entry releases)
// ---------------------------------------------------------------------------

TEST(CancelProtocol, ReleaseAnywhereIsIdempotent) {
  // A cancel arriving between a child's result send and the parent's ack
  // must not double-release the striped entry: the second release of the
  // same stamp finds nothing, counts nothing, and the totals stay sane.
  checkpoint::CheckpointTable table(/*self=*/0, /*processors=*/16);
  checkpoint::CheckpointRecord record;
  record.owner = 42;
  record.site = 3;
  record.packet.stamp = runtime::LevelStamp::root().child(3);
  ASSERT_EQ(table.record(/*dest=*/9, record),
            checkpoint::RecordOutcome::kRecorded);
  ASSERT_TRUE(table.contains(9, record.packet.stamp));
  EXPECT_EQ(table.total_records(), 1U);

  EXPECT_TRUE(table.release_anywhere(record.packet.stamp));   // result path
  EXPECT_FALSE(table.release_anywhere(record.packet.stamp));  // cancel path
  EXPECT_FALSE(table.contains(9, record.packet.stamp));
  EXPECT_EQ(table.total_records(), 0U);
  EXPECT_EQ(table.released(), 1U);  // the no-op release is not counted
}

TEST(CancelProtocol, ContainsTracksRecordAndRelease) {
  checkpoint::CheckpointTable table(/*self=*/2, /*processors=*/32);
  const auto stamp = runtime::LevelStamp::root().child(5).child(1);
  EXPECT_FALSE(table.contains(17, stamp));
  checkpoint::CheckpointRecord record;
  record.owner = 7;
  record.site = 1;
  record.packet.stamp = stamp;
  table.record(17, record);
  EXPECT_TRUE(table.contains(17, stamp));
  EXPECT_FALSE(table.contains(18, stamp));  // held against 17, not 18
  table.release(17, stamp);
  EXPECT_FALSE(table.contains(17, stamp));
}

}  // namespace
}  // namespace splice

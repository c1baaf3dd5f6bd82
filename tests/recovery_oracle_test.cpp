// The weak-recovery oracle over a chaos matrix: every combination of
// (partition-and-heal | gray failure | lossy links + Poisson crash churn)
// x (splice | rollback | replicated) x seeds must satisfy every invariant
// the oracle checks — completion, determinacy, no leaked duplicate
// lineages, task conservation, checkpoint conservation, and (for gray
// runs) no false failure detection. Plus negative tests proving the
// oracle actually bites when an invariant is broken.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "recovery/recovery_oracle.h"
#include "store/persistency.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SystemConfig;
using recovery::OracleReport;
using recovery::RecoveryOracle;

enum class Policy { kSplice, kRollback, kReplicated };

const char* name(Policy p) {
  switch (p) {
    case Policy::kSplice:
      return "splice";
    case Policy::kRollback:
      return "rollback";
    case Policy::kReplicated:
      return "replicated";
  }
  return "?";
}

SystemConfig matrix_config(std::uint64_t seed, Policy policy) {
  SystemConfig cfg = testing::base_config(16, seed);
  cfg.heartbeat_interval = 800;
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 400;  // feed the task-leak invariant
  switch (policy) {
    case Policy::kSplice:
      cfg.recovery.kind = RecoveryKind::kSplice;
      break;
    case Policy::kRollback:
      cfg.recovery.kind = RecoveryKind::kRollback;
      break;
    case Policy::kReplicated:
      cfg.recovery.kind = RecoveryKind::kSplice;
      cfg.replication.factor = 2;
      cfg.replication.max_depth = 2;
      cfg.replication.majority = false;  // first result wins
      break;
  }
  return cfg;
}

struct Scenario {
  const char* label;
  net::FaultPlan plan;
  bool expect_no_detection;
};

std::vector<Scenario> scenarios(std::uint64_t seed) {
  std::vector<Scenario> out;

  // Partition-and-heal: the bottom half of the 4x4 mesh is cut off for a
  // window; survivors detect, respawn, then reconcile on the heal.
  out.push_back({"partition",
                 net::FaultPlan::partition(net::RegionSpec::grid_rect(2, 0, 2, 4),
                                           sim::SimTime(2000),
                                           sim::SimTime(5000))
                     .with_seed(seed),
                 /*expect_no_detection=*/false});

  // Gray failure: one node alive but starving payload. Nothing crashes, so
  // detection firing even once is an oracle violation.
  net::GraySpec g;
  g.node = 3;
  g.start = sim::SimTime(500);
  out.push_back({"gray", net::FaultPlan::gray(g).with_seed(seed),
                 /*expect_no_detection=*/true});

  // Churn: background lossy links plus Poisson crash arrivals with cold
  // repair — the full §1 model with a degraded wire underneath it.
  net::LinkQuality q;
  q.drop_p = 0.04;
  q.dup_p = 0.04;
  q.reorder_p = 0.08;
  q.jitter = 15;
  net::RecurringFault arrivals;
  arrivals.candidates = {1, 3, 6, 9, 11, 14};  // spare the root's host
  arrivals.start = sim::SimTime(1000);
  arrivals.stop = sim::SimTime(40000);
  arrivals.mean_interval = 8000;
  arrivals.max_faults = 2;
  net::FaultPlan churn = net::FaultPlan::link(q);
  churn.merge(net::FaultPlan::poisson(arrivals));
  churn.with_rejoin(sim::SimTime(3000)).with_seed(seed);
  out.push_back({"churn", std::move(churn), /*expect_no_detection=*/false});

  return out;
}

TEST(RecoveryOracleMatrix, EveryChaoticRunSatisfiesEveryInvariant) {
  const lang::Program program = lang::programs::fib(12, 40);
  std::size_t runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const Policy policy :
         {Policy::kSplice, Policy::kRollback, Policy::kReplicated}) {
      const SystemConfig cfg = matrix_config(seed, policy);
      for (Scenario& s : scenarios(seed)) {
        const RunResult r = core::run_once(cfg, program, s.plan);
        RecoveryOracle::Expect expect;
        // A crash that actually fired must be detected; "no detection" is
        // only checkable when every node stayed alive.
        expect.no_detection = s.expect_no_detection && r.faults_injected == 0;
        const OracleReport report = RecoveryOracle::check(r, expect);
        EXPECT_TRUE(report.ok())
            << name(policy) << "/" << s.label << " seed=" << seed << ":\n"
            << report.to_string() << r.summary();
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 90U);  // 10 seeds x 3 policies x 3 scenarios
}

// ---------------------------------------------------------------------------
// Negative controls: the oracle must bite when an invariant is broken
// ---------------------------------------------------------------------------

TEST(RecoveryOracleNegative, CleanRunPasses) {
  const RunResult r = core::run_once(testing::base_config(8, 1),
                                     lang::programs::fib(10, 40),
                                     net::FaultPlan::none());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(RecoveryOracle::check(r).ok());
}

bool has_violation(const OracleReport& report, const std::string& invariant) {
  for (const auto& v : report.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

TEST(RecoveryOracleNegative, DeliberateDuplicateLeakIsFlagged) {
  // Cancellation off, read-only leak check on, non-salvaging policy:
  // during the cut both halves reissue each other's subtrees, and after the
  // heal the reissues race the surviving originals with nothing to reclaim
  // the losers. The oracle must call that a task leak.
  const lang::Program program = lang::programs::fib(12, 40);
  bool flagged = false;
  for (std::uint64_t seed = 1; seed <= 6 && !flagged; ++seed) {
    SystemConfig cfg = testing::base_config(16, seed);
    cfg.heartbeat_interval = 800;
    cfg.recovery.kind = RecoveryKind::kRollback;
    cfg.reclaim.cancellation = false;  // nothing reclaims the duplicates
    cfg.reclaim.gc_interval = 400;
    const net::FaultPlan plan =
        net::FaultPlan::partition(net::RegionSpec::grid_rect(2, 0, 2, 4),
                                  sim::SimTime(2000), sim::SimTime(5000))
            .with_seed(seed);
    const RunResult r = core::run_once(cfg, program, plan);
    if (r.counters.gc_oracle_orphans == 0) continue;  // race didn't trigger
    const OracleReport report = RecoveryOracle::check(r);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_violation(report, "task-leak")) << report.to_string();
    flagged = true;
  }
  EXPECT_TRUE(flagged) << "no seed produced a leaked duplicate to flag";
}

TEST(RecoveryOracleNegative, TamperedLedgersTripConservation) {
  RunResult r = core::run_once(testing::base_config(8, 2),
                               lang::programs::fib(10, 40),
                               net::FaultPlan::none());
  ASSERT_TRUE(RecoveryOracle::check(r).ok());

  // A checkpoint record released twice (or never) must unbalance the books.
  RunResult ckpt = r;
  ckpt.counters.checkpoint_released -= 1;
  EXPECT_TRUE(has_violation(RecoveryOracle::check(ckpt),
                            "checkpoint-conservation"));

  // A task that vanished without completing/aborting/dying must too.
  RunResult task = r;
  task.counters.tasks_created += 1;
  EXPECT_TRUE(has_violation(RecoveryOracle::check(task),
                            "task-conservation"));

  // An incomplete run fails the completion invariant unless waived.
  RunResult hung = r;
  hung.completed = false;
  EXPECT_TRUE(has_violation(RecoveryOracle::check(hung), "completion"));
  RecoveryOracle::Expect waived;
  waived.completion = false;
  EXPECT_FALSE(has_violation(RecoveryOracle::check(hung, waived),
                             "completion"));

  // A run where detection fired fails no-detection only when opted in.
  RunResult detected = r;
  detected.detection_ticks = 1234;
  EXPECT_TRUE(RecoveryOracle::check(detected).ok());
  RecoveryOracle::Expect gray;
  gray.no_detection = true;
  EXPECT_TRUE(has_violation(RecoveryOracle::check(detected, gray),
                            "no-detection"));
}

TEST(RecoveryOracleNegative, SnapshotRestoringRunsSkipTaskConservation) {
  // Periodic-global restores re-materialise tasks without re-accepting
  // them; the oracle must not false-positive on that intentional imbalance.
  SystemConfig cfg = testing::base_config(8, 3);
  cfg.recovery.kind = RecoveryKind::kPeriodicGlobal;
  const lang::Program program = lang::programs::fib(11, 40);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);
  const RunResult r = core::run_once(
      cfg, program, net::FaultPlan::single(5, sim::SimTime(makespan / 2)));
  ASSERT_TRUE(r.completed) << r.summary();
  if (r.counters.restores > 0) {
    EXPECT_FALSE(
        has_violation(RecoveryOracle::check(r), "task-conservation"));
  }
}

}  // namespace
}  // namespace splice

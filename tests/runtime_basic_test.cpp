// Fault-free distributed evaluation: every (program x topology x scheduler)
// combination must reproduce the reference interpreter's answer — the
// determinacy property (§2.1) the whole paper builds on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/simulation.h"
#include "lang/interpreter.h"
#include "lang/programs.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RecoveryKind;
using core::RunResult;
using core::SchedulerKind;
using core::SystemConfig;
using splice::testing::base_config;
using splice::testing::fib_value;
using splice::testing::journaled;

TEST(RuntimeBasic, SingleProcessorSingleTask) {
  SystemConfig cfg = testing::base_config(1);
  cfg.topology = net::TopologyKind::kComplete;
  const RunResult r = core::run_once(cfg, lang::programs::fib(1));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.counters.tasks_created, 1U);
  EXPECT_EQ(r.counters.tasks_completed, 1U);
}

TEST(RuntimeBasic, FibOnEightProcessors) {
  const RunResult r = core::run_once(base_config(), lang::programs::fib(12));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.answer_correct);
  EXPECT_EQ(r.answer.as_int(), fib_value(12));
  // Task count equals the reference call-tree size.
  const auto stats = lang::reference_stats(lang::programs::fib(12));
  EXPECT_EQ(r.counters.tasks_created, stats.calls);
  EXPECT_EQ(r.counters.tasks_completed, stats.calls);
  EXPECT_EQ(r.counters.tasks_aborted, 0U);
  EXPECT_EQ(r.counters.tasks_respawned, 0U);
  EXPECT_EQ(r.stranded_tasks, 0U);
}

TEST(RuntimeBasic, MakespanBenefitsFromParallelism) {
  SystemConfig one = base_config(1);
  one.topology = net::TopologyKind::kComplete;
  SystemConfig many = base_config(16);
  many.topology = net::TopologyKind::kComplete;
  const auto program = lang::programs::tree_sum(5, 2, /*leaf_work=*/400);
  const RunResult serial = core::run_once(one, program);
  const RunResult parallel = core::run_once(many, program);
  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(parallel.completed);
  EXPECT_TRUE(serial.answer_correct);
  EXPECT_TRUE(parallel.answer_correct);
  EXPECT_LT(parallel.makespan_ticks, serial.makespan_ticks);
}

TEST(RuntimeBasic, ChecksReleasedMatchRecords) {
  const RunResult r = core::run_once(base_config(), lang::programs::fib(10));
  ASSERT_TRUE(r.completed);
  // Fault-free: every checkpoint that was recorded is eventually released
  // (its child returned), and recorded + subsumed covers every spawn.
  EXPECT_EQ(r.counters.checkpoint_records, r.counters.checkpoint_released);
  EXPECT_GT(r.counters.checkpoint_records, 0U);
  const auto stats = lang::reference_stats(lang::programs::fib(10));
  EXPECT_EQ(r.counters.checkpoint_records + r.counters.checkpoint_subsumed,
            stats.calls - 1);  // every non-root spawn hit the table
}

TEST(RuntimeBasic, DeterministicForSameSeed) {
  const RunResult a = core::run_once(base_config(8, 5), lang::programs::fib(11));
  const RunResult b = core::run_once(base_config(8, 5), lang::programs::fib(11));
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.net.total_sent(), b.net.total_sent());
  EXPECT_EQ(a.counters.scans, b.counters.scans);
}

TEST(RuntimeBasic, DifferentSeedsDifferentSchedules) {
  const RunResult a = core::run_once(base_config(8, 1), lang::programs::fib(11));
  const RunResult b = core::run_once(base_config(8, 2), lang::programs::fib(11));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_TRUE(a.answer_correct && b.answer_correct);
  // Makespans will almost surely differ (different placements).
  EXPECT_NE(a.makespan_ticks, b.makespan_ticks);
}

TEST(RuntimeBasic, NoHeartbeatsWhenDisabled) {
  SystemConfig cfg = base_config();
  cfg.heartbeat_interval = 0;
  const RunResult r = core::run_once(cfg, lang::programs::fib(8));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.net.sent[static_cast<std::size_t>(net::MsgKind::kHeartbeat)],
            0U);
}

TEST(RuntimeBasic, HeartbeatsFlowWhenEnabled) {
  SystemConfig cfg = base_config();
  cfg.heartbeat_interval = 500;
  const RunResult r =
      core::run_once(cfg, lang::programs::tree_sum(4, 2, 2000));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.net.sent[static_cast<std::size_t>(net::MsgKind::kHeartbeat)],
            0U);
}

TEST(RuntimeBasic, JournalRecordsLifecycle) {
  SystemConfig cfg = base_config(4);
  cfg.obs.details = true;
  core::Simulation simulation(cfg, lang::programs::fib(5));
  const RunResult r = simulation.run();
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(journaled(simulation, obs::EventKind::kPlace));
  EXPECT_TRUE(journaled(simulation, obs::EventKind::kSpawn));
  EXPECT_TRUE(journaled(simulation, obs::EventKind::kComplete));
  EXPECT_TRUE(journaled(simulation, obs::EventKind::kCheckpoint));
  EXPECT_TRUE(journaled(simulation, obs::EventKind::kDone,
                        std::to_string(fib_value(5))));
}

TEST(RuntimeBasic, BusyTicksAccountedAndPositive) {
  const RunResult r =
      core::run_once(base_config(), lang::programs::tree_sum(3, 3, 100));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.counters.busy_ticks, 0);
  EXPECT_GT(r.counters.scans, r.counters.tasks_created);  // spawn + resume
}

// ---------------------------------------------------------------------------
// The determinacy matrix: programs x topologies x schedulers.
// ---------------------------------------------------------------------------

struct MatrixCase {
  std::string program_name;
  net::TopologyKind topology;
  SchedulerKind scheduler;
  std::uint32_t processors;
};

class DeterminacyMatrix : public ::testing::TestWithParam<MatrixCase> {};

lang::Program program_by_name(const std::string& name) {
  if (name == "fib") return lang::programs::fib(10, 25);
  if (name == "binomial") return lang::programs::binomial(8, 4, 25);
  if (name == "tree") return lang::programs::tree_sum(3, 3, 60, 15);
  if (name == "mergesort") return lang::programs::mergesort(48);
  if (name == "quicksort") return lang::programs::quicksort(48);
  if (name == "nqueens") return lang::programs::nqueens(5);
  if (name == "figure1") return lang::programs::figure1_tree();
  if (name == "tak") return lang::programs::tak(7, 4, 1);
  if (name == "mapreduce") return lang::programs::map_reduce(200, 12, 3);
  throw std::invalid_argument(name);
}

TEST_P(DeterminacyMatrix, DistributedAnswerEqualsReference) {
  const MatrixCase& c = GetParam();
  SystemConfig cfg = base_config(c.processors);
  cfg.topology = c.topology;
  cfg.scheduler.kind = c.scheduler;
  const lang::Program program = program_by_name(c.program_name);
  const RunResult r = core::run_once(cfg, program);
  ASSERT_TRUE(r.completed) << c.program_name;
  EXPECT_TRUE(r.answer_correct)
      << c.program_name << " on " << net::to_string(c.topology) << "/"
      << core::to_string(c.scheduler) << ": got " << r.answer.to_string();
}

std::string matrix_name(
    const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = c.program_name + "_" +
                     std::string(net::to_string(c.topology)) + "_" +
                     std::string(core::to_string(c.scheduler)) + "_p" +
                     std::to_string(c.processors);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"binomial", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"tree", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"mergesort", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"quicksort", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"nqueens", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"tak", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"mapreduce", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 8},
        MatrixCase{"figure1", net::TopologyKind::kComplete, SchedulerKind::kPinned, 4}),
    matrix_name);

INSTANTIATE_TEST_SUITE_P(
    Topologies, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"fib", net::TopologyKind::kComplete, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kRing, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kStar, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kTorus2D, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kHypercube, SchedulerKind::kRandom, 8},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 1},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 2},
        MatrixCase{"fib", net::TopologyKind::kMesh2D, SchedulerKind::kRandom, 32}),
    matrix_name);

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DeterminacyMatrix,
    ::testing::Values(
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kRoundRobin, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kLocalFirst, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kGradient, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kPinned, 9},
        MatrixCase{"tree", net::TopologyKind::kTorus2D, SchedulerKind::kNeighbor, 9},
        MatrixCase{"fib", net::TopologyKind::kRing, SchedulerKind::kGradient, 6},
        MatrixCase{"fib", net::TopologyKind::kHypercube, SchedulerKind::kNeighbor, 16}),
    matrix_name);

}  // namespace
}  // namespace splice

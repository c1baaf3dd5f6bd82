// Seeded crash-inside-cut sweep on the benchmark's partition_heal machine.
//
// Hand-listed partition scenarios cover the crash timings someone thought
// of; this sweep draws them. Every job cuts the 2-hop neighbourhood of
// processor 127 off a 128-node torus for a third of the clean makespan,
// starting at a time drawn from [0.15, 0.35] x clean. The seed also draws
// the job's victim (any processor, the root's host included), a kill time
// inside the cut, and whether the victim rejoins (cold) after clean/16.
// Each job must return the reference answer and satisfy RecoveryOracle.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "recovery/recovery_oracle.h"
#include "test_util.h"
#include "util/rng.h"

namespace splice {
namespace {

constexpr std::uint64_t kSeed = 12;
constexpr std::uint64_t kJobs = 64;

TEST(PartitionSweep, CrashInsideTheCutRecovers) {
  core::SystemConfig cfg;
  cfg.processors = 128;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kGradient;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  const lang::Program program = lang::programs::tree_sum(10, 2, 60, 10);
  const core::RunResult clean =
      core::run_once(cfg, program, net::FaultPlan::none());
  ASSERT_TRUE(clean.answer_correct) << clean.summary();
  const std::int64_t makespan = clean.makespan_ticks;
  const std::int64_t cut_for = makespan / 3;

  std::uint64_t rejoins = 0;
  for (std::uint64_t job = 0; job < kJobs; ++job) {
    util::Xoshiro256 rng(kSeed * 0x9e3779b97f4a7c15ULL + job);
    const std::int64_t cut_at =
        makespan * static_cast<std::int64_t>(15 + rng.next_below(21)) / 100;
    const std::uint64_t victim = rng.next_below(cfg.processors);
    const std::int64_t kill_at =
        cut_at + 1 +
        static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(cut_for - 1)));
    const bool rejoin = rng.next_below(2) == 1;
    std::string spec = "partition:hood(127,r2)@" + std::to_string(cut_at) +
                       ",heal=" + std::to_string(cut_for) + ";kill:" +
                       std::to_string(victim) + "@" + std::to_string(kill_at);
    if (rejoin) {
      spec += ";rejoin:" + std::to_string(makespan / 16);
      ++rejoins;
    }
    SCOPED_TRACE("job " + std::to_string(job) + ": " + spec);
    const core::RunResult r =
        core::run_once(cfg, program, core::parse_fault_plan(spec));
    if (!r.completed) {
      ADD_FAILURE() << "did not complete: " << r.summary();
      continue;
    }
    EXPECT_TRUE(r.answer_correct) << r.summary();
    const recovery::OracleReport report = recovery::RecoveryOracle::check(r);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
  // The draws must cover both endings of the crash.
  EXPECT_GT(rejoins, 0U);
  EXPECT_LT(rejoins, kJobs);
}

}  // namespace
}  // namespace splice

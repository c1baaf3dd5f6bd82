// E1 — Figure 1: call tree mapped onto processors A-D and the resulting
// distribution of functional checkpoints.
//
// Regenerates, from a live run of the pinned Figure-1 tree:
//   * the task -> processor mapping (matches the figure);
//   * the per-processor checkpoint tables toward processor B, showing the
//     paper's claim: A holds B1; C holds B2 and B3 (with B5 subsumed under
//     B2, §3's "C does nothing" case); D holds B7;
//   * the reissue sets after B fails.
#include <cstdio>
#include <map>

#include "bench/harness.h"

using namespace splice;

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);

  core::SystemConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kComplete;
  cfg.scheduler.kind = core::SchedulerKind::kPinned;
  cfg.recovery.kind = core::RecoveryKind::kRollback;
  cfg.heartbeat_interval = 800;
  cfg.obs.details = true;

  // Long-running tasks so every spawn happens while nothing completes: the
  // static snapshot the paper's figure depicts.
  const lang::Program program = lang::programs::figure1_tree(50000);
  const std::int64_t makespan =
      core::Simulation::fault_free_makespan(cfg, program);

  // Fault-free twin: gives the placement and checkpoint-distribution
  // tables of Figure 1 (the faulted run below re-places B tasks after B
  // dies, which is recovery, not the figure).
  core::Simulation clean_sim(cfg, program);
  const core::RunResult clean = clean_sim.run();

  core::Simulation faulted_sim(cfg, program);
  faulted_sim.set_fault_plan(net::FaultPlan::single(/*B=*/1, sim::SimTime(makespan / 2)));
  const core::RunResult r = faulted_sim.run();

  auto pname = [](net::ProcId p) {
    return std::string(1, static_cast<char>('A' + p));
  };
  // Visit the journaled events of one kind, oldest first, with their prose.
  auto each = [](const core::Simulation& sim, obs::EventKind kind,
                 const auto& fn) {
    sim.recorder().for_each(
        [&](const obs::Event& e, const std::string& detail) {
          if (e.kind == kind) fn(e, detail);
        });
  };

  // Table 1: task placement.
  util::Table placement({"task", "processor (paper)", "processor (run)"});
  placement.set_title("Fig. 1 — call tree mapping");
  std::map<std::string, net::ProcId> placed;
  each(clean_sim, obs::EventKind::kPlace,
       [&](const obs::Event& e, const std::string& detail) {
         const std::string task = detail.substr(0, detail.find(' '));
         if (!placed.contains(task)) placed[task] = e.proc;
       });
  for (const auto& node : lang::programs::figure1_nodes()) {
    placement.add_row({node.name, std::string(1, node.name[0]),
                       placed.contains(node.name) ? pname(placed[node.name])
                                                  : "?"});
  }
  bench::emit(placement, opt);

  // Table 2: checkpoint distribution toward processor B.
  util::Table dist({"owner proc", "checkpoint", "outcome"});
  dist.set_title("Fig. 1 — functional checkpoints held against processor B");
  each(clean_sim, obs::EventKind::kCheckpoint,
       [&](const obs::Event& e, const std::string& detail) {
         if (detail.find("entry P1") == std::string::npos) return;
         const bool subsumed = detail.find("subsumed") != std::string::npos;
         dist.add_row({pname(e.proc), detail.substr(0, detail.find(" entry")),
                       subsumed ? "subsumed (descendant of a topmost)"
                                : "topmost"});
       });
  bench::emit(dist, opt);

  // Table 3: recovery obligations executed when B died (faulted twin run).
  util::Table reissue({"proc", "reissued task", "kind"});
  reissue.set_title(
      "Fig. 1 — reissue set after B fails mid-run (rollback; B tasks that "
      "already returned need no reissue)");
  each(faulted_sim, obs::EventKind::kReissue,
       [&](const obs::Event& e, const std::string& detail) {
         reissue.add_row({pname(e.proc), detail, "rollback"});
       });
  each(faulted_sim, obs::EventKind::kTwin,
       [&](const obs::Event& e, const std::string& detail) {
         reissue.add_row({pname(e.proc), detail, "step-parent"});
       });
  bench::emit(reissue, opt);

  std::printf("fault-free: %s\nfaulted   : %s\n", clean.summary().c_str(),
              r.summary().c_str());
  return r.completed && r.answer_correct && clean.completed ? 0 : 1;
}

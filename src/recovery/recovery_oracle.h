// The weak-recovery oracle: did a chaotic run actually recover?
//
// The paper's §4.1 argument is qualitative — duplicate results are
// harmless, orphan returns are salvage material, checkpoints are released
// when children return. This oracle turns the argument into checkable
// invariants over a finished RunResult, so every chaos-matrix run (crash ×
// partition × gray × lossy links) is validated mechanically instead of by
// eyeballing counters:
//
//   completion     the program finished before the deadline — weak
//                  recovery's whole promise ("the system proceeds as if no
//                  failure occurred");
//   determinacy    the surviving answer equals the reference interpreter's
//                  (§2.1: an applicative program has one value);
//   task-leak      no duplicate lineage outlived the cancel protocol
//                  (Counters::gc_oracle_orphans, fed by the read-only
//                  leak check when ReclaimConfig::gc_interval > 0);
//   task-conservation
//                  every accepted task is accounted for:
//                    created == completed + aborted + lost_to_crash
//                               + stranded
//                  (a task either reduced, was cancelled/aborted, died with
//                  its host, or is a counted leftover — nothing vanishes
//                  and nothing is double-erased);
//   checkpoint-conservation
//                  every checkpoint record is released exactly once:
//                    records == released + taken + evicted + cleared
//                               + resident
//                  (returned result, crash reissue obligation, antichain
//                  eviction, node wipe, or still held — one exit each);
//   no-detection   (opt-in, gray-failure runs) failure detection must NOT
//                  have fired: a gray node is alive, its heartbeats and
//                  bounce notices flow, so §1's timeout never condemns it.
//
// Conservation is skipped for snapshot-restoring runs (periodic-global):
// restore re-materialises tasks without re-accepting them, so the ledger
// intentionally does not balance there.
#pragma once

#include <string>
#include <vector>

#include "core/metrics.h"
#include "obs/journal.h"

namespace splice::recovery {

/// One violated invariant, named and explained with the numbers involved.
struct OracleViolation {
  std::string invariant;
  std::string detail;
};

struct OracleReport {
  std::vector<OracleViolation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// All violations on one line each — ready for a test failure message.
  [[nodiscard]] std::string to_string() const;
};

class RecoveryOracle {
 public:
  struct Expect {
    /// The run must have completed (set false for runs that legitimately
    /// cannot finish, e.g. a never-healing partition isolating the root).
    bool completion = true;
    /// Gray-failure runs: assert detection never fired.
    bool no_detection = false;

    Expect() {}  // = default rejects {} for a const& default argument
  };

  /// Validate every applicable invariant; the report lists what failed.
  [[nodiscard]] static OracleReport check(const core::RunResult& result,
                                          const Expect& expect = {});

  /// Journal-aware variant: every violation's detail gains the causal chain
  /// the flight recorder journaled for it — the leak's lineage walked back
  /// to the fault for task-leak, the last chaos event's chain otherwise —
  /// so a failed invariant arrives with its §4.1 story attached.
  [[nodiscard]] static OracleReport check(const core::RunResult& result,
                                          const obs::Journal& journal,
                                          const Expect& expect = {});
};

}  // namespace splice::recovery

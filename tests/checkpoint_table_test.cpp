#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "util/rng.h"

namespace splice::checkpoint {
namespace {

using runtime::LevelStamp;
using runtime::TaskPacket;

CheckpointRecord make_record(const LevelStamp& stamp,
                             runtime::TaskUid owner = 10,
                             lang::ExprId site = 1) {
  CheckpointRecord record;
  record.owner = owner;
  record.site = site;
  record.packet.stamp = stamp;
  record.packet.fn = 0;
  return record;
}

TEST(CheckpointTable, RecordsTopmostPerDestination) {
  CheckpointTable table(/*self=*/2, /*processors=*/4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  EXPECT_EQ(table.record(1, make_record(b2)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.total_records(), 1U);
}

TEST(CheckpointTable, UntouchedDestinationsHoldNothing) {
  // Entries appear on a destination's first record: a big machine's table
  // pays nothing for destinations it never spawns to.
  CheckpointTable table(/*self=*/0, /*processors=*/256);
  for (net::ProcId dest = 0; dest < 256; ++dest) {
    EXPECT_TRUE(table.entry(dest).empty());
  }
  const LevelStamp s = LevelStamp::root().child(4);
  EXPECT_TRUE(table.take(200).empty());
  EXPECT_FALSE(table.release(201, s));
  EXPECT_FALSE(table.contains(202, s));
  EXPECT_TRUE(table.restored_children_of(LevelStamp::root()).empty());
  EXPECT_EQ(table.record(255, make_record(s)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(255).size(), 1U);
  EXPECT_TRUE(table.entry(254).empty());
  EXPECT_TRUE(table.contains(255, s));
  EXPECT_THROW((void)table.entry(256), std::out_of_range);
}

TEST(CheckpointTable, DescendantIsSubsumed) {
  // §3.2's exact scenario: C spawned B2 to B; a descendant B5 spawned to B
  // later "C does nothing".
  CheckpointTable table(2, 4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3).child(0).child(2);  // descendant
  EXPECT_EQ(table.record(1, make_record(b2)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.record(1, make_record(b5)), RecordOutcome::kSubsumed);
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.subsumed(), 1U);
}

TEST(CheckpointTable, SubsumptionIsPerDestination) {
  CheckpointTable table(2, 4);
  const LevelStamp b2 = LevelStamp::root().child(1).child(0);
  const LevelStamp b5 = b2.child(3);
  EXPECT_EQ(table.record(1, make_record(b2)), RecordOutcome::kRecorded);
  // Same stamps toward a different destination are independent.
  EXPECT_EQ(table.record(3, make_record(b5)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(3).size(), 1U);
}

TEST(CheckpointTable, AncestorArrivingLateEvictsDescendants) {
  CheckpointTable table(0, 4);
  const LevelStamp parent = LevelStamp::root().child(2);
  const LevelStamp kid_a = parent.child(0);
  const LevelStamp kid_b = parent.child(1);
  EXPECT_EQ(table.record(1, make_record(kid_a)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.record(1, make_record(kid_b)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.record(1, make_record(parent)), RecordOutcome::kRecorded);
  ASSERT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.entry(1)[0].packet.stamp, parent);
}

TEST(CheckpointTable, SiblingsCoexist) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  EXPECT_EQ(table.record(1, make_record(a)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.record(1, make_record(b)), RecordOutcome::kRecorded);
  EXPECT_EQ(table.entry(1).size(), 2U);
}

TEST(CheckpointTable, TakeEmptiesEntryAndReturnsAll) {
  CheckpointTable table(0, 4);
  table.record(1, make_record(LevelStamp::root().child(1)));
  table.record(1, make_record(LevelStamp::root().child(2)));
  table.record(2, make_record(LevelStamp::root().child(3)));
  auto taken = table.take(1);
  EXPECT_EQ(taken.size(), 2U);
  EXPECT_TRUE(table.entry(1).empty());
  EXPECT_EQ(table.entry(2).size(), 1U);
}

TEST(CheckpointTable, ReleaseRemovesExactStamp) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  table.record(1, make_record(a));
  table.record(1, make_record(b));
  EXPECT_TRUE(table.release(1, a));
  EXPECT_FALSE(table.release(1, a));  // already gone
  EXPECT_EQ(table.entry(1).size(), 1U);
  EXPECT_EQ(table.released(), 1U);
}

TEST(CheckpointTable, ReleaseAnywhereScansAllEntries) {
  CheckpointTable table(0, 4);
  const LevelStamp a = LevelStamp::root().child(7);
  table.record(3, make_record(a));
  EXPECT_TRUE(table.release_anywhere(a));
  EXPECT_FALSE(table.release_anywhere(a));
}

TEST(CheckpointTable, PeaksAreMonotone) {
  CheckpointTable table(0, 4);
  table.record(1, make_record(LevelStamp::root().child(1)));
  table.record(1, make_record(LevelStamp::root().child(2)));
  const auto peak = table.peak_records();
  EXPECT_EQ(peak, 2U);
  table.release(1, LevelStamp::root().child(1));
  EXPECT_EQ(table.peak_records(), peak);  // peak does not decrease
  EXPECT_EQ(table.total_records(), 1U);
  EXPECT_GT(table.peak_units(), 0U);
}

// Property: after any sequence of records, every entry is an antichain —
// no stored stamp subsumes another stored stamp.
TEST(CheckpointTableProperty, EntriesAreAntichains) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    CheckpointTable table(0, 3);
    for (int i = 0; i < 200; ++i) {
      LevelStamp s = LevelStamp::root();
      const auto depth = 1 + rng.next_below(5);
      for (std::uint64_t d = 0; d < depth; ++d) {
        s = s.child(static_cast<runtime::StampDigit>(rng.next_below(3)));
      }
      table.record(static_cast<net::ProcId>(rng.next_below(3)),
                   make_record(s));
    }
    for (net::ProcId dest = 0; dest < 3; ++dest) {
      const auto& entry = table.entry(dest);
      for (std::size_t i = 0; i < entry.size(); ++i) {
        for (std::size_t j = 0; j < entry.size(); ++j) {
          if (i == j) continue;
          EXPECT_FALSE(
              entry[i].packet.stamp.subsumes(entry[j].packet.stamp))
              << "entry " << dest << ": " << entry[i].packet.stamp.to_string()
              << " subsumes " << entry[j].packet.stamp.to_string();
        }
      }
    }
  }
}

// Property: any stamp ever recorded-or-subsumed is recoverable: either it
// is in the entry, or an ancestor of it is.
TEST(CheckpointTableProperty, EverySpawnIsCoveredByAnEntry) {
  util::Xoshiro256 rng(777);
  CheckpointTable table(0, 2);
  std::vector<LevelStamp> spawned;
  for (int i = 0; i < 300; ++i) {
    LevelStamp s = LevelStamp::root();
    const auto depth = 1 + rng.next_below(6);
    for (std::uint64_t d = 0; d < depth; ++d) {
      s = s.child(static_cast<runtime::StampDigit>(rng.next_below(2)));
    }
    table.record(1, make_record(s));
    spawned.push_back(s);
    for (const LevelStamp& stamp : spawned) {
      bool covered = false;
      for (const auto& record : table.entry(1)) {
        if (record.packet.stamp.subsumes(stamp)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << stamp.to_string();
    }
  }
}

}  // namespace
}  // namespace splice::checkpoint

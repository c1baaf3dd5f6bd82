#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <unordered_set>

#include "runtime/level_stamp.h"
#include "util/rng.h"

namespace splice::runtime {
namespace {

TEST(LevelStamp, RootIsNull) {
  const LevelStamp root = LevelStamp::root();
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.depth(), 0U);
  EXPECT_EQ(root.to_string(), "<root>");
}

TEST(LevelStamp, ChildAppendsDigit) {
  const LevelStamp child = LevelStamp::root().child(3).child(7);
  EXPECT_EQ(child.depth(), 2U);
  EXPECT_EQ(child.digits(), (LevelStamp::Digits{3, 7}));
  EXPECT_EQ(child.last(), 7U);
  EXPECT_EQ(child.to_string(), "<3.7>");
}

TEST(LevelStamp, ParentInvertsChild) {
  const LevelStamp s = LevelStamp::root().child(1).child(2).child(3);
  EXPECT_EQ(s.parent(), LevelStamp::root().child(1).child(2));
  EXPECT_EQ(s.parent().parent().parent(), LevelStamp::root());
}

TEST(LevelStamp, AncestryIsProperPrefix) {
  const LevelStamp root = LevelStamp::root();
  const LevelStamp a = root.child(1);
  const LevelStamp ab = a.child(2);
  const LevelStamp ac = a.child(3);

  EXPECT_TRUE(root.is_ancestor_of(a));
  EXPECT_TRUE(root.is_ancestor_of(ab));
  EXPECT_TRUE(a.is_ancestor_of(ab));
  EXPECT_FALSE(a.is_ancestor_of(a));      // strict
  EXPECT_FALSE(ab.is_ancestor_of(a));     // reversed
  EXPECT_FALSE(ab.is_ancestor_of(ac));    // siblings' children
  EXPECT_TRUE(ab.is_descendant_of(root));
  EXPECT_TRUE(a.subsumes(a));
  EXPECT_TRUE(a.subsumes(ab));
  EXPECT_FALSE(ab.subsumes(a));
}

TEST(LevelStamp, DifferentBranchesUnrelated) {
  const LevelStamp left = LevelStamp::root().child(1).child(5);
  const LevelStamp right = LevelStamp::root().child(2).child(5);
  EXPECT_FALSE(left.is_ancestor_of(right));
  EXPECT_FALSE(right.is_ancestor_of(left));
  EXPECT_EQ(left.common_prefix(right), 0U);
}

TEST(LevelStamp, CommonPrefixLength) {
  const LevelStamp a = LevelStamp::root().child(1).child(2).child(3);
  const LevelStamp b = LevelStamp::root().child(1).child(2).child(9).child(4);
  EXPECT_EQ(a.common_prefix(b), 2U);
  EXPECT_EQ(a.common_prefix(a), 3U);
}

TEST(LevelStamp, UniquenessByConstruction) {
  // Stamps of distinct tree paths are distinct ("its uniqueness is
  // guaranteed by the program structure").
  std::set<LevelStamp> seen;
  std::function<void(const LevelStamp&, int)> walk = [&](const LevelStamp& s,
                                                         int depth) {
    EXPECT_TRUE(seen.insert(s).second) << s.to_string();
    if (depth == 0) return;
    for (StampDigit d = 0; d < 3; ++d) walk(s.child(d), depth - 1);
  };
  walk(LevelStamp::root(), 4);
  EXPECT_EQ(seen.size(), 1 + 3 + 9 + 27 + 81U);
}

TEST(LevelStamp, HashConsistentWithEquality) {
  LevelStamp::Hash hash;
  const LevelStamp a = LevelStamp::root().child(1).child(2);
  const LevelStamp b = LevelStamp::root().child(1).child(2);
  EXPECT_EQ(hash(a), hash(b));
  std::unordered_set<std::size_t> hashes;
  for (StampDigit d = 0; d < 100; ++d) {
    hashes.insert(hash(LevelStamp::root().child(d)));
  }
  EXPECT_GT(hashes.size(), 95U);  // no mass collisions
}

TEST(LevelStamp, OrderingIsTotalAndDeterministic) {
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

// Property sweep: for random pairs, exactly one of {ancestor, descendant,
// equal, unrelated} holds, and ancestry implies shorter depth.
TEST(LevelStampProperty, RelationTrichotomy) {
  util::Xoshiro256 rng(99);
  auto random_stamp = [&](std::size_t max_depth) {
    LevelStamp s = LevelStamp::root();
    const auto depth = rng.next_below(max_depth + 1);
    for (std::uint64_t i = 0; i < depth; ++i) {
      s = s.child(static_cast<StampDigit>(rng.next_below(3)));
    }
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const LevelStamp a = random_stamp(6);
    const LevelStamp b = random_stamp(6);
    const int relations = static_cast<int>(a == b) +
                          static_cast<int>(a.is_ancestor_of(b)) +
                          static_cast<int>(b.is_ancestor_of(a));
    EXPECT_LE(relations, 1);
    if (a.is_ancestor_of(b)) {
      EXPECT_LT(a.depth(), b.depth());
      EXPECT_EQ(a.common_prefix(b), a.depth());
    }
    // subsumes == ancestor-or-equal
    EXPECT_EQ(a.subsumes(b), a == b || a.is_ancestor_of(b));
  }
}

// The recovery schemes rely on twins regenerating children with identical
// stamps: stamp construction is a pure function of the path digits.
TEST(LevelStampProperty, ReincarnationYieldsIdenticalStamps) {
  const LevelStamp original =
      LevelStamp::root().child(4).child(1).child(9);
  const LevelStamp twin_child =
      LevelStamp::root().child(4).child(1).child(9);
  EXPECT_EQ(original, twin_child);
  LevelStamp::Hash hash;
  EXPECT_EQ(hash(original), hash(twin_child));
}

// Footprint: stamps ride in every message, so copies up to kInlineDepth
// must stay in the object (no heap), and deeper ones must spill without
// changing what the stamp means.
bool stored_inline(const LevelStamp& s) {
  const auto* begin = reinterpret_cast<const std::byte*>(&s);
  const auto* digits = reinterpret_cast<const std::byte*>(s.digits().data());
  return digits >= begin && digits < begin + sizeof(LevelStamp);
}

LevelStamp stamp_of_depth(std::size_t depth) {
  LevelStamp s = LevelStamp::root();
  for (std::size_t i = 0; i < depth; ++i) {
    s = s.child(static_cast<StampDigit>(i * 2749 % 65536));
  }
  return s;
}

TEST(LevelStampFootprint, Depth24CopiesInline) {
  static_assert(LevelStamp::kInlineDepth == 24);
  static_assert(sizeof(LevelStamp) <= 64);
  const LevelStamp deep = stamp_of_depth(24);
  ASSERT_EQ(deep.depth(), 24U);
  EXPECT_TRUE(stored_inline(deep));
  const LevelStamp copy = deep;  // NOLINT(performance-unnecessary-copy)
  EXPECT_TRUE(stored_inline(copy));
  EXPECT_EQ(copy, deep);
  EXPECT_TRUE(stored_inline(deep.parent()));
}

TEST(LevelStampFootprint, Depth25SpillsAndComparesEqual) {
  const LevelStamp spilled = stamp_of_depth(25);
  ASSERT_EQ(spilled.depth(), 25U);
  EXPECT_FALSE(stored_inline(spilled));
  const LevelStamp copy = spilled;  // NOLINT(performance-unnecessary-copy)
  EXPECT_FALSE(stored_inline(copy));
  EXPECT_EQ(copy, spilled);
  EXPECT_EQ(LevelStamp::Hash{}(copy), LevelStamp::Hash{}(spilled));
  EXPECT_EQ(stamp_of_depth(24).child(static_cast<StampDigit>(24 * 2749)),
            spilled);
  EXPECT_EQ(spilled.parent(), stamp_of_depth(24));
  EXPECT_TRUE(stored_inline(spilled.parent()));
  EXPECT_TRUE(stamp_of_depth(24).is_ancestor_of(spilled));
  EXPECT_LT(stamp_of_depth(24), spilled);
  // The largest digit survives intact.
  EXPECT_EQ(LevelStamp::root().child(UINT16_MAX).last(), UINT16_MAX);
}

}  // namespace
}  // namespace splice::runtime

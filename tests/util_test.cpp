#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "bench/harness.h"
#include "util/rng.h"
#include "util/table.h"

namespace splice::util {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  const std::uint64_t x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro256, ReplaysExactlyForSameSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(0), 0U);
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8U);
}

TEST(Xoshiro256, NextRangeInclusiveBounds) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Xoshiro256, ExponentialHasRequestedMean) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Xoshiro256, ShufflePreservesElements) {
  Xoshiro256 rng(19);
  std::vector<int> xs{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = xs;
  rng.shuffle(xs);
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, sorted);
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 a(21);
  Xoshiro256 child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Table, AsciiAlignmentAndCsvEscaping) {
  Table t({"name", "value"});
  t.set_title("demo");
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  t.add_row({"short"});  // padded
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("| plain"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_EQ(t.row_count(), 3U);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(7)), "7");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
}

// The bench harness fans seeded replicates out with this helper.
TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  bench::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOne) {
  bench::parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  bench::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0U);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace splice::util

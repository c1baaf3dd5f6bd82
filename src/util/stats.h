// Streaming statistics and small summaries for experiment output.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace splice::util {

/// Streaming accumulator (Welford) with min/max. O(1) memory.
class Accumulator {
 public:
  void add(double x) noexcept;
  void merge(const Accumulator& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Coefficient of variation (stddev / mean); 0 when mean == 0.
  [[nodiscard]] double cov() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Keeps all samples; supports exact percentiles. Used for per-replicate
/// experiment metrics where sample counts are small (<= a few thousand).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// Exact percentile via linear interpolation, q in [0,100].
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

}  // namespace splice::util

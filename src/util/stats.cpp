#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace splice::util {

void Accumulator::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::cov() const noexcept {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

double Samples::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double v : values_) m2 += (v - m) * (v - m);
  return std::sqrt(m2 / static_cast<double>(values_.size() - 1));
}

double Samples::min() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) return sorted[lo];
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace splice::util

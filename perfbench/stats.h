// Exact order statistics over raw samples.
//
// Every latency the benchmark reports comes from the raw per-op or
// per-call samples it keeps, never from the program's log2 histograms
// (whose in-bucket interpolation can be off by up to 2x).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace khzbench {

/// Nearest-rank percentile of ascending `sorted`: the smallest sample such
/// that at least p% of the samples are <= it, i.e. sorted[ceil(p/100*n)-1].
/// p in (0, 100]; an empty input yields 0.
template <typename T>
double nearest_rank(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// Sorts in place, then returns the nearest-rank percentile.
template <typename T>
double percentile_of(std::vector<T>& v, double p) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, p);
}

/// Median of a small set of doubles (mean of the middle two for even n).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Pins nearest_rank and median against hand-computed arrays. Returns the
/// number of mismatches (0 = pass); the benchmark refuses to run otherwise.
inline int self_test() {
  int bad = 0;
  auto expect = [&bad](double got, double want) {
    if (got != want) ++bad;
  };
  // The textbook nearest-rank example: ranks ceil(0.05*5)=1, ceil(1.5)=2,
  // ceil(2.0)=2, ceil(2.5)=3, ceil(5)=5.
  const std::vector<std::uint32_t> five{15, 20, 35, 40, 50};
  expect(nearest_rank(five, 5), 15);
  expect(nearest_rank(five, 30), 20);
  expect(nearest_rank(five, 40), 20);
  expect(nearest_rank(five, 50), 35);
  expect(nearest_rank(five, 100), 50);
  // 1..100: p50 is the 50th value, p99 the 99th.
  std::vector<std::uint32_t> hundred(100);
  for (std::uint32_t i = 0; i < 100; ++i) hundred[i] = i + 1;
  expect(nearest_rank(hundred, 50), 50);
  expect(nearest_rank(hundred, 99), 99);
  expect(nearest_rank(hundred, 99.9), 100);
  // Unsorted input with duplicates; 1000 samples put p99 at rank 990.
  std::vector<std::uint32_t> skew;
  for (std::uint32_t i = 0; i < 1000; ++i) skew.push_back(i < 980 ? 7 : i);
  std::reverse(skew.begin(), skew.end());
  expect(percentile_of(skew, 50), 7);
  expect(percentile_of(skew, 99), 989);
  expect(nearest_rank(std::vector<std::uint32_t>{}, 50), 0);
  expect(median({3, 1, 2}), 2);
  expect(median({4, 1, 3, 2}), 2.5);
  return bad;
}

}  // namespace khzbench

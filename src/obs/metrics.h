// Per-node metrics: named counters and log2-bucketed latency histograms.
//
// The paper's evaluation is about *where time goes* when an operation
// crosses the resolve -> home-node -> consistency-manager chain. Flat
// counters cannot attribute latency to a hop, so every node
// carries a MetricsRegistry of counters and histograms that the client-op,
// resolve, CREW and transport layers record into. Registries are cheap to
// read concurrently (atomics; the registry mutex only guards the name map),
// support snapshot/diff for "cost of this phase" measurements, and dump as
// aligned text or JSON for the bench harness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace khz::obs {

/// Monotonic counter. add/set are wait-free; readers may observe slightly
/// stale values, which is fine for statistics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Overwrites the value: used to mirror externally-maintained counters
  /// (e.g. TransportStats) into a registry at snapshot time.
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depth, pool size, inflight count): unlike a
/// Counter it moves both ways, so rate math over it is meaningless and
/// cluster rollups sum the instantaneous values instead of deltas. set/add/
/// sub are wait-free.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Number of histogram buckets: bucket i counts values whose floor(log2)
/// is i (bucket 0 additionally takes 0), so 64 buckets cover all of u64.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Point-in-time copy of a histogram, with percentile estimation.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Estimated value at percentile `p` in [0,100], by linear interpolation
  /// inside the containing log2 bucket; clamped to the observed max.
  [[nodiscard]] double percentile(double p) const;
  /// This snapshot minus an `earlier` one of the same histogram. `max` is
  /// carried over from this snapshot (a maximum cannot be un-observed).
  [[nodiscard]] HistogramSnapshot diff(const HistogramSnapshot& earlier) const;
  /// Adds `other` bucket-by-bucket (count/sum add, max takes the larger).
  /// Because the buckets are merged raw — not reconstructed from
  /// percentiles — a rollup of N nodes' histograms is bucket-exact: it
  /// equals the histogram one node would have recorded seeing all samples.
  void merge(const HistogramSnapshot& other);

  /// Wire format (cluster stats scraping): count/sum/max then the nonzero
  /// buckets as sparse (index, count) pairs — latency histograms typically
  /// occupy under a dozen of the 64 buckets.
  void encode(Encoder& e) const;
  static HistogramSnapshot decode(Decoder& d);
};

/// Log2-bucketed histogram of non-negative values (latencies in micros by
/// convention). Recording is wait-free.
class Histogram {
 public:
  void record(std::uint64_t v);
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Bucket index for a value: floor(log2(v)), with 0 and 1 in bucket 0.
[[nodiscard]] std::size_t histogram_bucket(std::uint64_t v);

/// Point-in-time copy of a whole registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Per-name difference against an `earlier` snapshot. Names absent from
  /// `earlier` are treated as zero there. Gauges are levels, not
  /// accumulators: the diff carries this snapshot's value unchanged.
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;
  /// Folds `other` in for a cluster rollup: counters and gauges add,
  /// histograms merge bucket-wise (see HistogramSnapshot::merge). Names
  /// missing on either side are treated as zero/empty.
  void merge(const MetricsSnapshot& other);
  /// Aligned human-readable dump: counters, then gauges (marked), then
  /// histograms.
  [[nodiscard]] std::string to_text() const;
  /// {"counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,sum,max,mean,p50,p95,p99}}}
  [[nodiscard]] std::string to_json() const;

  /// Wire format for kStatsResp: every counter, gauge and histogram with
  /// its full name and — for histograms — the raw buckets, so a remote
  /// scraper can roll up and re-derive percentiles exactly.
  void encode(Encoder& e) const;
  static MetricsSnapshot decode(Decoder& d);
};

/// One node's registry in a cluster rollup.
using NodeSnapshot = std::pair<NodeId, MetricsSnapshot>;

/// Every snapshot merged, in order (MetricsSnapshot::merge).
[[nodiscard]] MetricsSnapshot rollup(const std::vector<NodeSnapshot>& nodes);

/// The cluster rollup as two JSON members, without enclosing braces so a
/// caller can add members of its own:
/// "cluster":<rollup(nodes)>,"nodes":{"<id>":<snapshot>,...}.
[[nodiscard]] std::string rollup_json_members(
    const std::vector<NodeSnapshot>& nodes);

/// One self-sampled interval of a node's registry: the delta of everything
/// that moved between `at - interval` and `at` (gauges carry their level at
/// `at`).
struct MetricsSample {
  Micros at = 0;
  MetricsSnapshot delta;
};

/// Bounded ring of periodic registry samples, newest kept, oldest
/// overwritten (drop-counted). Filled by the node's self-sampler on its
/// timer rail and exported through the stats scrape path, so a scraper gets
/// short-horizon time series without polling every node at high frequency.
/// Touched only from node context (single-threaded by construction).
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(MetricsSample s) {
    if (samples_.size() == capacity_) {
      samples_.pop_front();
      ++dropped_;
    }
    samples_.push_back(std::move(s));
  }

  /// Oldest first.
  [[nodiscard]] std::vector<MetricsSample> samples() const {
    return {samples_.begin(), samples_.end()};
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Samples overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear() {
    samples_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::deque<MetricsSample> samples_;
  std::uint64_t dropped_ = 0;
};

/// Named metric registry. counter()/histogram() return stable references
/// (std::map nodes never move), so hot paths resolve names once and keep
/// the pointer.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::string dump_text() const { return snapshot().to_text(); }
  [[nodiscard]] std::string dump_json() const { return snapshot().to_json(); }

 private:
  mutable std::mutex mu_;  // guards map structure only, not the values
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace khz::obs

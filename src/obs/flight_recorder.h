// Slow-op flight recorder.
//
// Aggregate histograms say *that* a tail exists; they cannot say *why one
// particular op* was slow. The flight recorder closes that gap: when a
// client operation's latency crosses a configured threshold (absolute, or
// a fraction of its deadline budget), the node captures a dossier — the
// op's span tree lifted from the trace ring, the RPC attempt/steer counts
// it consumed, and the instantaneous admission queue depths at completion —
// into a bounded, drop-counted ring. Dossiers ride the same kStatsReq/
// kStatsResp scrape path as metrics, so a tail outlier in an overload or
// churn run arrives with its cause attached instead of needing a re-run
// with tracing cranked up.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "obs/trace.h"

namespace khz::obs {

/// Everything the node knew about one slow operation at completion time.
struct OpDossier {
  std::string op;           // "reserve" / "lock" / "getattr" / ...
  NodeId node = kNoNode;    // node the op was issued on
  std::uint64_t trace_id = 0;
  Micros start = 0;
  Micros end = 0;
  /// Absolute deadline the op ran under (0 = none).
  std::uint64_t deadline = 0;
  /// RPC attempts / candidate steers consumed node-wide while the op ran.
  /// Deltas of the node counters, so concurrent ops overlap — still a
  /// faithful "how stormy was the engine" signal for the slow period.
  std::uint64_t rpc_attempts = 0;
  std::uint64_t rpc_steered = 0;
  /// Instantaneous admission queue depths when the op completed.
  std::uint64_t depth_protocol = 0;
  std::uint64_t depth_client = 0;
  std::uint64_t depth_replication = 0;
  /// The op's span tree: every finished span of its trace still in the
  /// ring when the dossier was cut (root included, cross-node spans only
  /// if they were recorded on this node).
  std::vector<Span> spans;

  void encode(Encoder& e) const;
  static OpDossier decode(Decoder& d);
  /// One JSON object (spans inline) for tools and bench sidecars.
  [[nodiscard]] std::string to_json() const;
};

/// Bounded dossier ring: newest kept, oldest overwritten, drop-counted.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 32)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(OpDossier d) {
    if (ring_.size() == capacity_) {
      ring_.pop_front();
      ++dropped_;
    }
    ring_.push_back(std::move(d));
  }

  /// Oldest first.
  [[nodiscard]] std::vector<OpDossier> dossiers() const {
    return {ring_.begin(), ring_.end()};
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Dossiers overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear() {
    ring_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::deque<OpDossier> ring_;
  std::uint64_t dropped_ = 0;
};

/// JSON array of dossiers, oldest first.
[[nodiscard]] std::string dossiers_json(const std::vector<OpDossier>& ds);

}  // namespace khz::obs

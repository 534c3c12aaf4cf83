// Per-lane executor telemetry.
//
// Every cross-lane hop in the node (and the access + unlock job of a
// Node::get/put) goes through Node::post_to_lane, which feeds this
// instrument set: one queue-depth gauge per lane (how many
// posted continuations are waiting to run there) and one shared dispatch
// histogram (how long a continuation sat queued before its lane ran it).
// Under the simulator posts run at the same virtual instant, so
// lane.dispatch_us stays at zero and lane.depth.* spikes only transiently;
// over TCP the gauges expose a hot lane (skewed region hash) and the
// histogram exposes executor scheduling delay — the first thing to look at
// when a lane sweep stops scaling.
#pragma once

#include <string>
#include <vector>

#include "common/lane.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace khz::core {

/// Instruments for one node's lane executor set. Bind once at node
/// construction; enqueue/dispatch are called from Node::post_to_lane.
/// Gauge/Histogram operations are atomic, so any thread may call them.
class LaneStats {
 public:
  void bind(obs::MetricsRegistry& m, unsigned lanes) {
    depth_.clear();
    // Lane 0 is registered with a literal name so the metric-catalogue
    // lint sees a `lane.depth.*` sibling; further lanes join the family
    // with runtime-assembled names.
    depth_.push_back(&m.gauge("lane.depth.0"));
    for (unsigned l = 1; l < lanes && l < kMaxLanes; ++l) {
      depth_.push_back(&m.gauge("lane.depth." + std::to_string(l)));
    }
    dispatch_us_ = &m.histogram("lane.dispatch_us");
  }

  /// A continuation was posted to `lane` and is now queued.
  void enqueued(unsigned lane) { depth_at(lane)->add(1); }

  /// The continuation started running on its lane after `queued_us` in
  /// the queue.
  void dispatched(unsigned lane, Micros queued_us) {
    depth_at(lane)->sub(1);
    dispatch_us_->record(queued_us);
  }

 private:
  [[nodiscard]] obs::Gauge* depth_at(unsigned lane) {
    return depth_[lane < depth_.size() ? lane : 0];
  }

  std::vector<obs::Gauge*> depth_;
  obs::Histogram* dispatch_us_ = nullptr;
};

}  // namespace khz::core

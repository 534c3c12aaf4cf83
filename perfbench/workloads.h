// The three closed-loop workloads and the inputs they draw from the seed.
//
//  hot-read        512 x 4 KiB regions warmed on both client nodes; Zipf(0.99)
//                  gets that are all local replica hits: client hand-off
//                  plus the node's lock/read/unlock path, no wire, no disk.
//  contended-write 64 regions, 50% put / 50% get on uniform keys, diskless:
//                  ownership ping-pongs between the client nodes through the
//                  home, so the wire and CREW rounds do the work.
//  kfs-webcache    the paper's Section 4.1 filesystem as a web cache: 512
//                  files in 16 directories, Zipf(0.9) open + whole-file read
//                  (90%) or overwrite (10%), data directories with group
//                  commit (no fdatasync) and a RAM cache smaller than the
//                  corpus.
//
// Every page the benchmark writes carries a 64-bit stamp in its first word
// and a body derived from it, so a read can be checked for tearing and for
// a stamp that was actually written.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tcp_world.h"
#include "kfs/fs.h"
#include "trace.h"

namespace khzbench {

inline constexpr std::size_t kPageBytes = 4096;

/// Closed-loop client threads, alternating between client nodes 1 and 2;
/// node 0 is genesis, cluster manager and home of every region.
inline constexpr unsigned kThreads = 4;
inline constexpr khz::NodeId client_node(unsigned thread) {
  return 1 + thread % 2;
}

/// One worker thread: its own TcpClient on `node`, the timing decorator over
/// it, and the op-stream cursor. Not movable (the decorator holds members).
class Worker {
 public:
  Worker(khz::core::TcpWorld& world, khz::NodeId node, unsigned thread)
      : tcp(world, node), trace(thread), timed(tcp, trace), thread_(thread) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] unsigned thread() const { return thread_; }
  /// The client ops go through: the decorator when tracing.
  [[nodiscard]] khz::core::SyncClient& client() {
    return traced ? static_cast<khz::core::SyncClient&>(timed) : tcp;
  }
  [[nodiscard]] ThreadTrace* trace_or_null() {
    return traced ? &trace : nullptr;
  }

  khz::core::TcpClient tcp;
  ThreadTrace trace;
  TimedClient timed;
  bool traced = false;
  std::uint64_t cursor = 0;         // next index into this thread's stream
  std::uint64_t user_bytes = 0;     // payload bytes written by ops
  std::uint64_t rereads = 0;        // kfs reads repeated after a mixed read
  std::string first_error;          // first failed or wrong op, for the log
  /// kfs-webcache mounts, one per client (plain and traced).
  std::optional<khz::kfs::FileSystem> fs_plain;
  std::optional<khz::kfs::FileSystem> fs_timed;

 private:
  unsigned thread_;
};

enum class Outcome : std::uint8_t { kOk, kFailed, kWrong };

class Workload {
 public:
  virtual ~Workload() = default;

  /// Shape of the deployment: disk, flush policy, RAM cache.
  virtual void configure(khz::core::TcpWorldOptions& o) const = 0;
  /// Creates and fills the corpus from node 0 (the home of every region).
  virtual bool load(khz::core::TcpWorld& world, std::string& err) = 0;
  /// Per-thread preparation (mounts) and warm-up; part of set-up.
  virtual bool warm(Worker& w, std::string& err) = 0;
  /// One closed-loop op, checked.
  virtual Outcome op(Worker& w) = 0;
  /// Checks after the measured phase (fsck for kfs-webcache).
  virtual bool final_check(khz::core::TcpWorld& /*world*/,
                           std::string& /*err*/) {
    return true;
  }
  /// User payload bytes the corpus holds (storage space accounting).
  [[nodiscard]] virtual std::uint64_t live_bytes() const { return 0; }
  /// Human-readable flush policy, reported with every result.
  [[nodiscard]] virtual std::string flush_policy() const {
    return "diskless (no data directory)";
  }
};

/// Null for an unknown name. `seed` fixes keys, file sizes and write choice.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Names accepted by make_workload, for the usage message.
inline constexpr const char* kWorkloadNames =
    "hot-read | contended-write | kfs-webcache";

}  // namespace khzbench

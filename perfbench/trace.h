// Benchmark-side tracing: spans recorded around the calls into each layer
// (workload op -> kfs::FileSystem call -> SyncClient call), kept in memory
// and written out as Chrome trace JSON at exit. Nothing here reaches into
// the program; the SyncClient decorator times the public client surface.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"

namespace khzbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SyncClient entry points with their own latency series.
enum class Call : std::uint8_t { kLock, kRead, kWrite, kUnlock, kOther };
inline constexpr std::size_t kCallKinds = 5;
inline constexpr std::array<const char*, kCallKinds> kCallNames{
    "lock", "read", "write", "unlock", "other"};

enum class Layer : std::uint8_t { kOp, kKfs, kCore };

struct Span {
  std::uint64_t op = 0;  // shared by every span of one workload op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* name = "";
  Layer layer = Layer::kOp;
};

/// One worker thread's trace: aggregates over every op, raw per-call
/// samples, and the spans of a sample of ops. Touched only by its thread.
class ThreadTrace {
 public:
  static constexpr std::uint64_t kSpanEvery = 32;  // keep 1 op in 32
  static constexpr std::size_t kMaxSpans = 200'000;

  explicit ThreadTrace(unsigned thread) : thread_(thread) {}

  void begin_op(std::uint64_t op_id) {
    op_id_ = op_id;
    keep_ = op_id % kSpanEvery == 0 && spans_.size() < kMaxSpans;
  }
  void end_op(std::int64_t start, std::int64_t end) {
    ++ops_;
    op_ns_ += end - start;
    if (keep_) spans_.push_back({op_id_, start, end, "op", Layer::kOp});
  }
  void kfs_call(const char* name, std::int64_t start, std::int64_t end) {
    kfs_ns_ += end - start;
    if (keep_) spans_.push_back({op_id_, start, end, name, Layer::kKfs});
  }
  void core_call(Call c, std::int64_t start, std::int64_t end) {
    const std::int64_t d = end - start;
    ++calls_;
    core_ns_ += d;
    call_ns_[static_cast<std::size_t>(c)].push_back(
        static_cast<std::uint32_t>(std::min<std::int64_t>(d, UINT32_MAX)));
    if (keep_) {
      spans_.push_back(
          {op_id_, start, end, kCallNames[static_cast<std::size_t>(c)],
           Layer::kCore});
    }
  }

  [[nodiscard]] unsigned thread() const { return thread_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::int64_t op_ns() const { return op_ns_; }
  [[nodiscard]] std::int64_t kfs_ns() const { return kfs_ns_; }
  [[nodiscard]] std::int64_t core_ns() const { return core_ns_; }
  [[nodiscard]] const std::vector<std::uint32_t>& call_ns(Call c) const {
    return call_ns_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  unsigned thread_;
  std::uint64_t op_id_ = 0;
  bool keep_ = false;
  std::uint64_t ops_ = 0;
  std::uint64_t calls_ = 0;
  std::int64_t op_ns_ = 0;
  std::int64_t kfs_ns_ = 0;
  std::int64_t core_ns_ = 0;
  std::array<std::vector<std::uint32_t>, kCallKinds> call_ns_;
  std::vector<Span> spans_;
};

/// Times `f()` as a kfs-layer span when tracing (trace != nullptr).
template <typename F>
auto kfs_span(ThreadTrace* trace, const char* name, F&& f) {
  if (trace == nullptr) return f();
  const std::int64_t t0 = now_ns();
  auto r = f();
  trace->kfs_call(name, t0, now_ns());
  return r;
}

/// Decorator that times every SyncClient call of the wrapped client.
class TimedClient final : public khz::core::SyncClient {
 public:
  TimedClient(khz::core::SyncClient& inner, ThreadTrace& trace)
      : inner_(inner), trace_(trace) {}

  khz::Result<khz::GlobalAddress> reserve(
      std::uint64_t size, const khz::location::RegionAttrs& attrs) override {
    return timed(Call::kOther, [&] { return inner_.reserve(size, attrs); });
  }
  khz::Status unreserve(const khz::GlobalAddress& base) override {
    return timed(Call::kOther, [&] { return inner_.unreserve(base); });
  }
  khz::Status allocate(const khz::AddressRange& range) override {
    return timed(Call::kOther, [&] { return inner_.allocate(range); });
  }
  khz::Status deallocate(const khz::AddressRange& range) override {
    return timed(Call::kOther, [&] { return inner_.deallocate(range); });
  }
  khz::Result<khz::consistency::LockContext> lock(
      const khz::AddressRange& range,
      khz::consistency::LockMode mode) override {
    return timed(Call::kLock, [&] { return inner_.lock(range, mode); });
  }
  void unlock(const khz::consistency::LockContext& ctx) override {
    const std::int64_t t0 = now_ns();
    inner_.unlock(ctx);
    trace_.core_call(Call::kUnlock, t0, now_ns());
  }
  khz::Result<khz::Bytes> read(const khz::consistency::LockContext& ctx,
                               std::uint64_t offset,
                               std::uint64_t len) override {
    return timed(Call::kRead, [&] { return inner_.read(ctx, offset, len); });
  }
  khz::Status write(const khz::consistency::LockContext& ctx,
                    std::uint64_t offset,
                    std::span<const std::uint8_t> data) override {
    return timed(Call::kWrite,
                 [&] { return inner_.write(ctx, offset, data); });
  }
  khz::Result<khz::location::RegionAttrs> getattr(
      const khz::GlobalAddress& base) override {
    return timed(Call::kOther, [&] { return inner_.getattr(base); });
  }
  khz::Status setattr(const khz::GlobalAddress& base,
                      const khz::location::RegionAttrs& attrs) override {
    return timed(Call::kOther, [&] { return inner_.setattr(base, attrs); });
  }
  khz::Result<std::vector<khz::NodeId>> locate(
      const khz::GlobalAddress& addr) override {
    return timed(Call::kOther, [&] { return inner_.locate(addr); });
  }
  [[nodiscard]] khz::NodeId node_id() const override {
    return inner_.node_id();
  }

 private:
  template <typename F>
  auto timed(Call c, F&& f) -> decltype(f()) {
    const std::int64_t t0 = now_ns();
    auto r = f();
    trace_.core_call(c, t0, now_ns());
    return r;
  }

  khz::core::SyncClient& inner_;
  ThreadTrace& trace_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds relative to
/// `origin_ns`) of every kept span; one tid per worker thread.
std::string chrome_trace_json(const std::vector<const ThreadTrace*>& traces,
                              std::int64_t origin_ns);

}  // namespace khzbench

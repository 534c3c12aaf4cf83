// Blocking client interface to Khazana.
//
// "Typically an application process (client) interacts with Khazana through
// library routines" (paper, Section 2). SyncClient is that library surface:
// the full operation suite as plain blocking calls. Two implementations
// exist — SimClient (pumps the discrete-event simulator until the
// operation's callback fires) and TcpClient in tcp_world.h (posts the
// operation to the node's executor and blocks once for its completion;
// get/put and get_many/put_many run lock + access + unlock there as one
// hand-off). KFS and the object runtime are written against this interface
// and run unchanged over either transport.
#pragma once

#include <algorithm>
#include <numeric>

#include "core/node.h"
#include "core/sim_world.h"

namespace khz::core {

class SyncClient {
 public:
  virtual ~SyncClient() = default;

  virtual Result<GlobalAddress> reserve(std::uint64_t size,
                                        const RegionAttrs& attrs) = 0;
  virtual Status unreserve(const GlobalAddress& base) = 0;
  virtual Status allocate(const AddressRange& range) = 0;
  virtual Status deallocate(const AddressRange& range) = 0;
  virtual Result<consistency::LockContext> lock(const AddressRange& range,
                                                consistency::LockMode mode) = 0;
  virtual void unlock(const consistency::LockContext& ctx) = 0;
  virtual Result<Bytes> read(const consistency::LockContext& ctx,
                             std::uint64_t offset, std::uint64_t len) = 0;
  virtual Status write(const consistency::LockContext& ctx,
                       std::uint64_t offset,
                       std::span<const std::uint8_t> data) = 0;
  virtual Result<RegionAttrs> getattr(const GlobalAddress& base) = 0;
  virtual Status setattr(const GlobalAddress& base,
                         const RegionAttrs& attrs) = 0;
  virtual Result<std::vector<NodeId>> locate(const GlobalAddress& addr) = 0;

  /// The node this client talks through.
  [[nodiscard]] virtual NodeId node_id() const = 0;

  // --- conveniences shared by all implementations -----------------------
  Result<GlobalAddress> create_region(std::uint64_t size,
                                      const RegionAttrs& attrs = {}) {
    auto base = reserve(size, attrs);
    if (!base) return base;
    const std::uint64_t aligned = (size + attrs.page_size - 1) /
                                  attrs.page_size * attrs.page_size;
    const Status s = allocate({base.value(), aligned});
    if (!s.ok()) return s.error();
    return base;
  }

  /// lock(kWrite) + write of `data` at the start of [range) + unlock; the
  /// lock is released even when the write fails. Overridable so a
  /// transport can run the three steps in one hand-off (TcpClient does).
  virtual Status put(const AddressRange& range,
                     std::span<const std::uint8_t> data) {
    auto ctx = lock(range, consistency::LockMode::kWrite);
    if (!ctx) return ctx.error();
    const Status s = write(ctx.value(), 0, data);
    unlock(ctx.value());
    return s;
  }

  /// lock(kRead) + read of all of [range) + unlock. Overridable like put.
  virtual Result<Bytes> get(const AddressRange& range) {
    auto ctx = lock(range, consistency::LockMode::kRead);
    if (!ctx) return ctx.error();
    auto r = read(ctx.value(), 0, range.size);
    unlock(ctx.value());
    return r;
  }

  /// Reads every range while holding read locks on all of them at once:
  /// one Bytes per range, in the caller's order. This default locks each
  /// range in ascending base order, reads them all, then unlocks them all,
  /// so a decorator that forwards only the single calls stays atomic.
  /// All-or-nothing: a failed lock releases those already taken.
  /// kBadArgument for an empty batch, a zero-size range, or two ranges
  /// that overlap or share a 4 KiB block. Overridable so a transport can
  /// run the whole batch in one hand-off (SimClient and TcpClient call
  /// Node::get_many).
  virtual Result<std::vector<Bytes>> get_many(
      std::vector<AddressRange> ranges) {
    auto ctxs = lock_all(ranges, consistency::LockMode::kRead);
    if (!ctxs) return ctxs.error();
    std::vector<Bytes> out;
    out.reserve(ranges.size());
    ErrorCode err = ErrorCode::kOk;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      auto r = read(ctxs.value()[i], 0, ranges[i].size);
      if (!r) {
        err = r.error();
        break;
      }
      out.push_back(std::move(r).value());
    }
    for (const auto& ctx : ctxs.value()) unlock(ctx);
    if (err != ErrorCode::kOk) return err;
    return out;
  }

  /// Writes each `data` at the start of its range while holding write
  /// locks on all of them at once, staged like get_many. Data longer than
  /// its range is kBadArgument before any lock is taken.
  virtual Status put_many(std::vector<RangeWrite> writes) {
    std::vector<AddressRange> ranges;
    ranges.reserve(writes.size());
    for (const auto& w : writes) {
      if (w.data.size() > w.range.size) return ErrorCode::kBadArgument;
      ranges.push_back(w.range);
    }
    auto ctxs = lock_all(ranges, consistency::LockMode::kWrite);
    if (!ctxs) return ctxs.error();
    Status s;
    for (std::size_t i = 0; i < writes.size() && s.ok(); ++i) {
      s = write(ctxs.value()[i], 0, writes[i].data);
    }
    for (const auto& ctx : ctxs.value()) unlock(ctx);
    return s;
  }

 private:
  /// The default get_many/put_many's locks: one lock() per range in
  /// ascending base order, the order Node::get_many takes its holds in.
  /// Contexts come back in the caller's order.
  Result<std::vector<consistency::LockContext>> lock_all(
      const std::vector<AddressRange>& ranges, consistency::LockMode mode) {
    if (ranges.empty()) return ErrorCode::kBadArgument;
    std::vector<std::size_t> order(ranges.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ranges[a].base < ranges[b].base;
    });
    for (std::size_t k = 0; k < order.size(); ++k) {
      const AddressRange& r = ranges[order[k]];
      if (r.size == 0) return ErrorCode::kBadArgument;
      // Ranges sharing a 4 KiB block share a page (pages are aligned
      // multiples of 4 KiB): a second write lock on it would wait on the
      // first forever.
      if (k > 0 && !(ranges[order[k - 1]].end().minus(1).page_floor(
                         kDefaultPageSize) <
                     r.base.page_floor(kDefaultPageSize))) {
        return ErrorCode::kBadArgument;
      }
    }
    std::vector<consistency::LockContext> ctxs(ranges.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      auto ctx = lock(ranges[order[k]], mode);
      if (!ctx) {
        for (std::size_t j = 0; j < k; ++j) unlock(ctxs[order[j]]);
        return ctx.error();
      }
      ctxs[order[k]] = ctx.value();
    }
    return ctxs;
  }
};

/// SyncClient over a SimWorld node.
class SimClient final : public SyncClient {
 public:
  SimClient(SimWorld& world, NodeId node) : world_(world), node_(node) {}

  Result<GlobalAddress> reserve(std::uint64_t size,
                                const RegionAttrs& attrs) override {
    return world_.reserve(node_, size, attrs);
  }
  Status unreserve(const GlobalAddress& base) override {
    return world_.unreserve(node_, base);
  }
  Status allocate(const AddressRange& range) override {
    return world_.allocate(node_, range);
  }
  Status deallocate(const AddressRange& range) override {
    return world_.deallocate(node_, range);
  }
  Result<consistency::LockContext> lock(
      const AddressRange& range, consistency::LockMode mode) override {
    return world_.lock(node_, range, mode);
  }
  void unlock(const consistency::LockContext& ctx) override {
    world_.unlock(node_, ctx);
  }
  Result<Bytes> read(const consistency::LockContext& ctx,
                     std::uint64_t offset, std::uint64_t len) override {
    return world_.read(node_, ctx, offset, len);
  }
  Status write(const consistency::LockContext& ctx, std::uint64_t offset,
               std::span<const std::uint8_t> data) override {
    return world_.write(node_, ctx, offset, data);
  }
  Result<RegionAttrs> getattr(const GlobalAddress& base) override {
    return world_.getattr(node_, base);
  }
  Status setattr(const GlobalAddress& base,
                 const RegionAttrs& attrs) override {
    return world_.setattr(node_, base, attrs);
  }
  Result<std::vector<NodeId>> locate(const GlobalAddress& addr) override {
    return world_.locate(node_, addr);
  }
  Result<std::vector<Bytes>> get_many(
      std::vector<AddressRange> ranges) override {
    return world_.get_many(node_, std::move(ranges));
  }
  Status put_many(std::vector<RangeWrite> writes) override {
    return world_.put_many(node_, std::move(writes));
  }
  [[nodiscard]] NodeId node_id() const override { return node_; }

  [[nodiscard]] SimWorld& world() { return world_; }

 private:
  SimWorld& world_;
  NodeId node_;
};

}  // namespace khz::core

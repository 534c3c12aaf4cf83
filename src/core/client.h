// Blocking client interface to Khazana.
//
// "Typically an application process (client) interacts with Khazana through
// library routines" (paper, Section 2). SyncClient is that library surface:
// the full operation suite as plain blocking calls. Two implementations
// exist — SimClient (pumps the discrete-event simulator until the
// operation's callback fires) and TcpClient in tcp_world.h (posts the
// operation to the node's executor and blocks once for its completion;
// get/put run lock + access + unlock there as one hand-off). KFS and the
// object runtime are written against this interface and run unchanged over
// either transport.
#pragma once

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
  [[nodiscard]] NodeId node_id() const override { return node_; }

  [[nodiscard]] SimWorld& world() { return world_; }

 private:
  SimWorld& world_;
  NodeId node_;
};

}  // namespace khz::core

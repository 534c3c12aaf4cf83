#include "consistency/cm.h"

#include "consistency/crew.h"
#include "consistency/eventual.h"
#include "consistency/release.h"

namespace khz::consistency {

obs::MetricsRegistry& CmHost::metrics() {
  static obs::MetricsRegistry fallback;
  return fallback;
}

void CmHost::send_page_batch(NodeId peer, ProtocolId protocol, bool request,
                             Bytes payload) {
  // Default host has no batch channel: drop. Protocols treat batch sends
  // as best-effort and fall back to per-page requests on timeout.
  (void)peer;
  (void)protocol;
  (void)request;
  (void)payload;
}

std::string_view to_string(ProtocolId p) {
  switch (p) {
    case ProtocolId::kCrew: return "crew";
    case ProtocolId::kRelease: return "release";
    case ProtocolId::kEventual: return "eventual";
  }
  return "?";
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

void ProtocolRegistry::register_protocol(ProtocolId id, Factory factory) {
  for (auto& [existing, f] : factories_) {
    if (existing == id) {
      f = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(id, std::move(factory));
}

std::unique_ptr<ConsistencyManager> ProtocolRegistry::create(
    ProtocolId id, CmHost& host) const {
  for (const auto& [existing, f] : factories_) {
    if (existing == id) return f(host);
  }
  return nullptr;
}

bool ProtocolRegistry::known(ProtocolId id) const {
  for (const auto& [existing, _] : factories_) {
    if (existing == id) return true;
  }
  return false;
}

void register_builtin_protocols() {
  auto& r = ProtocolRegistry::instance();
  r.register_protocol(ProtocolId::kCrew, [](CmHost& h) {
    return std::make_unique<CrewManager>(h);
  });
  r.register_protocol(ProtocolId::kRelease, [](CmHost& h) {
    return std::make_unique<ReleaseManager>(h);
  });
  r.register_protocol(ProtocolId::kEventual, [](CmHost& h) {
    return std::make_unique<EventualManager>(h);
  });
}

}  // namespace khz::consistency

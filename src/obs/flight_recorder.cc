#include "obs/flight_recorder.h"

#include <cstdio>

namespace khz::obs {

void OpDossier::encode(Encoder& e) const {
  e.str(op);
  e.u32(node);
  e.u64(trace_id);
  e.u64(static_cast<std::uint64_t>(start));
  e.u64(static_cast<std::uint64_t>(end));
  e.u64(deadline);
  e.u64(rpc_attempts);
  e.u64(rpc_steered);
  e.u64(depth_protocol);
  e.u64(depth_client);
  e.u64(depth_replication);
  e.u32(static_cast<std::uint32_t>(spans.size()));
  for (const Span& s : spans) {
    e.u64(s.trace_id);
    e.u64(s.span_id);
    e.u64(s.parent_id);
    e.u32(s.node);
    e.u64(static_cast<std::uint64_t>(s.start));
    e.u64(static_cast<std::uint64_t>(s.end));
    e.str(s.name);
  }
}

OpDossier OpDossier::decode(Decoder& d) {
  OpDossier out;
  out.op = d.str();
  out.node = d.u32();
  out.trace_id = d.u64();
  out.start = static_cast<Micros>(d.u64());
  out.end = static_cast<Micros>(d.u64());
  out.deadline = d.u64();
  out.rpc_attempts = d.u64();
  out.rpc_steered = d.u64();
  out.depth_protocol = d.u64();
  out.depth_client = d.u64();
  out.depth_replication = d.u64();
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    Span s;
    s.trace_id = d.u64();
    s.span_id = d.u64();
    s.parent_id = d.u64();
    s.node = d.u32();
    s.start = static_cast<Micros>(d.u64());
    s.end = static_cast<Micros>(d.u64());
    s.name = d.str();
    out.spans.push_back(std::move(s));
  }
  return out;
}

namespace {
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += esc;
    } else {
      out += c;
    }
  }
  out += '"';
}
}  // namespace

std::string OpDossier::to_json() const {
  std::string out = "{\"op\":";
  append_json_string(out, op);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"node\":%u,\"trace_id\":%llu,\"start\":%llu,"
                "\"end\":%llu,\"latency_us\":%llu,\"deadline\":%llu,"
                "\"rpc_attempts\":%llu,\"rpc_steered\":%llu,"
                "\"queue_depths\":{\"protocol\":%llu,\"client\":%llu,"
                "\"replication\":%llu},\"spans\":[",
                node, static_cast<unsigned long long>(trace_id),
                static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(end),
                static_cast<unsigned long long>(end - start),
                static_cast<unsigned long long>(deadline),
                static_cast<unsigned long long>(rpc_attempts),
                static_cast<unsigned long long>(rpc_steered),
                static_cast<unsigned long long>(depth_protocol),
                static_cast<unsigned long long>(depth_client),
                static_cast<unsigned long long>(depth_replication));
  out += buf;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"span_id\":%llu,\"parent_id\":%llu,\"node\":%u,"
                  "\"start\":%llu,\"end\":%llu}",
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id), s.node,
                  static_cast<unsigned long long>(s.start),
                  static_cast<unsigned long long>(s.end));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string dossiers_json(const std::vector<OpDossier>& ds) {
  std::string out = "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i != 0) out += ',';
    out += ds[i].to_json();
  }
  out += "]";
  return out;
}

}  // namespace khz::obs

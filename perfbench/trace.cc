#include "trace.h"

#include <cstdio>

namespace khzbench {

std::string chrome_trace_json(const std::vector<const ThreadTrace*>& traces,
                              std::int64_t origin_ns) {
  static constexpr const char* kLayerNames[] = {"op", "kfs", "core"};
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const ThreadTrace* t : traces) {
    for (const Span& s : t->spans()) {
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"op\":%llu}}",
          first ? "" : ",\n", s.name,
          kLayerNames[static_cast<int>(s.layer)],
          static_cast<double>(s.start_ns - origin_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, t->thread(),
          static_cast<unsigned long long>(s.op));
      out += buf;
      first = false;
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace khzbench

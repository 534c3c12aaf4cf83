#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace khz::obs {

std::size_t histogram_bucket(std::uint64_t v) {
  if (v < 2) return 0;
  return static_cast<std::size_t>(std::bit_width(v)) - 1;
}

void Histogram::record(std::uint64_t v) {
  buckets_[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) < rank) continue;
    // Interpolate inside [lo, hi], the value range of bucket i.
    const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << i);
    const double hi = static_cast<double>((1ull << i) * 2 - 1);
    const double frac = (rank - static_cast<double>(prev)) /
                        static_cast<double>(buckets[i]);
    const double v = lo + frac * (hi - lo);
    return std::min(v, static_cast<double>(max));
  }
  return static_cast<double>(max);
}

HistogramSnapshot HistogramSnapshot::diff(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  d.count = count - earlier.count;
  d.sum = sum - earlier.sum;
  d.max = max;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] = buckets[i] - earlier.buckets[i];
  }
  return d;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

void HistogramSnapshot::encode(Encoder& e) const {
  e.u64(count);
  e.u64(sum);
  e.u64(max);
  std::uint8_t nonzero = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] != 0) ++nonzero;
  }
  e.u8(nonzero);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    e.u8(static_cast<std::uint8_t>(i));
    e.u64(buckets[i]);
  }
}

HistogramSnapshot HistogramSnapshot::decode(Decoder& d) {
  HistogramSnapshot s;
  s.count = d.u64();
  s.sum = d.u64();
  s.max = d.u64();
  const std::uint8_t n = d.u8();
  for (std::uint8_t i = 0; i < n && d.ok(); ++i) {
    const std::uint8_t idx = d.u8();
    const std::uint64_t c = d.u64();
    if (idx < kHistogramBuckets) s.buckets[idx] = c;
  }
  return s;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = earlier.counters.find(name);
    d.counters[name] = v - (it == earlier.counters.end() ? 0 : it->second);
  }
  // Gauges are instantaneous levels; "what changed this interval" is the
  // level itself, not a subtraction.
  d.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    auto it = earlier.histograms.find(name);
    d.histograms[name] =
        it == earlier.histograms.end() ? h : h.diff(it->second);
  }
  return d;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

void MetricsSnapshot::encode(Encoder& e) const {
  e.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, v] : counters) {
    e.str(name);
    e.u64(v);
  }
  e.u32(static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [name, v] : gauges) {
    e.str(name);
    e.i64(v);
  }
  e.u32(static_cast<std::uint32_t>(histograms.size()));
  for (const auto& [name, h] : histograms) {
    e.str(name);
    h.encode(e);
  }
}

MetricsSnapshot MetricsSnapshot::decode(Decoder& d) {
  MetricsSnapshot s;
  const std::uint32_t nc = d.u32();
  for (std::uint32_t i = 0; i < nc && d.ok(); ++i) {
    std::string name = d.str();
    s.counters[std::move(name)] = d.u64();
  }
  const std::uint32_t ng = d.u32();
  for (std::uint32_t i = 0; i < ng && d.ok(); ++i) {
    std::string name = d.str();
    s.gauges[std::move(name)] = d.i64();
  }
  const std::uint32_t nh = d.u32();
  for (std::uint32_t i = 0; i < nh && d.ok(); ++i) {
    std::string name = d.str();
    s.histograms[std::move(name)] = HistogramSnapshot::decode(d);
  }
  return s;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  char line[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof(line), "%-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof(line), "%-40s %lld (gauge)\n", name.c_str(),
                  static_cast<long long>(v));
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "%-40s count=%llu mean=%.1f p50=%.0f p95=%.0f p99=%.0f "
                  "max=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(), h.percentile(50), h.percentile(95),
                  h.percentile(99), static_cast<unsigned long long>(h.max));
    out += line;
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

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  char buf[128];
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    std::snprintf(buf, sizeof(buf), ":%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    std::snprintf(buf, sizeof(buf), ":%lld", static_cast<long long>(v));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    std::snprintf(buf, sizeof(buf),
                  ":{\"count\":%llu,\"sum\":%llu,\"max\":%llu,"
                  "\"mean\":%.3f,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.max), h.mean(),
                  h.percentile(50), h.percentile(95), h.percentile(99));
    out += buf;
  }
  out += "}}";
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple())
             .first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::piecewise_construct,
                         std::forward_as_tuple(name),
                         std::forward_as_tuple())
             .first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple())
             .first;
  }
  return it->second;
}

MetricsSnapshot rollup(const std::vector<NodeSnapshot>& nodes) {
  MetricsSnapshot out;
  for (const auto& [id, snap] : nodes) out.merge(snap);
  return out;
}

std::string rollup_json_members(const std::vector<NodeSnapshot>& nodes) {
  std::string out = "\"cluster\":" + rollup(nodes).to_json() + ",\"nodes\":{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + std::to_string(nodes[i].first) +
           "\":" + nodes[i].second.to_json();
  }
  out += '}';
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h.snapshot();
  return s;
}

}  // namespace khz::obs

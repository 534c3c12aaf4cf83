// khzbench: wall-clock benchmark of Khazana over TcpWorld.
//
// One process stands up a 3-node TcpWorld (node 0: genesis, cluster manager
// and home of every region; one lane per node) and drives one of three
// closed-loop workloads (workloads.h) from 4 client threads, 2 on each of
// nodes 1 and 2, through the public SyncClient and kfs::FileSystem APIs.
// Clients wait for every reply, so the loop is closed: a slow system gets
// less load. Every op's result is checked.
//
//   --trace 0  end-to-end metrics. Five deployments are set up in turn
//              (setup_s is the median of their set-up times) and each is
//              measured for a fifth of --seconds, in 250 ms windows. Each
//              deployment's figures are taken over the quarter of its
//              windows in which the host stole the least CPU, pooled: rates
//              over their summed length, percentiles over their raw samples
//              together. Each timing is the median over the deployments.
//   --trace 1  per-layer metrics: one deployment, a phase with the
//              SyncClient timing decorator and kfs spans on, bracketed by
//              counter probes (layers.h) and by two halves of an untraced
//              reference phase; the gap between them is the tracing
//              overhead.
//
// The last line of stdout is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "layers.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace khzbench {
namespace {

namespace fs = std::filesystem;
using khz::core::TcpWorld;

constexpr unsigned kNodes = 3;
constexpr unsigned kLanes = 1;
/// Deployments per untraced run: setup_s is the median of their set-up
/// times, and each is measured for a fifth of the run.
constexpr int kSetups = 5;
/// Measured phases are cut into windows of this length.
constexpr std::chrono::milliseconds kWindow{250};
/// A deployment's timings are taken over the 1 in kQuietShare of its windows
/// in which the host stole the least CPU (rounded up), pooled.
constexpr std::size_t kQuietShare = 4;
/// Host steal above this share of CPU flags the run in its metadata.
constexpr double kStealFlag = 0.10;
/// Empty closures timed through run_on_executor per client node.
constexpr int kHandoffSamples = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test_only = false;
  fs::path out = ".bench_build/perfbench-out";
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "khzbench: %s\n"
               "usage: khzbench --workload <%s> --seed <n> --seconds <n> "
               "--trace <0|1> [--out <dir>] [--source <id>]\n"
               "       khzbench --self-test\n",
               msg, kWorkloadNames);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a.seconds < 1 || a.seconds > 600) usage("--seconds out of range");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--source") {
      a.source = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + k).c_str());
  }
  if (!a.self_test_only && a.workload.empty()) usage("--workload is required");
  return a;
}

// --- process accounting ----------------------------------------------------

struct Usage {
  double cpu_us = 0;
  double nvcsw = 0;
  double nivcsw = 0;
};

/// Process CPU time (all threads, user + system; precise, unlike the
/// tick-sampled rusage times) and context switches.
Usage usage_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ts.tv_sec) * 1e6 +
              static_cast<double>(ts.tv_nsec) / 1e3,
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw)};
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Jiffies of the allowed CPUs from /proc/stat: {steal, total}. Steal is
/// time the hypervisor ran something else while a vCPU wanted to run.
std::pair<double, double> cpu_jiffies(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  double steal = 0, total = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream f(line.substr(3));
    int cpu = -1;
    double v[8] = {};
    f >> cpu;
    for (double& x : v) f >> x;
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
    for (double x : v) total += x;  // guest time is already inside user
    steal += v[7];
  }
  return {steal, total};
}

std::string affinity_list() {
  std::string out;
  for (int c : allowed_cpus()) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

std::string fs_type(const fs::path& p) {
  struct statfs s{};
  if (::statfs(p.c_str(), &s) != 0) return "?";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

// --- logging ---------------------------------------------------------------

/// Captures the program's log lines: ERROR lines fail the run, warnings are
/// counted; every line is still echoed to stderr.
class LogWatch {
 public:
  LogWatch() {
    prev_ = khz::set_log_sink([this](khz::LogLevel l, const std::string& s) {
      std::fprintf(stderr, "%s\n", s.c_str());
      std::lock_guard lk(mu_);
      if (l >= khz::LogLevel::kError) {
        errors_.push_back(s);
      } else if (l == khz::LogLevel::kWarn) {
        ++warnings_;
      }
    });
  }
  ~LogWatch() { khz::set_log_sink(prev_); }
  LogWatch(const LogWatch&) = delete;
  LogWatch& operator=(const LogWatch&) = delete;

  std::vector<std::string> errors() const {
    std::lock_guard lk(mu_);
    return errors_;
  }
  std::uint64_t warnings() const {
    std::lock_guard lk(mu_);
    return warnings_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
  std::uint64_t warnings_ = 0;
  khz::LogSink prev_;
};

// --- deployment ------------------------------------------------------------

/// True when every port in [base, base + n) can be bound on loopback now,
/// so TcpWorld's listeners will not be squatted.
bool ports_free(std::uint16_t base, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (!ok) return false;
  }
  return true;
}

/// A free block of kNodes ports in 20000-29599, below the usual ephemeral
/// range. The first slot tried comes from the pid, so concurrent runs start
/// apart, and each set-up of a run moves one slot on.
std::uint16_t pick_base_port(int attempt) {
  constexpr unsigned kSlots = 600, kSlotPorts = 16;
  const unsigned first = static_cast<unsigned>(::getpid()) + attempt;
  for (unsigned k = 0; k < kSlots; ++k) {
    const auto base =
        static_cast<std::uint16_t>(20000 + (first + k) % kSlots * kSlotPorts);
    if (ports_free(base, kNodes)) return base;
  }
  return 0;
}

/// One deployment: the world, its workers and its data directory, which is
/// removed when the deployment goes away.
struct Deployment {
  fs::path data_root;
  std::uint16_t base_port = 0;
  std::unique_ptr<TcpWorld> world;
  std::vector<std::unique_ptr<Worker>> workers;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    workers.clear();
    world.reset();  // stops every node and joins the transport threads
    if (!data_root.empty()) {
      std::error_code ec;
      fs::remove_all(data_root, ec);
    }
  }
};

/// World start, corpus load and warm-up on all worker threads.
std::unique_ptr<Deployment> set_up(Workload& wl, const fs::path& data_root,
                                   std::uint64_t seed, int attempt,
                                   std::string& err) {
  auto d = std::make_unique<Deployment>();
  khz::core::TcpWorldOptions o;
  o.nodes = kNodes;
  o.lanes = kLanes;
  o.seed = seed;
  o.base_port = pick_base_port(attempt);
  if (o.base_port == 0) {
    err = "no free loopback port block";
    return nullptr;
  }
  std::error_code ec;
  fs::remove_all(data_root, ec);
  o.disk_root = data_root;
  wl.configure(o);
  d->base_port = o.base_port;
  d->data_root = o.disk_root;
  if (!d->data_root.empty()) fs::create_directories(d->data_root);
  d->world = std::make_unique<TcpWorld>(o);
  if (!wl.load(*d->world, err)) return nullptr;
  for (unsigned t = 0; t < kThreads; ++t) {
    d->workers.push_back(
        std::make_unique<Worker>(*d->world, client_node(t), t));
  }
  std::vector<std::string> errs(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { wl.warm(*d->workers[t], errs[t]); });
  }
  for (auto& th : threads) th.join();
  for (const auto& e : errs) {
    if (!e.empty()) {
      err = e;
      return nullptr;
    }
  }
  return d;
}

/// Round trip of an empty closure through run_on_executor on the client
/// nodes: the floor every blocking client call pays.
double handoff_rtt_us_p50(TcpWorld& world) {
  std::vector<std::uint32_t> ns;
  for (khz::NodeId n = 1; n < kNodes; ++n) {
    for (int i = 0; i < kHandoffSamples; ++i) {
      const std::int64_t t0 = now_ns();
      world.transport(n).run_on_executor([] {});
      ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
    }
  }
  return percentile_of(ns, 50) / 1e3;
}

// --- the measured phase ----------------------------------------------------

/// One kWindow slice of the measured phase.
struct Window {
  double seconds = 0;
  double cpu_us = 0;                  // process CPU time
  double steal_frac = 0;              // of the allowed CPUs
  std::vector<std::uint32_t> lat_ns;  // ops that completed in it, sorted
};

/// Figures of a set of windows taken together: rates over their summed
/// length, percentiles by nearest rank over all their raw samples.
struct Pooled {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  std::size_t samples = 0;
};

Pooled pool(const std::vector<Window>& ws, const std::vector<std::size_t>& idx) {
  std::vector<std::uint32_t> lat;
  double seconds = 0, cpu_us = 0;
  for (std::size_t i : idx) {
    lat.insert(lat.end(), ws[i].lat_ns.begin(), ws[i].lat_ns.end());
    seconds += ws[i].seconds;
    cpu_us += ws[i].cpu_us;
  }
  std::sort(lat.begin(), lat.end());
  const double n = static_cast<double>(lat.size());
  return {seconds > 0 ? n / seconds : 0, nearest_rank(lat, 50) / 1e3,
          nearest_rank(lat, 99) / 1e3, n > 0 ? cpu_us / n : 0, lat.size()};
}

struct Phase {
  std::vector<std::uint32_t> lat_ns;  // every op, sorted after the phase
  std::uint64_t attempted = 0;        // ops that completed, counted or not
  std::uint64_t failed = 0;           // returned an error
  std::uint64_t wrong = 0;            // returned a wrong result
  std::uint64_t counted_ops = 0;      // completed before the stop instant
  std::uint64_t rereads = 0;
  std::uint64_t user_bytes = 0;
  double wall_s = 0;
  Usage usage;                        // deltas over the counted window
  double steal_frac = 0;
  std::vector<Window> windows;
  std::string first_error;

  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(counted_ops) / wall_s;
  }
  [[nodiscard]] double p(double pct) const {
    return nearest_rank(lat_ns, pct) / 1e3;
  }

  /// Indices of the 1 in kQuietShare windows (rounded up) in which the
  /// host stole the least CPU. Steal bursts from other tenants of the
  /// machine stall executor and client threads alike, and one stolen vCPU
  /// stalls every op waiting on a thread there; figures pooled over these
  /// windows track the code rather than the neighbours.
  [[nodiscard]] std::vector<std::size_t> quiet_windows() const {
    std::vector<std::size_t> idx(windows.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return windows[a].steal_frac < windows[b].steal_frac;
    });
    idx.resize((idx.size() + kQuietShare - 1) / kQuietShare);
    return idx;
  }
  /// Pools another phase into this one (its windows and samples).
  void absorb(Phase&& o) {
    lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
    std::sort(lat_ns.begin(), lat_ns.end());
    steal_frac = (steal_frac * wall_s + o.steal_frac * o.wall_s) /
                 (wall_s + o.wall_s);
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    counted_ops += o.counted_ops;
    rereads += o.rereads;
    user_bytes += o.user_bytes;
    wall_s += o.wall_s;
    usage = {usage.cpu_us + o.usage.cpu_us, usage.nvcsw + o.usage.nvcsw,
             usage.nivcsw + o.usage.nivcsw};
    std::move(o.windows.begin(), o.windows.end(), std::back_inserter(windows));
    if (first_error.empty()) first_error = std::move(o.first_error);
  }
  /// The quiet windows (quiet_windows()) pooled.
  [[nodiscard]] Pooled quiet() const { return pool(windows, quiet_windows()); }
};

Phase run_phase(Deployment& d, Workload& wl, bool traced, int seconds) {
  Phase ph;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::array<std::atomic<std::uint64_t>, kThreads> done{};
  struct Local {
    std::vector<std::uint32_t> lat;
    std::uint64_t failed = 0, wrong = 0;
  };
  std::vector<Local> local(kThreads);
  for (auto& w : d.workers) {
    w->traced = traced;
    w->rereads = 0;
    w->user_bytes = 0;
    w->first_error.clear();
    if (traced) w->trace = ThreadTrace(w->thread());
  }
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = *d.workers[t];
      Local& l = local[t];
      l.lat.reserve(1u << 20);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::int64_t t0 = now_ns();
        if (traced) w.trace.begin_op((std::uint64_t{t} << 40) | i);
        const Outcome o = wl.op(w);
        const std::int64_t t1 = now_ns();
        if (traced) w.trace.end_op(t0, t1);
        l.lat.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(t1 - t0, UINT32_MAX)));
        if (o == Outcome::kFailed) ++l.failed;
        if (o == Outcome::kWrong) ++l.wrong;
        done[t].store(i + 1, std::memory_order_relaxed);
      }
    });
  }
  // Window boundaries: per-thread op counts, CPU and steal at each tick.
  struct Tick {
    std::chrono::steady_clock::time_point at;
    std::array<std::uint64_t, kThreads> done{};
    Usage usage;
    std::pair<double, double> jiffies;  // {steal, total}
  };
  const std::vector<int> cpus = allowed_cpus();
  auto tick = [&] {
    Tick k;
    k.at = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < kThreads; ++t) {
      k.done[t] = done[t].load(std::memory_order_relaxed);
    }
    k.usage = usage_now();
    k.jiffies = cpu_jiffies(cpus);
    return k;
  };
  auto steal_between = [](const Tick& a, const Tick& b) {
    const double dj = b.jiffies.second - a.jiffies.second;
    return dj > 0 ? (b.jiffies.first - a.jiffies.first) / dj : 0.0;
  };
  std::vector<Tick> ticks;
  go.store(true, std::memory_order_release);
  ticks.push_back(tick());
  const int windows = static_cast<int>(std::chrono::seconds(seconds) / kWindow);
  for (int k = 1; k <= windows; ++k) {
    std::this_thread::sleep_until(ticks.front().at + k * kWindow);
    ticks.push_back(tick());
  }
  stop.store(true);
  for (auto& th : threads) th.join();

  for (std::size_t k = 1; k < ticks.size(); ++k) {
    const Tick& a = ticks[k - 1];
    const Tick& b = ticks[k];
    std::vector<std::uint32_t> lat;
    for (unsigned t = 0; t < kThreads; ++t) {
      lat.insert(lat.end(), local[t].lat.begin() + a.done[t],
                 local[t].lat.begin() + b.done[t]);
    }
    std::sort(lat.begin(), lat.end());
    ph.windows.push_back({std::chrono::duration<double>(b.at - a.at).count(),
                          b.usage.cpu_us - a.usage.cpu_us, steal_between(a, b),
                          std::move(lat)});
  }
  const Tick& first = ticks.front();
  const Tick& last = ticks.back();
  for (unsigned t = 0; t < kThreads; ++t) {
    ph.counted_ops += last.done[t] - first.done[t];
  }
  ph.wall_s = std::chrono::duration<double>(last.at - first.at).count();
  ph.usage = {last.usage.cpu_us - first.usage.cpu_us,
              last.usage.nvcsw - first.usage.nvcsw,
              last.usage.nivcsw - first.usage.nivcsw};
  ph.steal_frac = steal_between(first, last);
  for (unsigned t = 0; t < kThreads; ++t) {
    Local& l = local[t];
    ph.lat_ns.insert(ph.lat_ns.end(), l.lat.begin(), l.lat.end());
    ph.failed += l.failed;
    ph.wrong += l.wrong;
    ph.rereads += d.workers[t]->rereads;
    ph.user_bytes += d.workers[t]->user_bytes;
    if (ph.first_error.empty()) ph.first_error = d.workers[t]->first_error;
  }
  ph.attempted = ph.lat_ns.size();
  std::sort(ph.lat_ns.begin(), ph.lat_ns.end());
  return ph;
}

// --- output ----------------------------------------------------------------

/// Shortest decimal that round-trips the double: every digit as measured.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric the benchmark reports, with its unit; BENCHMARK.json
/// declares the same names.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s"},   {"p50_us", "us"},    {"p99_us", "us"},
    {"cpu_us_per_op", "us"},  {"ok_ratio", "ratio"}, {"setup_s", "s"},
};
constexpr MetricSpec kPerLayer[] = {
    {"kfs.self_us_per_op", "us"},
    {"kfs.core_calls_per_op", "calls/op"},
    {"kfs.rereads_per_op", "reads/op"},
    {"core.lock_us_p50", "us"},
    {"core.read_us_p50", "us"},
    {"core.write_us_p50", "us"},
    {"core.unlock_us_p50", "us"},
    {"core.lock_us_p99", "us"},
    {"core.handoff_rtt_us_p50", "us"},
    {"core.vcsw_per_op", "switches/op"},
    {"core.icsw_per_op", "switches/op"},
    {"core.rpc_attempts_per_op", "rpcs/op"},
    {"core.rpc_steered_per_op", "rpcs/op"},
    {"core.deadline_expired", "count"},
    {"net.msgs_per_op", "msgs/op"},
    {"net.bytes_per_op", "bytes/op"},
    {"net.send_queue_us_mean", "us"},
    {"net.writev_frames_mean", "frames"},
    {"net.connect_failures", "count"},
    {"net.frames_dropped", "count"},
    {"crew.rounds_per_op", "rounds/op"},
    {"crew.round_us_mean", "us"},
    {"location.resolves_per_op", "resolves/op"},
    {"location.region_dir_hits_per_op", "hits/op"},
    {"location.manager_hits_per_op", "hits/op"},
    {"location.map_walks_per_op", "walks/op"},
    {"location.region_dir_evictions_per_op", "evictions/op"},
    {"location.manager_hint_us_mean", "us"},
    {"location.failures", "count"},
    {"storage.ram_hit_ratio", "ratio"},
    {"storage.disk_hits_per_op", "hits/op"},
    {"storage.ram_to_disk_per_op", "pages/op"},
    {"storage.commits_per_op", "commits/op"},
    {"storage.group_commit_pages_mean", "pages"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"storage.disk_bytes_per_live_byte", "ratio"},
    {"host.steal_frac", "ratio"},
    {"trace.p50_ratio", "ratio"},
    {"trace.ops_ratio", "ratio"},
};

template <std::size_t N>
std::string metrics_json(const MetricSpec (&specs)[N], const Metrics& m) {
  std::string o = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = m.find(specs[i].name);
    const double v = it == m.end() ? 0.0 : it->second;
    if (i > 0) o += ", ";
    o.append("\"").append(specs[i].name).append("\": {\"value\": ");
    o.append(num(v)).append(", \"unit\": \"").append(specs[i].unit);
    o.append("\"}");
  }
  return o + "}";
}

template <std::size_t N>
void print_table(const char* title, const MetricSpec (&specs)[N],
                 const Metrics& m) {
  std::printf("%s\n", title);
  for (const MetricSpec& s : specs) {
    const auto it = m.find(s.name);
    std::printf("  %-40s %14.4f %s\n", s.name,
                it == m.end() ? 0.0 : it->second, s.unit);
  }
}

/// Prints a phase's whole-phase figures.
void print_summary(const char* label, const Phase& ph) {
  std::printf(
      "%s: %llu ops in %.3f s (%llu counted), whole phase %.1f ops/s, "
      "latency p50 %.2f us p99 %.2f us max %.2f us over %zu samples; %llu "
      "failed, %llu wrong; steal %.1f%%\n",
      label, static_cast<unsigned long long>(ph.attempted), ph.wall_s,
      static_cast<unsigned long long>(ph.counted_ops), ph.ops_per_s(),
      ph.p(50), ph.p(99), ph.lat_ns.empty() ? 0.0 : ph.lat_ns.back() / 1e3,
      ph.lat_ns.size(), static_cast<unsigned long long>(ph.failed),
      static_cast<unsigned long long>(ph.wrong), 100 * ph.steal_frac);
}

/// Prints a phase's whole-phase figures, one row per window and the quiet
/// windows pooled.
void print_phase(const char* label, const Phase& ph) {
  print_summary(label, ph);
  const auto quiet = ph.quiet_windows();
  std::printf("  %lld ms windows (* = quiet, least steal):\n"
              "       ops/s    p50 us    p99 us cpu us/op steal%%  samples\n",
              static_cast<long long>(kWindow.count()));
  for (std::size_t i = 0; i < ph.windows.size(); ++i) {
    const Pooled w = pool(ph.windows, {i});
    const bool q = std::find(quiet.begin(), quiet.end(), i) != quiet.end();
    std::printf("  %c %9.1f %9.2f %9.2f %9.2f %6.1f %8zu\n", q ? '*' : ' ',
                w.ops_per_s, w.p50_us, w.p99_us, w.cpu_us_per_op,
                100 * ph.windows[i].steal_frac, w.samples);
  }
  const Pooled q = ph.quiet();
  std::printf("  pooled over the %zu quiet windows (%zu samples): %.1f "
              "ops/s, p50 %.2f us, p99 %.2f us, %.2f cpu us/op\n",
              quiet.size(), q.samples, q.ops_per_s, q.p50_us, q.p99_us,
              q.cpu_us_per_op);
}

/// End-to-end metrics of an untraced run: each timing is the median, over
/// the deployments, of that deployment's quiet windows pooled
/// (Phase::quiet); `all` is every deployment's phase together.
Metrics end_to_end(const std::vector<Pooled>& deployments, const Phase& all) {
  auto med = [&](double Pooled::*field) {
    std::vector<double> v;
    for (const Pooled& p : deployments) v.push_back(p.*field);
    return median(v);
  };
  const double n = static_cast<double>(all.attempted);
  return {
      {"ops_per_s", med(&Pooled::ops_per_s)},
      {"p50_us", med(&Pooled::p50_us)},
      {"p99_us", med(&Pooled::p99_us)},
      {"cpu_us_per_op", med(&Pooled::cpu_us_per_op)},
      {"ok_ratio",
       n == 0 ? 0.0
              : (n - static_cast<double>(all.failed + all.wrong)) / n},
  };
}

/// The traced phase's spans and per-call samples, summed over workers.
struct TraceTotals {
  double ops = 0, calls = 0, op_ns = 0, kfs_ns = 0, core_ns = 0;
  std::array<std::vector<std::uint32_t>, kCallKinds> call_ns;  // sorted

  explicit TraceTotals(Deployment& d) {
    for (auto& w : d.workers) {
      ops += static_cast<double>(w->trace.ops());
      calls += static_cast<double>(w->trace.calls());
      op_ns += static_cast<double>(w->trace.op_ns());
      kfs_ns += static_cast<double>(w->trace.kfs_ns());
      core_ns += static_cast<double>(w->trace.core_ns());
      for (std::size_t c = 0; c < kCallKinds; ++c) {
        const auto& v = w->trace.call_ns(static_cast<Call>(c));
        call_ns[c].insert(call_ns[c].end(), v.begin(), v.end());
      }
    }
    for (auto& v : call_ns) std::sort(v.begin(), v.end());
  }
  [[nodiscard]] double call_us(Call c, double p) const {
    return nearest_rank(call_ns[static_cast<std::size_t>(c)], p) / 1e3;
  }
};

/// kfs and core metrics from the decorator's spans and samples.
void trace_metrics(const TraceTotals& t, const Phase& ph, Metrics& m) {
  const double ops = std::max(t.ops, 1.0);
  // Only kfs-webcache has kfs spans; every core call there is inside one.
  m["kfs.self_us_per_op"] = t.kfs_ns > 0 ? (t.kfs_ns - t.core_ns) / ops / 1e3 : 0;
  m["kfs.core_calls_per_op"] = t.calls / ops;
  m["kfs.rereads_per_op"] = static_cast<double>(ph.rereads) / ops;
  m["core.lock_us_p50"] = t.call_us(Call::kLock, 50);
  m["core.read_us_p50"] = t.call_us(Call::kRead, 50);
  m["core.write_us_p50"] = t.call_us(Call::kWrite, 50);
  m["core.unlock_us_p50"] = t.call_us(Call::kUnlock, 50);
  m["core.lock_us_p99"] = t.call_us(Call::kLock, 99);
  const double counted =
      static_cast<double>(std::max<std::uint64_t>(ph.counted_ops, 1));
  m["core.vcsw_per_op"] = ph.usage.nvcsw / counted;
  m["core.icsw_per_op"] = ph.usage.nivcsw / counted;

  std::printf("per-call latency (decorator, nearest rank over raw samples):\n");
  for (std::size_t c = 0; c < kCallKinds; ++c) {
    if (t.call_ns[c].empty()) continue;
    std::printf("  %-7s n=%-9zu p50 %9.2f us  p99 %9.2f us\n", kCallNames[c],
                t.call_ns[c].size(), t.call_us(static_cast<Call>(c), 50),
                t.call_us(static_cast<Call>(c), 99));
  }
}

/// Mean self time per op of each layer in the traced phase. The bench,
/// kfs and core rows come from this process's spans and add up to the op
/// time; the rows under core are what the deeper layers' own histograms
/// recorded (summed over nodes, possibly overlapping each other), and
/// "unattributed" is the part of the core time none of them explains.
void print_self_time_table(const char* workload, const TraceTotals& t,
                           const Probe& before, const Probe& after,
                           double handoff_us) {
  if (t.ops == 0) return;
  const double op_us = t.op_ns / t.ops / 1e3;
  const double core_us = t.core_ns / t.ops / 1e3;
  const double kfs_us = t.kfs_ns > 0 ? t.kfs_ns / t.ops / 1e3 - core_us : 0;
  std::printf("self time per op, %s (mean us over %.0f traced ops):\n",
              workload, t.ops);
  std::printf("  %-36s %10.2f\n", "op (end to end)", op_us);
  std::printf("  %-36s %10.2f\n", "bench harness (op - kfs - core)",
              op_us - kfs_us - core_us);
  std::printf("  %-36s %10.2f\n", "kfs (kfs spans - SyncClient calls)",
              kfs_us);
  std::printf("  %-36s %10.2f  (%.2f calls/op)\n", "core (SyncClient calls)",
              core_us, t.calls / t.ops);
  double attributed = handoff_us * t.calls / t.ops;
  std::printf("    %-34s %10.2f\n", "hand-off floor (calls x rtt p50)",
              attributed);
  for (const auto& [name, us] : deep_layer_us_per_op(before, after, t.ops)) {
    std::printf("    %-34s %10.2f\n", name.c_str(), us);
    attributed += us;
  }
  std::printf("    %-34s %10.2f  (%.1f%% of core)\n", "unattributed",
              core_us - attributed,
              core_us > 0 ? 100 * (core_us - attributed) / core_us : 0.0);
}

/// Output checks on one deployment after its measured phase: the
/// workload's final check (fsck) and the wire's connect failures.
void check_deployment(Deployment& d, Workload& wl,
                      std::vector<std::string>& problems) {
  std::string err;
  if (!wl.final_check(*d.world, err)) problems.push_back(err);
  const auto wire = d.world->total_transport_stats();
  if (wire.connect_failures > 0) {
    problems.push_back(std::to_string(wire.connect_failures) +
                       " TCP connect failures");
  }
}

int run(const Args& args) {
  if (const int bad = self_test(); bad != 0) {
    std::fprintf(stderr, "khzbench: percentile self-test failed (%d)\n", bad);
    return 3;
  }
  if (args.self_test_only) {
    std::printf("khzbench self-test: ok\n");
    return 0;
  }
  auto wl = make_workload(args.workload, args.seed);
  if (!wl) usage(("unknown workload " + args.workload).c_str());

  LogWatch logs;
  std::error_code ec;
  const fs::path out = fs::absolute(args.out);
  fs::create_directories(out, ec);
  const fs::path data_root = out / ("data-" + std::to_string(::getpid()));

  std::printf("khzbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  std::vector<std::string> problems;
  std::vector<double> setup_s;
  std::string data_fs = "none (diskless)";
  std::uint16_t base_port = 0;
  auto deploy = [&](int k) {
    std::string err;
    const std::int64_t t0 = now_ns();
    auto d = set_up(*wl, data_root, args.seed, k, err);
    if (!d) {
      std::fprintf(stderr, "khzbench: set-up failed: %s\n", err.c_str());
      return d;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!d->data_root.empty()) data_fs = fs_type(d->data_root);
    base_port = d->base_port;
    return d;
  };

  Metrics m;
  Phase measured;
  if (!args.trace) {
    // kSetups complete deployments, each set up (timed for setup_s) and
    // then measured for its share of the seconds. The timings are medians
    // over the deployments, so one unlucky deployment or thread placement
    // does not move them.
    std::vector<Pooled> quiet;
    for (int k = 0; k < kSetups; ++k) {
      auto dep = deploy(k);
      if (!dep) return 1;
      const int secs =
          args.seconds / kSetups + (k < args.seconds % kSetups ? 1 : 0);
      if (secs == 0) continue;
      Phase ph = run_phase(*dep, *wl, false, secs);
      print_phase(("deployment " + std::to_string(k + 1)).c_str(), ph);
      check_deployment(*dep, *wl, problems);
      quiet.push_back(ph.quiet());
      measured.absorb(std::move(ph));
    }
    std::printf("setup: %d runs:", kSetups);
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf(" s (median %.3f s)\n", median(setup_s));
    print_summary("all deployments", measured);
    m = end_to_end(quiet, measured);
    m["setup_s"] = median(setup_s);
  } else {
    auto dep = deploy(0);
    if (!dep) return 1;
    const double handoff = handoff_rtt_us_p50(*dep->world);
    // The untraced reference brackets the traced phase (half before, half
    // after), so drift over the run does not read as tracing overhead.
    Phase reference = run_phase(*dep, *wl, false, (args.seconds + 1) / 2);
    const std::int64_t origin = now_ns();
    const Probe before = take_probe(*dep->world, dep->data_root);
    measured = run_phase(*dep, *wl, true, args.seconds);
    const Probe after = take_probe(*dep->world, dep->data_root);
    if (args.seconds > 1) {
      reference.absorb(run_phase(*dep, *wl, false, args.seconds / 2));
    }
    print_phase("untraced reference", reference);
    print_phase("traced", measured);
    m = deep_layer_metrics(
        before, after,
        {static_cast<double>(measured.counted_ops),
         static_cast<double>(measured.user_bytes),
         static_cast<double>(wl->live_bytes())});
    const TraceTotals totals(*dep);
    trace_metrics(totals, measured, m);
    m["core.handoff_rtt_us_p50"] = handoff;
    m["host.steal_frac"] = measured.steal_frac;
    m["trace.p50_ratio"] = measured.quiet().p50_us / reference.quiet().p50_us;
    m["trace.ops_ratio"] =
        reference.quiet().ops_per_s / measured.quiet().ops_per_s;
    std::printf(
        "tracing overhead: p50 x%.3f (traced / untraced), ops/s x%.3f "
        "(untraced / traced)\n",
        m["trace.p50_ratio"], m["trace.ops_ratio"]);
    print_self_time_table(args.workload.c_str(), totals, before, after,
                          handoff);
    std::vector<const ThreadTrace*> traces;
    for (auto& w : dep->workers) traces.push_back(&w->trace);
    const fs::path trace_file =
        out / ("trace-" + args.workload + "-seed" +
               std::to_string(args.seed) + ".json");
    std::ofstream(trace_file) << chrome_trace_json(traces, origin);
    std::printf("chrome trace: %s\n", trace_file.c_str());
    check_deployment(*dep, *wl, problems);
  }

  if (measured.wrong > 0) {
    problems.push_back(std::to_string(measured.wrong) +
                       " ops returned wrong results: " + measured.first_error);
  } else if (measured.failed > 0) {
    std::printf("note: %llu ops failed: %s\n",
                static_cast<unsigned long long>(measured.failed),
                measured.first_error.c_str());
  }
  for (const auto& e : logs.errors()) problems.push_back("ERROR log: " + e);

  const double steal = measured.steal_frac;
  std::printf(
      "meta {\"git_sha\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"cpu_affinity\": \"%s\", \"host_steal_frac\": %s, "
      "\"steal_flag\": %s, \"steal_flag_threshold\": %s, "
      "\"data_fs\": \"%s\", \"flush_policy\": \"%s\", \"nodes\": %u, "
      "\"lanes\": %u, \"client_threads\": %u, \"setups\": %zu, "
      "\"windows\": %zu, \"base_port\": %u, \"log_warnings\": %llu}\n",
      json_escape(args.source).c_str(), KHZ_BENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), affinity_list().c_str(),
      num(steal).c_str(), steal > kStealFlag ? "true" : "false",
      num(kStealFlag).c_str(), data_fs.c_str(),
      json_escape(wl->flush_policy()).c_str(), kNodes, kLanes, kThreads,
      setup_s.size(), measured.windows.size(), base_port,
      static_cast<unsigned long long>(logs.warnings()));
  if (steal > kStealFlag) {
    std::printf("WARNING: host steal %.1f%% exceeds %.0f%%; this run is "
                "flagged\n",
                100 * steal, 100 * kStealFlag);
  }
  if (args.trace) {
    print_table("per-layer metrics:", kPerLayer, m);
  } else {
    print_table("end-to-end metrics:", kEndToEnd, m);
  }
  for (const auto& p : problems) std::printf("FAILED: %s\n", p.c_str());

  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(measured.attempted),
              static_cast<unsigned long long>(measured.failed +
                                              measured.wrong),
              args.trace ? metrics_json(kPerLayer, m).c_str()
                         : metrics_json(kEndToEnd, m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace khzbench

int main(int argc, char** argv) {
  return khzbench::run(khzbench::parse_args(argc, argv));
}

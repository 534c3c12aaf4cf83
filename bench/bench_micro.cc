// MICRO — wall-clock microbenchmarks (google-benchmark) for Khazana's
// local hot paths: these run on the real CPU, unlike the simulation
// experiments, and catch regressions in the data structures every
// operation touches (message codec, wire serialization, the address-map
// tree, the page caches, the region directory).
#include <benchmark/benchmark.h>

#include <tuple>

#include "bench/bench_util.h"
#include "location/address_map.h"
#include "location/region_directory.h"
#include "net/message.h"
#include "storage/memory_store.h"
#include "storage/page_directory.h"

namespace khz {
namespace {

void BM_MessageEncodeDecode(benchmark::State& state) {
  net::Message m;
  m.type = net::MsgType::kPageFetchResp;
  m.src = 1;
  m.dst = 2;
  m.rpc_id = 42;
  m.payload = Bytes(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    const Bytes wire = m.encode();
    net::Message out;
    benchmark::DoNotOptimize(net::Message::decode(wire, out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EncoderPrimitives(benchmark::State& state) {
  for (auto _ : state) {
    Encoder e;
    for (int i = 0; i < 64; ++i) {
      e.u64(static_cast<std::uint64_t>(i));
      e.addr({1, static_cast<std::uint64_t>(i)});
    }
    benchmark::DoNotOptimize(e.data().data());
  }
}
BENCHMARK(BM_EncoderPrimitives);

class BenchMapStore final : public location::MapPageStore {
 public:
  Bytes read_page(std::uint32_t index) override {
    auto it = pages_.find(index);
    return it == pages_.end() ? Bytes(4096, 0) : it->second;
  }
  void write_page(std::uint32_t index, const Bytes& data) override {
    pages_[index] = data;
  }
  [[nodiscard]] std::uint32_t page_size() const override { return 4096; }

 private:
  std::map<std::uint32_t, Bytes> pages_;
};

void BM_AddressMapLookup(benchmark::State& state) {
  BenchMapStore store;
  location::AddressMap::format(store);
  location::AddressMap map(store);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)map.insert({{0, i * 100}, 80}, {1});
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup({0, (probe++ % n) * 100 + 10}));
  }
}
BENCHMARK(BM_AddressMapLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AddressMapInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BenchMapStore store;
    location::AddressMap::format(store);
    location::AddressMap map(store);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < 500; ++i) {
      benchmark::DoNotOptimize(map.insert({{0, i * 100}, 80}, {1}).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_AddressMapInsert);

void BM_MemoryStoreGet(benchmark::State& state) {
  storage::MemoryStore store;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    store.put({0, i * 4096}, Bytes(4096, 1));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get({0, (i++ % 1024) * 4096}));
  }
}
BENCHMARK(BM_MemoryStoreGet);

void BM_PageDirectoryEnsure(benchmark::State& state) {
  storage::PageDirectory pd;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pd.ensure({0, (i++ % 4096) * 4096}));
  }
}
BENCHMARK(BM_PageDirectoryEnsure);

void BM_RegionDirectoryLookup(benchmark::State& state) {
  location::RegionDirectory dir(2048);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    location::RegionDescriptor d;
    d.range = {{0, i << 20}, 1 << 20};
    d.home_nodes = {static_cast<NodeId>(i % 8)};
    dir.insert(d);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.lookup({0, ((i++ % 1024) << 20) + 512}));
  }
}
BENCHMARK(BM_RegionDirectoryLookup);

// End-to-end op latencies over the simulator, read back from the node's own
// op.* histograms (deterministic virtual micros). This is the same registry
// a production node would export, so the section doubles as an integration
// check of the metrics path.
void sim_latency_section(bench::JsonReport& report) {
  constexpr std::uint64_t kPages = 32;
  constexpr int kRounds = 8;

  core::SimWorld world({.nodes = 3});
  auto base = world.create_region(0, kPages * 4096);
  if (!base.ok()) std::abort();
  for (std::uint64_t p = 0; p < kPages; ++p) {
    const AddressRange page{base.value().plus(p * 4096), 4096};
    if (!world.put(0, page, bench::fill(4096, 0xAB)).ok()) std::abort();
  }
  // Node 1 drives a mixed remote/cached workload against node 0's region.
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      const AddressRange page{base.value().plus(p * 4096), 4096};
      if (!world.get(1, page).ok()) std::abort();
      if (p % 4 == 0 &&
          !world.put(1, page, bench::fill(4096, 0x11)).ok()) {
        std::abort();
      }
    }
  }

  const obs::MetricsSnapshot snap = world.node(1).metrics().snapshot();
  std::printf("\nSimulated end-to-end op latencies (node 1, virtual us):\n\n");
  bench::table_header({"op", "count", "p50", "p95", "p99", "max"});
  for (const auto& [label, hist_name, key] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"lock(read)", "op.lock.read_us", "lock"},
           {"lock(write)", "op.lock.write_us", "lock_write"},
           {"read", "op.read_us", "read"},
           {"write", "op.write_us", "write"}}) {
    const auto it = snap.histograms.find(hist_name);
    if (it == snap.histograms.end()) continue;
    const obs::HistogramSnapshot& h = it->second;
    bench::cell(label);
    bench::cell(h.count);
    bench::cell(h.percentile(50));
    bench::cell(h.percentile(95));
    bench::cell(h.percentile(99));
    bench::cell(h.max);
    bench::endrow();
    report.metric(key + "_p50_us", h.percentile(50));
    report.metric(key + "_p95_us", h.percentile(95));
    report.metric(key + "_p99_us", h.percentile(99));
    report.metric(key + "_count", static_cast<double>(h.count));
  }

  // RPC-engine efficiency: attempts per completed op. A healthy LAN run
  // sits near the floor (most ops need no retries); a drift upward means
  // timeouts/steering are burning extra round trips.
  std::uint64_t ops = 0;
  for (const char* name : {"op.lock.read_us", "op.lock.write_us",
                           "op.read_us", "op.write_us"}) {
    const auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) ops += it->second.count;
  }
  const auto attempts_it = snap.counters.find("rpc.attempts");
  const double attempts =
      attempts_it == snap.counters.end()
          ? 0.0
          : static_cast<double>(attempts_it->second);
  if (ops > 0) {
    const double per_op = attempts / static_cast<double>(ops);
    std::printf("\nrpc.attempts per op: %.3f (%.0f attempts / %llu ops)\n",
                per_op, attempts,
                static_cast<unsigned long long>(ops));
    report.metric("rpc_attempts_per_op", per_op);
  }
}

}  // namespace
}  // namespace khz

int main(int argc, char** argv) {
  khz::bench::JsonReport report("micro", argc, argv);
  // google-benchmark rejects flags it does not know, so strip --json
  // before handing argv over.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") continue;
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  khz::sim_latency_section(report);
  return 0;
}

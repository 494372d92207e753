// E4: the paper's single quantitative claim — "the filtering acts as an
// additional step in the build process of a collection extending the
// overall process insignificantly."
//
// Measures collection rebuild time on a solitary server with alerting OFF
// (no extension) vs ON (AlertingService with a population of local
// profiles). Sweeps documents per rebuild and the profile count. Shape
// target: single-digit-percent overhead, sub-linear in profiles thanks to
// the equality-preferred index.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "gsnet/greenstone_server.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "sim/network.h"
#include "workload/generators.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {

// A realistic server: 20 local collections; the profile population
// references ~100 collections across 10 hosts, so only a small share of
// the profiles stored here matches any one rebuild (users watch specific
// collections, mostly elsewhere). This is the regime in which the paper's
// "insignificant overhead" claim is made; the degenerate everyone-watches-
// one-collection case is covered by BM_RebuildAllProfilesMatch.
struct BuildWorld {
  static constexpr int kLocalCollections = 20;

  sim::Network net{99};
  gsnet::GreenstoneServer* server;
  alerting::Client* client;
  alerting::AlertingService* service = nullptr;
  Rng rng{7};
  workload::CollectionGen gen;
  DocumentId next_id = 1;
  int rebuild_round_ = 0;

  explicit BuildWorld(int n_profiles)
      : gen(rng, workload::MetadataSchema::for_host("Hamilton", 7),
            workload::CollectionGenConfig{}) {
    server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
    client = net.make_node<alerting::Client>("user");
    client->set_home(server->id());
    if (n_profiles >= 0) {
      auto ext = std::make_unique<alerting::AlertingService>();
      service = ext.get();
      server->set_extension(std::move(ext));
    }
    net.start();
    net.run();
    std::vector<std::string> hosts{"Hamilton"};
    std::vector<CollectionRef> colls;
    std::vector<workload::MetadataSchema> schemas{gen.schema()};
    for (int c = 0; c < kLocalCollections; ++c) {
      const std::string coll_name = "C" + std::to_string(c);
      server->add_collection(gen.make_config(coll_name),
                             gen.make_data_set(next_id, 50));
      next_id += 50;
      colls.push_back(CollectionRef{"Hamilton", coll_name});
    }
    for (int h = 0; h < 9; ++h) {
      hosts.push_back("Remote" + std::to_string(h));
      schemas.push_back(workload::MetadataSchema::for_host(hosts.back(), 7));
      for (int c = 0; c < 9; ++c) {
        colls.push_back(
            CollectionRef{hosts.back(), "C" + std::to_string(c)});
      }
    }
    // Zipf popularity is by list position; shuffle so Hamilton's own
    // collections are not automatically the hottest in the population.
    std::shuffle(colls.begin(), colls.end(), rng.engine());
    if (service != nullptr) {
      workload::ProfileGen pgen{rng};
      for (int i = 0; i < n_profiles; ++i) {
        auto sub = service->subscribe_local(
            client->id(), pgen.make_profile(hosts, colls, schemas));
        benchmark::DoNotOptimize(sub.ok());
      }
    }
    net.run();
  }

  void rebuild(int docs) {
    const std::string coll =
        "C" + std::to_string(rebuild_round_++ % kLocalCollections);
    const Status s =
        server->rebuild_collection(coll, gen.make_data_set(next_id, docs));
    next_id += static_cast<DocumentId>(docs);
    benchmark::DoNotOptimize(s.is_ok());
  }

  void drain() { net.run(); }

  // The google-benchmark cases drain outside the timer and run thousands
  // of rebuilds; a storing client would keep every notification it ever
  // got (gigabytes at 1000 profiles). The client still acks each digest.
  void discarding_client() {
    client->set_notification_sink(
        [](SubscriptionId, const docmodel::Event&, SimTime) {});
  }
};

void BM_RebuildNoAlerting(benchmark::State& state) {
  BuildWorld world{-1};  // no extension at all
  const int docs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    world.rebuild(docs);
  }
  state.SetItemsProcessed(state.iterations() * docs);
}

void BM_RebuildWithAlerting(benchmark::State& state) {
  BuildWorld world{static_cast<int>(state.range(1))};
  world.discarding_client();
  const int docs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    world.rebuild(docs);
    state.PauseTiming();
    world.drain();  // deliver queued notifications outside the build timer
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * docs);
}

// Worst case: every stored profile watches exactly the collection being
// rebuilt, so the alerting step pays one notification per profile. This
// bounds the overhead from above (cost is the notifications themselves,
// which any alerting service must send).
void BM_RebuildAllProfilesMatch(benchmark::State& state) {
  BuildWorld world{-1};
  world.discarding_client();
  auto ext = std::make_unique<alerting::AlertingService>();
  auto* service = ext.get();
  world.server->set_extension(std::move(ext));
  for (int i = 0; i < state.range(1); ++i) {
    auto sub =
        service->subscribe_local(world.client->id(), "ref = hamilton.c0");
    benchmark::DoNotOptimize(sub.ok());
  }
  const int docs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Status s = world.server->rebuild_collection(
        "C0", world.gen.make_data_set(world.next_id, docs));
    world.next_id += static_cast<DocumentId>(docs);
    benchmark::DoNotOptimize(s.is_ok());
    state.PauseTiming();
    world.drain();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * docs);
}

}  // namespace

BENCHMARK(BM_RebuildNoAlerting)->Arg(20)->Arg(100)->Arg(500);
BENCHMARK(BM_RebuildWithAlerting)
    ->Args({20, 10})
    ->Args({20, 100})
    ->Args({20, 1000})
    ->Args({20, 10000})
    ->Args({100, 100})
    ->Args({100, 1000})
    ->Args({500, 1000});
BENCHMARK(BM_RebuildAllProfilesMatch)->Args({20, 100})->Args({20, 1000});

namespace {

// Canonical BENCH_build_overhead.json with the latency.* schema every
// bench ships (the raw google-benchmark report goes to GBENCH_*.json).
// e2e here is rebuild-and-drain wall time with alerting on; match CPU
// comes from the service's own per-event timer.
void write_canonical_json() {
  obs::MetricsRegistry reg;
  obs::LatencyBreakdown breakdown;
  BuildWorld world{1000};
  constexpr int kRebuilds = 32;
  for (int i = 0; i < kRebuilds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    world.rebuild(20);
    world.drain();
    const auto t1 = std::chrono::steady_clock::now();
    breakdown.e2e_ms.record(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  breakdown.match_cpu_us.merge(world.service->match_cpu_us());
  breakdown.export_to(reg);
  workload::write_bench_json("build_overhead", reg);
}

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// GBENCH_build_overhead.json (the raw google-benchmark report) and
// always writes the canonical BENCH_build_overhead.json afterwards. An
// explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=GBENCH_build_overhead.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_canonical_json();
  return 0;
}

// Subscriber-scale delivery: one alerting server carrying 1M Zipf-skewed
// subscriptions (workload::SubscriptionGen) across ~1k clients, under
// credit-managed delivery with mixed immediate/coalesce/digest policies.
// Two phases: a steady drip of popularity-skewed rebuild events, then a
// rebuild storm over the hottest collections — the case the delivery
// stage exists for (ROADMAP item 2, docs/DELIVERY.md).
//
// Gated against tests/perf_budget.txt:
//   max_notify_body_encodes_per_event  encode-once: one body encode per
//                                      event regardless of fan-out
//   delivery_max_queue_depth           deepest per-client queue over the
//                                      storm (bounded backpressure)
//   delivery_e2e_p99_ms                publish -> client notify p99 over
//                                      every delivered notification
// plus a conservation shape check: every notification the stage counts
// as sent arrives at exactly one client sink (loss-free run, no spills).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "alerting/delivery.h"
#include "common/rng.h"
#include "common/types.h"
#include "docmodel/event.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "sim/network.h"
#include "workload/generators.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {

constexpr std::size_t kCollections = 10'000;
constexpr std::size_t kSubscriptions = 1'000'000;
constexpr std::size_t kClients = 1024;
constexpr int kSteadyEvents = 160;       // one every 50 ms
constexpr int kStormTargets = 3;         // hottest ranks rebuilt in the storm
constexpr int kStormRounds = 8;          // rebuilds per target, 5 ms apart

// Same parser as perf_smoke_test: `key value` lines, `#` comments.
std::map<std::string, std::uint64_t> load_budget(const std::string& path) {
  std::map<std::string, std::uint64_t> budget;
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream row{line};
    std::string key;
    std::uint64_t value = 0;
    if (row >> key >> value) budget[key] = value;
  }
  return budget;
}

bool gate(const char* name, std::uint64_t measured, std::uint64_t ceiling) {
  const bool ok = measured <= ceiling;
  std::printf("gate %-34s %12llu <= %-10llu %s\n", name,
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(ceiling), ok ? "ok" : "BREACH");
  return ok;
}

}  // namespace

int main() {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);

  sim::Network net{42};
  gds::GdsTree tree = gds::build_figure2_tree(net);
  // The default 64 KiB compact threshold would snapshot the full 1M-profile
  // state hundreds of times during subscription load (O(n^2) wall clock);
  // size-triggered compaction is off here — the in-memory log is cheap and
  // this bench measures delivery, not journal compaction (that curve is
  // bench_journal_recovery's job).
  gsnet::ServerConfig server_config;
  server_config.journal.compact_threshold_bytes = 0;
  auto* server =
      net.make_node<gsnet::GreenstoneServer>("Hamilton", server_config);
  alerting::AlertingConfig config;
  config.delivery.credits = 8;
  config.delivery.queue_capacity = 4096;
  config.delivery.default_window = SimTime::millis(100);
  auto service = std::make_unique<alerting::AlertingService>(config);
  alerting::AlertingService* alerting = service.get();
  server->set_extension(std::move(service));
  server->attach_gds(tree.leaf_for(0)->id());

  // Sinks record publish->notify latency per policy class; clients store
  // nothing (the streaming fast path, see Client::set_notification_sink).
  std::vector<SimTime> publish_at;  // event seq -> publish time (seq-1 index)
  obs::LatencyBreakdown breakdown;
  obs::LatencyHistogram immediate_ms;
  obs::LatencyHistogram windowed_ms;
  std::uint64_t received_total = 0;
  std::vector<alerting::Client*> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    auto* client = net.make_node<alerting::Client>("c" + std::to_string(i));
    client->set_home(server->id());
    client->set_notification_sink(
        [&](SubscriptionId sub, const docmodel::Event& event, SimTime at) {
          received_total += 1;
          const std::size_t idx = static_cast<std::size_t>(event.id.seq) - 1;
          if (idx >= publish_at.size()) return;  // not one of ours
          const double ms = (at - publish_at[idx]).as_millis();
          breakdown.e2e_ms.record(ms);
          (sub % 3 == 0 ? immediate_ms : windowed_ms).record(ms);
        });
    clients.push_back(client);
  }
  net.start();
  net.run_until(net.now() + SimTime::seconds(1));

  // 1M Zipf-skewed subscriptions, round-robin across the clients, with
  // the same policy mix chaos runs use: sub % 3 -> immediate / coalesce /
  // periodic digest.
  std::vector<CollectionRef> collections;
  collections.reserve(kCollections);
  for (std::size_t i = 0; i < kCollections; ++i) {
    collections.push_back({"hamilton", "c" + std::to_string(i)});
  }
  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto wall_secs = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_t0)
        .count();
  };
  Rng rng{4242};
  workload::SubscriptionGen gen{rng, collections};
  for (std::size_t i = 0; i < kSubscriptions; ++i) {
    const auto result = alerting->subscribe_local(
        clients[i % kClients]->id(), gen.make_subscription());
    if (!result.ok()) {
      std::fprintf(stderr, "subscribe %zu failed: %s\n", i,
                   result.error().message.c_str());
      return 1;
    }
    const SubscriptionId sub = result.value();
    switch (sub % 3) {
      case 1:
        alerting->set_delivery_policy(
            sub, {alerting::DeliveryMode::kCoalesce, SimTime::millis(100)});
        break;
      case 2:
        alerting->set_delivery_policy(
            sub, {alerting::DeliveryMode::kDigest, SimTime::millis(300)});
        break;
      default:
        break;  // immediate (one digest per event fan-out)
    }
  }

  std::fprintf(stderr, "[delivery_scale] %zu subscriptions loaded (%.1fs)\n",
               kSubscriptions, wall_secs());

  // Publishing: synthetic rebuild events injected through the extension
  // hook, exactly what a collection rebuild emits, minus the build cost.
  std::vector<std::uint64_t> build_version(kCollections, 1);
  std::uint64_t next_seq = 0;
  const auto publish = [&](std::size_t rank) {
    docmodel::Event event;
    event.id = {server->name(), ++next_seq};
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = collections[rank];
    event.physical_origin = collections[rank];
    event.build_version = ++build_version[rank];
    publish_at.push_back(net.now());
    server->extension()->on_local_event(event);
  };

  // Phase 1 — steady drip: Zipf-picked collections, one rebuild / 50 ms.
  const SimTime t0 = net.now();
  Rng pick{777};
  for (int k = 0; k < kSteadyEvents; ++k) {
    net.scheduler().schedule_after(
        t0 + SimTime::millis(50 * static_cast<std::int64_t>(k)) - net.now(),
        [&, k] { publish(pick.zipf(kCollections, 0.7)); });
  }
  // Phase 2 — rebuild storm: the hottest collections rebuilt
  // back-to-back, far faster than any coalesce window.
  const SimTime storm_start =
      t0 + SimTime::millis(50 * static_cast<std::int64_t>(kSteadyEvents)) +
      SimTime::seconds(1);
  for (int round = 0; round < kStormRounds; ++round) {
    for (int target = 0; target < kStormTargets; ++target) {
      const SimTime at = storm_start + SimTime::millis(
          5 * static_cast<std::int64_t>(round * kStormTargets + target));
      net.scheduler().schedule_after(at - net.now(), [&, target] {
        publish(static_cast<std::size_t>(target));
      });
    }
  }
  net.run_until(storm_start + SimTime::millis(200));
  const std::size_t storm_peak_queue = alerting->delivery().queue_depth_max();
  std::fprintf(stderr, "[delivery_scale] storm complete (%.1fs)\n",
               wall_secs());

  // Drain: run until the stage is quiescent (digest windows flushed,
  // channel acks in) or give up loudly.
  SimTime deadline = net.now() + SimTime::seconds(30);
  while (net.now() < deadline &&
         (alerting->delivery().queue_depth_total() > 0 ||
          alerting->delivery().inflight() > 0)) {
    net.run_until(net.now() + SimTime::millis(500));
  }
  const bool drained = alerting->delivery().queue_depth_total() == 0 &&
                       alerting->delivery().inflight() == 0;

  const alerting::DeliveryStats& ds = alerting->delivery().stats();
  const std::uint64_t events = next_seq;
  const bool conserved =
      drained && ds.spilled == 0 &&
      received_total == alerting->stats().notifications_sent;

  workload::print_table_header(
      "delivery scale — 1M Zipf subscriptions, steady drip + rebuild storm",
      "phase           events  notifications  digests  peak_queue");
  char row[160];
  std::snprintf(row, sizeof(row), "%-15s %6llu %14llu %8llu %11llu",
                "steady+storm", static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(received_total),
                static_cast<unsigned long long>(ds.digests_sent),
                static_cast<unsigned long long>(ds.max_queue_depth));
  workload::print_row(row);
  std::printf("  storm peak client queue: %zu   stalls %llu resumes %llu "
              "coalesced %llu enqueued %llu\n",
              storm_peak_queue, static_cast<unsigned long long>(ds.stalls),
              static_cast<unsigned long long>(ds.resumes),
              static_cast<unsigned long long>(ds.coalesced_merges),
              static_cast<unsigned long long>(ds.enqueued));
  std::printf("  e2e %s\n  immediate %s\n  windowed %s\n",
              breakdown.e2e_ms.summary().c_str(),
              immediate_ms.summary().c_str(), windowed_ms.summary().c_str());
  std::printf("  conservation (sent == received, no spills, drained): %s\n",
              conserved ? "yes" : "NO");

  obs::MetricsRegistry reg;
  reg.counter("bench.subscriptions") = kSubscriptions;
  reg.counter("bench.clients") = kClients;
  reg.counter("bench.events_published") = events;
  reg.counter("bench.notifications_received") = received_total;
  reg.counter("bench.notify_body_encodes") =
      alerting->stats().notify_body_encodes;
  reg.counter("bench.conserved") = conserved ? 1 : 0;
  reg.gauge("bench.storm_peak_queue") =
      static_cast<double>(storm_peak_queue);
  reg.gauge("bench.e2e_p99_ms") = breakdown.e2e_ms.p99();
  reg.gauge("bench.immediate_p99_ms") = immediate_ms.p99();
  reg.gauge("bench.windowed_p99_ms") = windowed_ms.p99();
  alerting->collect_metrics(reg);
  breakdown.export_to(reg);
  workload::write_bench_json("delivery_scale", reg);

  bool ok = conserved;
  if (!conserved) std::printf("gate conservation BREACH\n");
  ok &= gate("max_notify_body_encodes_per_event",
             alerting->stats().notify_body_encodes,
             events * budget.at("max_notify_body_encodes_per_event"));
  ok &= gate("delivery_max_queue_depth", ds.max_queue_depth,
             budget.at("delivery_max_queue_depth"));
  ok &= gate("delivery_e2e_p99_ms",
             static_cast<std::uint64_t>(breakdown.e2e_ms.p99()),
             budget.at("delivery_e2e_p99_ms"));
  return ok ? 0 : 1;
}

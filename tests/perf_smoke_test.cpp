// Perf smoke (ctest label `perf`): bounds the per-event copy volume and
// encode-allocation count of the GDS broadcast send path against the
// checked-in budget in tests/perf_budget.txt. This catches regressions
// that reintroduce per-hop payload copies or per-fan-out re-encodes
// without needing the full bench harness: the shared-frame design keeps
// bytes_copied to headers only, so the copied-per-event ceiling is tiny
// compared to the flooded payload volume (which rides in bytes_shared).
// It also gates the delivery stage's journal replay: its cost per record
// must not grow with the number of clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/messages.h"
#include "docmodel/event.h"
#include "gds/gds_client.h"
#include "gds/tree_builder.h"
#include "obs/latency.h"
#include "obs/profiler.h"
#include "profiles/event_context.h"
#include "profiles/index.h"
#include "profiles/parser.h"
#include "sim/network.h"
#include "wire/codec.h"
#include "wire/envelope.h"
#include "workload/scenario.h"

namespace gsalert {
namespace {

// Budget file: `key value` lines, `#` comments. Values are hard ceilings
// (or floors, for min_*) on the measured run. Update deliberately, with
// a bench run justifying the new number, never to quiet a red test.
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

// Minimal registered server: counts kGdsDeliver packets (same shape as
// the bench_fig2_gds_broadcast sweep sink).
class SinkServer : public sim::Node {
 public:
  void attach_gds(NodeId gds) { gds_ = gds; }
  void on_start() override {
    client_.attach(&network(), id(), name(), gds_);
    client_.start();
  }
  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() && env.value().type == wire::MessageType::kGdsDeliver) {
      ++delivered_;
    }
  }
  void on_timer(std::uint64_t token) override {
    if (token == gds::GdsClient::kRefreshTimer) client_.on_refresh_timer();
  }
  void broadcast(std::size_t payload_bytes) {
    client_.broadcast(0x7777,
                      std::vector<std::byte>(payload_bytes, std::byte{0x5A}));
  }
  std::uint64_t delivered() const { return delivered_; }

 private:
  gds::GdsClient client_;
  NodeId gds_;
  std::uint64_t delivered_ = 0;
};

TEST(PerfSmokeTest, BroadcastSendPathStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty())
      << "missing or empty budget file: " << GSALERT_PERF_BUDGET_FILE;
  for (const char* key :
       {"events", "fanout", "payload", "max_bytes_copied_per_event",
        "min_bytes_shared_per_event", "max_writer_grows_per_event",
        "max_reserve_shortfalls", "max_sched_heap_spills"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int events = static_cast<int>(budget.at("events"));
  const int fanout = static_cast<int>(budget.at("fanout"));
  const std::size_t payload = budget.at("payload");

  sim::Network net{7};
  net.set_default_path({.latency = SimTime::millis(5)});
  gds::GdsTree tree = gds::build_tree(net, fanout, 2);
  std::vector<SinkServer*> sinks;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    auto* s = net.make_node<SinkServer>("sink-" + std::to_string(i));
    s->attach_gds(tree.nodes[i]->id());
    sinks.push_back(s);
  }
  net.start();
  net.run_until(SimTime::millis(300));
  net.reset_stats();
  wire::reset_writer_stats();

  for (int i = 0; i < events; ++i) {
    sinks[0]->broadcast(payload);
    net.run_until(net.now() + SimTime::millis(50));
  }

  std::uint64_t delivered = 0;
  for (const SinkServer* s : sinks) delivered += s->delivered();
  // Sanity: the flood actually ran — every sink hears every event.
  ASSERT_GE(delivered,
            static_cast<std::uint64_t>(events) * (sinks.size() - 1));

  const sim::NetStats& ns = net.stats();
  const wire::WriterStats& ws = wire::writer_stats();
  const std::uint64_t copied_per_event =
      ns.bytes_copied / static_cast<std::uint64_t>(events);
  const std::uint64_t shared_per_event =
      ns.bytes_shared / static_cast<std::uint64_t>(events);
  const std::uint64_t grows_per_event =
      ws.grows / static_cast<std::uint64_t>(events);
  std::printf(
      "perf-smoke measured: bytes_copied/event=%llu bytes_shared/event=%llu "
      "writer_grows/event=%llu reserve_shortfalls=%llu\n",
      static_cast<unsigned long long>(copied_per_event),
      static_cast<unsigned long long>(shared_per_event),
      static_cast<unsigned long long>(grows_per_event),
      static_cast<unsigned long long>(ws.reserve_shortfalls));

  EXPECT_LE(copied_per_event, budget.at("max_bytes_copied_per_event"))
      << "send path copies more bytes per event than budgeted — did a "
         "payload copy sneak back into the fan-out?";
  EXPECT_GE(shared_per_event, budget.at("min_bytes_shared_per_event"))
      << "too few bytes ride shared frames — fan-out is no longer "
         "aliasing the encoded body";
  EXPECT_LE(grows_per_event, budget.at("max_writer_grows_per_event"))
      << "encode path allocates more than budgeted per event";
  EXPECT_LE(ws.reserve_shortfalls, budget.at("max_reserve_shortfalls"))
      << "a Writer::reserve() estimate undershot; fix the wire_size "
         "estimate at the encode site";
  EXPECT_LE(net.scheduler().stats().heap_spills,
            budget.at("max_sched_heap_spills"))
      << "a scheduled closure outgrew SmallAction's inline buffer — the "
         "event loop is heap-allocating per event again; shrink the "
         "capture (or justify raising kInlineBytes in small_action.h)";
}

// Filter-matching budget: with heavy predicate sharing, per-event matcher
// work must scale with the number of DISTINCT residual predicates, not
// the number of profiles, and the interned eq index must spend zero
// string hashes inside its probe loop (they all happen once per event in
// EventContext::macro_symbols).
TEST(PerfSmokeTest, FilterMatchingStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key :
       {"match_profiles", "match_dup_pct", "match_events",
        "max_eq_probe_string_hashes", "max_residual_evals_per_event"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int n_profiles = static_cast<int>(budget.at("match_profiles"));
  const int dup_pct = static_cast<int>(budget.at("match_dup_pct"));
  const int n_events = static_cast<int>(budget.at("match_events"));

  // dup_pct% of profiles draw their filter query from this shared pool;
  // the rest are unique. Every profile also carries the same inequality
  // rider, so the residual table is 1 + pool + uniques entries.
  static const std::vector<std::string> pool{
      "text:term1 OR text:term2", "text:term3",
      "title:title-alpha0",       "creator:creator-beta1",
      "text:term5 AND text:term1", "text:term8",
      "title:title-gamma2 OR text:term4", "text:term13"};
  profiles::ProfileIndex index;
  const int unique_every = 100 / (100 - dup_pct);  // deterministic mix
  for (int i = 0; i < n_profiles; ++i) {
    const std::string query = (i % unique_every == 0)
                                  ? "creator:u" + std::to_string(i)
                                  : pool[static_cast<std::size_t>(i) %
                                         pool.size()];
    auto parsed = profiles::parse_profile(
        "host = host0 AND type != collection_deleted AND doc ~ \"" + query +
        "\"");
    ASSERT_TRUE(parsed.ok());
    parsed.value().id = static_cast<profiles::ProfileId>(i + 1);
    ASSERT_TRUE(index.add(std::move(parsed).take()));
  }

  std::uint64_t max_evals = 0, string_hashes = 0, cache_hits = 0;
  for (int e = 0; e < n_events; ++e) {
    docmodel::Event event;
    event.id = {"Host0", static_cast<std::uint64_t>(e + 1)};
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = {"Host0", "C"};
    event.physical_origin = event.collection;
    for (int d = 0; d < 3; ++d) {
      docmodel::Document doc;
      doc.id = static_cast<DocumentId>(e * 3 + d + 1);
      doc.metadata.add("title", "title-alpha" + std::to_string(d));
      doc.metadata.add("creator", "creator-beta" + std::to_string(d));
      doc.terms = {"term" + std::to_string(1 + (e + d) % 16), "term1"};
      event.docs.push_back(std::move(doc));
    }
    const profiles::EventContext ctx = profiles::EventContext::from(event);
    profiles::MatchStats stats;
    (void)index.match(ctx, &stats);
    // Hard layering invariant: memoization caps evals at the number of
    // distinct live residuals, whatever the candidate count.
    ASSERT_LE(stats.residual_evals, stats.distinct_residuals);
    max_evals = std::max(max_evals, stats.residual_evals);
    string_hashes += stats.eq_probe_string_hashes;
    cache_hits += stats.predicate_cache_hits;
  }
  std::printf(
      "perf-smoke matcher: profiles=%d distinct_residuals=%zu "
      "max_residual_evals/event=%llu predicate_cache_hits=%llu "
      "eq_probe_string_hashes=%llu\n",
      n_profiles, index.shared_predicate_count(),
      static_cast<unsigned long long>(max_evals),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(string_hashes));

  EXPECT_LE(string_hashes, budget.at("max_eq_probe_string_hashes"))
      << "the eq probe loop hashed strings — symbol interning is no "
         "longer covering the hot path";
  EXPECT_LE(max_evals, budget.at("max_residual_evals_per_event"))
      << "per-event residual work exceeds the distinct-predicate budget — "
         "did predicate sharing or memoization regress?";
}

// Transport steady-state budget: on a healthy (zero-loss) network the
// retry machinery must stay silent — every request is answered within
// its first RTO and every channel entry acked on the first attempt. A
// nonzero count here means the transport layer burns bandwidth even
// when nothing is wrong (e.g. an RTO tighter than the reply RTT, or an
// ack path that went missing).
TEST(PerfSmokeTest, TransportSteadyStateHasNoRetransmits) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key : {"steady_events", "max_steady_retransmits",
                          "max_steady_timeouts"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int events = static_cast<int>(budget.at("steady_events"));

  workload::ScenarioConfig config;
  config.n_servers = 6;
  config.seed = 11;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.setup_distributed(3);  // exercise aux-profile channels too
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  for (int i = 0; i < events; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(5));

  std::uint64_t retransmits = 0, timeouts = 0, requests = 0, sends = 0;
  for (gsnet::GreenstoneServer* s : scenario.servers()) {
    retransmits += s->endpoint_stats().retransmits +
                   s->gds().endpoint_stats().retransmits;
    timeouts += s->endpoint_stats().timeouts +
                s->gds().endpoint_stats().timeouts;
    requests += s->endpoint_stats().requests +
                s->gds().endpoint_stats().requests;
  }
  for (const alerting::Client* c : scenario.clients()) {
    retransmits += c->endpoint_stats().retransmits;
    timeouts += c->endpoint_stats().timeouts;
    requests += c->endpoint_stats().requests;
  }
  for (const alerting::AlertingService* svc : scenario.gsalert()) {
    retransmits += svc->channel_stats().retransmits;
    sends += svc->channel_stats().sends;
  }
  std::printf(
      "perf-smoke transport: endpoint_requests=%llu channel_sends=%llu "
      "retransmits=%llu timeouts=%llu\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(sends),
      static_cast<unsigned long long>(retransmits),
      static_cast<unsigned long long>(timeouts));
  ASSERT_GT(requests + sends, 0u);  // the transport path actually ran

  EXPECT_LE(retransmits, budget.at("max_steady_retransmits"))
      << "transport retransmits on a zero-loss network — an RTO is "
         "tighter than the reply RTT, or an ack path regressed";
  EXPECT_LE(timeouts, budget.at("max_steady_timeouts"))
      << "transport deadlines expired on a zero-loss network";
}

// End-to-end latency SLO gate (docs/OBSERVABILITY.md "Latency SLOs"):
// the seeded scenario's sim-time publish->notify quantiles are exactly
// reproducible, so the p50/p99 ceilings are hard gates, not noisy
// timing assertions. A breach means the pipeline grew a hop, a retry or
// a batching delay — justify the new number with a bench run before
// raising the ceiling.
TEST(PerfSmokeTest, EndToEndLatencyMeetsSlo) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key : {"slo_events", "slo_e2e_p50_ms", "slo_e2e_p99_ms"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }

  workload::ScenarioConfig config;
  config.n_servers = 6;
  config.seed = 11;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.setup_distributed(3);
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  const int events = static_cast<int>(budget.at("slo_events"));
  for (int i = 0; i < events; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(5));

  const obs::LatencyBreakdown& latency = scenario.outcome().latency;
  std::printf("perf-smoke e2e latency: %s\n",
              latency.e2e_ms.summary().c_str());
  ASSERT_GT(latency.e2e_ms.count(), 0u) << "no notifications measured";
  EXPECT_LE(latency.e2e_ms.p50(),
            static_cast<double>(budget.at("slo_e2e_p50_ms")));
  EXPECT_LE(latency.e2e_ms.p99(),
            static_cast<double>(budget.at("slo_e2e_p99_ms")));
}

// Continuous-profiler overhead gate: with the scoped timers that ride
// every sim dispatch, match and journal commit enabled, the profiler's
// self-measured share of wall time must stay under the budget ceiling
// (<5%), or it is not a "continuous" profiler.
TEST(PerfSmokeTest, ProfilerOverheadStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  ASSERT_TRUE(budget.count("max_profiler_overhead_pct"));

  obs::Profiler profiler;
  profiler.enable();
  {
    workload::ScenarioConfig config;
    config.n_servers = 6;
    config.seed = 11;
    workload::Scenario scenario{config};
    scenario.setup_collections();
    scenario.subscribe_all(2);
    scenario.settle(SimTime::seconds(2));
    for (int i = 0; i < 10; ++i) {
      scenario.publish_random_rebuild(2);
      scenario.settle(SimTime::millis(300));
    }
    scenario.settle(SimTime::seconds(5));
  }
  profiler.disable();

  // The run must have actually exercised the instrumented paths.
  ASSERT_GT(profiler.scopes_entered(), 500u);
  const double pct = profiler.overhead_fraction() * 100.0;
  std::printf(
      "perf-smoke profiler: %llu scopes, %.1fns/scope, overhead %.3f%%\n",
      static_cast<unsigned long long>(profiler.scopes_entered()),
      profiler.per_scope_overhead_ns(), pct);
  EXPECT_LE(pct,
            static_cast<double>(budget.at("max_profiler_overhead_pct")));
}

// Delivery-journal replay gate (docs/DURABILITY.md "Replay cost"): the
// same stream of kJDelivEnq and kJDelivDone records is replayed with its
// entries spread over a few clients and over many. Each done record must
// find its one queue directly, so the many-client replay may cost at most
// a small budgeted multiple of the few-client one; a done record that
// scans every client queue costs a multiple of the client count.
using Records = std::vector<std::pair<std::uint8_t, std::vector<std::byte>>>;

Records delivery_replay_records(std::size_t clients, std::size_t entries) {
  // The delivery stage's journal record types and layouts, as written by
  // src/alerting/delivery.cpp (kJDelivEnq: node, name, one run).
  constexpr std::uint8_t kJDelivEnq = 76;
  constexpr std::uint8_t kJDelivDone = 77;
  // Done records trail their enq by a fixed lag, as flushes trail queueing.
  constexpr std::size_t kLag = 64;
  Records records;
  const auto done = [&](std::uint64_t seq) {
    wire::Writer w;
    w.u64(seq);
    records.emplace_back(kJDelivDone, std::move(w).take());
  };
  for (std::size_t k = 0; k < entries; ++k) {
    const std::size_t client = k % clients;
    docmodel::Event event;
    event.id = {"srv", k + 1};
    event.collection = {"srv", "A"};
    event.build_version = k + 1;
    wire::Writer w;
    w.u32(static_cast<std::uint32_t>(client + 1));
    w.str("client-" + std::to_string(client));
    w.bytes(alerting::encode_event(event));
    w.u32(1);
    w.u64(k + 1);       // entry seq
    w.u64(client + 1);  // subscription
    records.emplace_back(kJDelivEnq, std::move(w).take());
    if (k >= kLag) done(k + 1 - kLag);
  }
  for (std::size_t k = entries > kLag ? entries - kLag : 0; k < entries; ++k) {
    done(k + 1);
  }
  return records;
}

/// Wall seconds to replay `records` into a fresh delivery stage.
double replay_seconds(const Records& records) {
  alerting::AlertingService service;
  alerting::DeliveryStage& stage = service.delivery();
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [type, bytes] : records) {
    wire::Reader r{bytes};
    stage.replay_journal(type, r);
  }
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(stage.queue_depth_total(), 0u);
  return std::chrono::duration<double>(t1 - t0).count();
}

TEST(PerfSmokeTest, DeliveryReplayCostIsIndependentOfClientCount) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key :
       {"replay_entries", "replay_clients_few", "replay_clients_many",
        "max_replay_many_over_few_pct"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const std::size_t entries = budget.at("replay_entries");
  const Records few =
      delivery_replay_records(budget.at("replay_clients_few"), entries);
  const Records many =
      delivery_replay_records(budget.at("replay_clients_many"), entries);
  ASSERT_EQ(few.size(), many.size());
  // Minimum of three interleaved runs per side: host noise only adds time.
  double best_few = 1e9;
  double best_many = 1e9;
  for (int run = 0; run < 3; ++run) {
    best_few = std::min(best_few, replay_seconds(few));
    best_many = std::min(best_many, replay_seconds(many));
  }
  const double pct = 100.0 * best_many / best_few;
  std::printf(
      "perf-smoke delivery replay: %zu records, %llu clients %.2f ms, "
      "%llu clients %.2f ms, ratio %.0f%%\n",
      few.size(),
      static_cast<unsigned long long>(budget.at("replay_clients_few")),
      best_few * 1e3,
      static_cast<unsigned long long>(budget.at("replay_clients_many")),
      best_many * 1e3, pct);
  EXPECT_LE(pct,
            static_cast<double>(budget.at("max_replay_many_over_few_pct")));
}

}  // namespace
}  // namespace gsalert

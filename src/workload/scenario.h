// Scenario: a full simulated world — Greenstone servers with a pluggable
// alerting strategy, a GDS tree (for the real service), clients, generated
// collections and profiles — plus ground-truth accounting so experiments
// can report false positives/negatives and latency, not just traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "baselines/centralized.h"
#include "baselines/gs_flooding.h"
#include "baselines/profile_flooding.h"
#include "baselines/rendezvous.h"
#include "common/rng.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "profiles/profile.h"
#include "sim/network.h"
#include "workload/generators.h"
#include "workload/metrics.h"

namespace gsalert::workload {

enum class Strategy {
  kGsAlert,          // the paper's hybrid service (GDS event flooding)
  kCentralized,      // B1
  kProfileFlooding,  // B2
  kRendezvous,       // B3
  kGsFlooding,       // B4
};

const char* strategy_name(Strategy s);

struct ScenarioConfig {
  Strategy strategy = Strategy::kGsAlert;
  int n_servers = 8;
  int gds_fanout = 3;               // GDS tree shape (kGsAlert)
  int n_rendezvous = 4;             // broker count (kRendezvous)
  int clients_per_server = 1;
  int collections_per_server = 2;
  CollectionGenConfig collection;
  ProfileGenConfig profile;
  /// Per-server alerting service config (kGsAlert): delivery credits,
  /// coalesce windows, event-batch size.
  alerting::AlertingConfig alerting;
  /// Overlay used by the flooding strategies (B2, B4). The real service
  /// ignores it (that is the point: the GS network is too fragmented).
  TopologyGenConfig topology;
  /// When set, used verbatim instead of generating from `topology`
  /// (n_servers must match).
  std::optional<GsTopology> explicit_topology;
  std::uint64_t seed = 1;
  sim::PathConfig path{.latency = SimTime::millis(10)};
  /// WAN topology-zoo name (sim::topology_by_name; docs/TOPOLOGY.md):
  /// empty keeps the uniform default `path`. When set, per-pair
  /// latency/jitter comes from the topology's region matrix instead.
  std::string sim_topology;
  /// Latency-aware adaptive GDS tree (kGsAlert): nodes measure RTT to
  /// their proper ancestors and re-parent, with hysteresis, towards the
  /// closest one. Off = the classic fixed stratum tree.
  bool adaptive_tree = false;
  /// Journal compaction threshold for every durable node (0 = library
  /// default). Small values force frequent compactions mid-run — the
  /// crash-adjacent-to-compaction chaos class.
  std::size_t journal_compact_bytes = 0;
  bool gds_dedup = true;            // ablation switch (E7); also B4 dedup
  bool b2_covering = false;         // ablation switch (E5): B2 merging
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  sim::Network& net() { return net_; }
  const ScenarioConfig& config() const { return config_; }
  std::vector<gsnet::GreenstoneServer*>& servers() { return servers_; }
  std::vector<alerting::Client*>& clients() { return clients_; }
  const gds::GdsTree& gds_tree() const { return gds_tree_; }
  const GsTopology& topology() const { return topology_; }

  /// Strategy-specific extensions (empty unless that strategy is active).
  const std::vector<alerting::AlertingService*>& gsalert() const {
    return gsalert_;
  }
  const std::vector<baselines::ProfileFloodAlerting*>& profile_flood() const {
    return pflood_;
  }
  const std::vector<baselines::GsFloodAlerting*>& gs_flood() const {
    return gsflood_;
  }
  baselines::CentralServer* central() const { return central_; }
  const std::vector<baselines::RendezvousBroker*>& rendezvous_brokers()
      const {
    return rv_brokers_;
  }

  /// Build the initial collections on every server (run before
  /// subscriptions so the setup burst is not part of the measurement).
  void setup_collections();

  /// Turn up to `links` collections into distributed collections by
  /// adding a remote sub-collection link (super on a lower-indexed server
  /// than the sub, so the include graph is acyclic). Ground-truth
  /// accounting then follows the paper's rename cascade: a rebuild of a
  /// sub-collection is also expected — renamed — at every transitive
  /// super. kGsAlert only (baselines don't implement aux profiles).
  void setup_distributed(int links);
  const std::vector<std::pair<CollectionRef, CollectionRef>>&
  distributed_links() const {
    return dist_links_;
  }

  /// Every client subscribes `n` generated profiles; call settle()
  /// afterwards so acks land.
  void subscribe_all(int n);
  /// Subscribe one client with an explicit profile.
  void subscribe(std::size_t client_index, const std::string& text);
  /// Cancel a random active subscription; returns false if none left.
  bool cancel_random();

  /// Rebuild a random collection with `fresh_docs` new documents,
  /// recording the ground-truth expectations for every active profile.
  void publish_random_rebuild(int fresh_docs = 3);
  /// Rebuild a specific collection.
  void publish_rebuild(std::size_t server_index, const std::string& coll,
                       int fresh_docs);

  /// Define the virtual collection `vname` on every server's query
  /// mediator, spanning each server's first collection (Dushay & French
  /// distributed-collection model). Requires setup_collections().
  void setup_virtual_collection(const std::string& vname = "v-union");
  /// Scatter a micro-filter query over virtual collection `vname` from
  /// `origin`'s mediator; `done` fires during a later settle() once every
  /// member answered or its per-peer deadline passed.
  void mediated_query(std::size_t origin, const std::string& vname,
                      const std::string& query_text,
                      std::function<void(gsnet::MediatedQueryResult)> done);

  void settle(SimTime duration);

  /// Compare client notification logs against the recorded expectations.
  /// Also fills Outcome::latency: sim-time stages from the scenario's own
  /// span tracker, wall-clock match CPU / fsync merged from the services.
  Outcome outcome() const;

  /// The span-derived latency tracker armed for this scenario's lifetime.
  const obs::LatencyTracker& latency_tracker() const { return tracker_; }

  /// Export the whole world's counters — network, GDS tree, alerting
  /// services — into `registry` (see docs/OBSERVABILITY.md for names).
  void collect_metrics(obs::MetricsRegistry& registry) const;

  std::uint64_t events_published() const { return events_published_; }

  /// --- invariant-checker surface -----------------------------------------
  /// Tracked subscription state, for checkers that correlate client
  /// notification logs with subscription lifecycles.
  struct SubRecord {
    std::size_t client_index;
    SubscriptionId id;     // 0 if the subscribe ack never arrived
    bool active;
    SimTime cancelled_at;  // meaningful when !active
  };
  std::vector<SubRecord> sub_records() const;

  /// When the rebuild that produced (ref, version) was published (nullopt
  /// for events the scenario never recorded).
  std::optional<SimTime> publish_time(const std::string& ref,
                                      std::uint64_t version) const;

  /// Snapshot of the ground-truth expectation table, so a checker can
  /// scope "every expectation must be met" to work created after a point
  /// in time (e.g. after all faults healed).
  std::unordered_map<std::string, std::uint64_t> expectation_snapshot()
      const {
    return expected_;
  }
  /// False negatives counting only the expectations added beyond
  /// `snapshot` (per-key count deltas).
  std::uint64_t false_negatives_beyond(
      const std::unordered_map<std::string, std::uint64_t>& snapshot) const;
  /// The offending expectation keys behind false_negatives_beyond(),
  /// sorted, as "client#ref#version (want N, got M)" diagnostics.
  std::vector<std::string> missing_keys_beyond(
      const std::unordered_map<std::string, std::uint64_t>& snapshot) const;

 private:
  struct TrackedSub {
    std::size_t client_index;
    std::string text;
    profiles::Profile parsed;
    SubscriptionId id = 0;  // 0 until acked
    bool active = true;
    SimTime cancelled_at;
  };
  struct CollState {
    std::string name;
    std::vector<docmodel::Document> docs;
  };

  void build_world();
  void wire_links();
  std::string host_name(int i) const { return "Host" + std::to_string(i); }

  ScenarioConfig config_;
  Rng rng_;
  // Armed before the world is built so every publish is traced; sink
  // removed in member destruction order (after the world is gone).
  obs::LatencyTracker tracker_;
  obs::ScopedSink tracker_sink_{&tracker_};
  sim::Network net_;
  gds::GdsTree gds_tree_;
  GsTopology topology_;
  std::vector<gsnet::GreenstoneServer*> servers_;
  std::vector<alerting::Client*> clients_;
  std::vector<MetadataSchema> schemas_;
  std::vector<std::unique_ptr<CollectionGen>> collgens_;
  std::vector<std::vector<CollState>> collections_;  // per server

  std::vector<alerting::AlertingService*> gsalert_;
  std::vector<baselines::ProfileFloodAlerting*> pflood_;
  std::vector<baselines::GsFloodAlerting*> gsflood_;
  baselines::CentralServer* central_ = nullptr;
  std::vector<baselines::RendezvousBroker*> rv_brokers_;

  std::vector<TrackedSub> subs_;
  std::vector<std::string> hosts_;
  std::vector<CollectionRef> all_collections_;
  // (super, sub) include links created by setup_distributed.
  std::vector<std::pair<CollectionRef, CollectionRef>> dist_links_;

  // Ground truth: expectation key "client#ref#version" -> count; and the
  // publish time for latency.
  std::unordered_map<std::string, std::uint64_t> expected_;
  std::unordered_map<std::string, SimTime> publish_time_;
  std::uint64_t events_published_ = 0;
  DocumentId next_doc_id_ = 1;
};

}  // namespace gsalert::workload

// A Greenstone Directory Service node (paper §4.1, Figure 2).
//
// GDS nodes form a stratum tree: one primary server on stratum 1, further
// nodes on strata 2+. Each Greenstone server registers with exactly one GDS
// node. The GDS provides, per the paper:
//   - a naming service (resolve a server's network-internal name),
//   - broadcast: "distributed upwards within the tree and downwards to all
//     tree leaves", with duplicate suppression,
//   - multicast to an explicit set of names,
//   - anonymous point-to-point relay ("without the servers having to be
//     aware of the identity of the recipient"),
//   - best-effort delivery.
// Tree maintenance (heartbeats and re-parenting to a configured ancestor
// list) keeps broadcast working across node failures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "gds/messages.h"
#include "journal/journal.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/parking.h"
#include "wire/envelope.h"

namespace gsalert::gds {

struct GdsConfig {
  std::uint16_t stratum = 1;
  /// Heartbeat period towards the parent; also the child-liveness sweep.
  SimTime heartbeat_interval = SimTime::millis(500);
  /// Consecutive unanswered heartbeats before re-parenting.
  int heartbeat_miss_limit = 3;
  /// Duplicate suppression for broadcasts (ablation switch for bench E7).
  bool dedup_enabled = true;
  /// Registrations, routes, children, dedup state and parked custody are
  /// journaled to the node's sim storage; crash-restart replays the
  /// journal. The durable child registry is what lets a restarted parent
  /// keep routing downward without a periodic full-hello refresh (the old
  /// `hello_refresh_every` soft-state patch, found by `chaos_test
  /// --seed=9009`).
  journal::JournalPolicy journal;
  /// Store-and-forward custody for relays whose target is unknown here
  /// (paper §4.1): parked messages wait up to `park_ttl` for the name to
  /// register (or a parent to appear) before expiring; `park_capacity`
  /// bounds memory, evicting oldest-first.
  SimTime park_ttl = SimTime::seconds(10);
  std::size_t park_capacity = 128;
  /// Latency-aware parent selection: measure RTT to proper ancestors
  /// (passively via heartbeat acks for the current parent, with active
  /// kGdsRttProbe round trips for the rest) and re-parent to a markedly
  /// closer ancestor. Off by default so the classic fixed tree — and all
  /// its deterministic message streams — is unchanged unless asked for.
  bool adaptive_parent = false;
  /// Probe one non-parent proper ancestor every Nth heartbeat tick.
  int rtt_probe_every = 1;
  /// EWMA smoothing factor applied to each new RTT sample.
  double rtt_ewma_alpha = 0.3;
  /// Samples required per candidate before its estimate is trusted.
  int rtt_min_samples = 3;
  /// Hysteresis: a candidate must beat the parent's smoothed RTT by this
  /// fraction before an adaptive re-parent fires (jitter never flaps).
  double reparent_improvement = 0.25;
  /// Hysteresis: minimum spacing between adaptive re-parents.
  SimTime reparent_min_interval = SimTime::seconds(5);
};

/// Counters exposed for benches and tests.
struct GdsNodeStats {
  std::uint64_t broadcasts_seen = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t deliveries = 0;       // kGdsDeliver messages to GS servers
  std::uint64_t relays_routed = 0;
  std::uint64_t unroutable = 0;       // relay/multicast target unknown at root
  std::uint64_t reparents = 0;        // failover rotations (parent silent)
  std::uint64_t adaptive_reparents = 0;  // RTT-driven parent switches
  std::uint64_t rtt_probes_sent = 0;
  std::uint64_t rtt_samples = 0;
};

// Note: store-and-forward counters (parked/flushed/expired/evicted) live
// in transport::ParkStats, exposed via GdsServer::park_stats().

class GdsServer : public sim::Node {
 public:
  explicit GdsServer(GdsConfig config) : config_(config) {
    parked_.set_policy({config_.park_ttl, config_.park_capacity});
  }

  /// Wire the tree (done by the builder before Network::start). The
  /// ancestor list is ordered: [parent, grandparent, ..., root]; on parent
  /// failure the node re-parents to the next entry. The first
  /// `proper_count` entries are genuine (strictly lower stratum) ancestors;
  /// anything after — sibling-ring fallbacks — stays failover-only and is
  /// never chosen by RTT-driven adaptive selection (stratum constraint).
  void set_ancestors(std::vector<NodeId> ancestors,
                     std::size_t proper_count = static_cast<std::size_t>(-1));

  /// Merge into another directory tree at runtime: `new_parent` becomes
  /// this node's parent and the whole subtree's names are advertised
  /// there. This is how independently grown GDS networks federate —
  /// the operation the paper notes DHT overlays cannot offer "without
  /// considerable reconstruction" (§2.2). Typically called on the root of
  /// the joining tree.
  void adopt_parent(NodeId new_parent);

  void on_start() override;
  void on_recover() override;
  void on_rejoin() override;
  void on_packet(NodeId from, const sim::Packet& packet) override;
  void on_timer(std::uint64_t token) override;

  /// Observer invoked for every broadcast delivery to a locally registered
  /// server (not relays or multicasts). Invariant checkers use it to
  /// assert exactly-once delivery per (destination, origin, seq).
  using DeliveryObserver = std::function<void(
      const std::string& dst_server, const std::string& origin_server,
      std::uint64_t seq)>;
  void set_delivery_observer(DeliveryObserver observer) {
    delivery_observer_ = std::move(observer);
  }

  std::uint16_t stratum() const { return config_.stratum; }
  NodeId parent() const { return parent_; }
  const GdsNodeStats& stats() const { return stats_; }
  /// Store-and-forward queue depth / counters (transport.park.*).
  std::size_t parked_count() const { return parked_.size(); }
  const transport::ParkStats& park_stats() const { return parked_.stats(); }
  /// Export stats under `gds.*{node=<name>}` (see docs/OBSERVABILITY.md).
  void collect_metrics(obs::MetricsRegistry& registry) const;
  std::size_t registered_count() const { return local_servers_.size(); }
  std::size_t known_names() const { return name_routes_.size(); }
  bool knows_name(const std::string& name) const;
  /// Locally registered server names, sorted (durability checker).
  std::vector<std::string> registered_names() const;
  /// Broadcast dedup state as sorted "origin#seq" keys (durability
  /// checker: this set may only grow across a crash-restart).
  std::vector<std::string> broadcast_seen_keys() const;
  /// The node's journal, once started (tests, metrics).
  const journal::Journal* journal() const { return journal_.get(); }
  /// Smoothed RTT towards `node` in microseconds, or -1 before the first
  /// sample (tests and benches assert adaptation against this).
  double rtt_ewma_micros(NodeId node) const;
  /// Quiesce adaptive control traffic (RTT probes + re-parent decisions)
  /// while keeping the current tree shape. Benches freeze a converged
  /// adaptive tree so the measured window carries the exact same message
  /// mix as a non-adaptive run — data-path cost only.
  void set_adaptive_frozen(bool frozen) { adaptive_frozen_ = frozen; }

 private:
  struct Route {
    bool local = false;
    NodeId via;  // child to forward towards (when !local)
  };

  /// Forward a relay envelope (already trace-restamped by the caller's
  /// scope) towards `dst`: local delivery, a child route, the parent —
  /// or park it with `park_expiry` custody when no hop exists.
  void route_relay(NodeId from, wire::Envelope env, RelayBody body,
                   SimTime park_expiry);
  /// Re-route every parked envelope waiting on `dst` (name registered or
  /// advertised by a child).
  void flush_parked(const std::string& dst);
  /// Re-route the whole parking lot (a parent appeared via re-parent or
  /// adoption — unknown names now have an upward hop).
  void flush_all_parked();

  void handle_register(NodeId from, const wire::Envelope& env);
  void handle_unregister(const wire::Envelope& env);
  void handle_child_hello(NodeId from, const wire::Envelope& env);
  void handle_heartbeat(NodeId from, const wire::Envelope& env);
  void handle_heartbeat_ack(NodeId from, const wire::Envelope& env);
  void handle_rtt_probe(NodeId from, const wire::Envelope& env);
  void handle_rtt_probe_ack(NodeId from, const wire::Envelope& env);
  void handle_broadcast(NodeId from, const wire::Envelope& env);
  void handle_relay(NodeId from, wire::Envelope env);
  void handle_multicast(NodeId from, const wire::Envelope& env);
  void handle_resolve(NodeId from, const wire::Envelope& env);
  void handle_resolve_reply(NodeId from, const wire::Envelope& env);

  /// Deliver an already-encoded BroadcastBody frame to a locally
  /// registered server. The frame is shared (refcounted), not copied, so
  /// fanning a broadcast out to N local servers costs N headers.
  void deliver_frame(NodeId server, wire::Frame body_frame);
  /// Encode-and-deliver convenience for relay/multicast local hits.
  void deliver(NodeId server, const BroadcastBody& body);

  void send_envelope(NodeId to, const wire::Envelope& env);
  void send_child_hello(bool full, std::vector<std::string> adds,
                        std::vector<std::string> removes);
  void advertise_up(std::vector<std::string> adds,
                    std::vector<std::string> removes);
  void reparent();
  /// Send one kGdsRttProbe round-robin over the non-parent proper
  /// ancestors (adaptive mode, every Nth heartbeat tick).
  void probe_ancestor_rtt();
  /// Fold a completed round trip into the per-node EWMA.
  void record_rtt_sample(NodeId from, std::uint64_t msg_id);
  /// Switch to the proper ancestor with the best smoothed RTT when it
  /// beats the parent by the hysteresis margin.
  void maybe_adaptive_reparent();
  void prune_dead_children();
  std::vector<std::string> subtree_names() const;
  bool is_duplicate(const std::string& origin, std::uint64_t seq);

  /// --- durability -------------------------------------------------------
  /// Open the journal over the node's storage and replay it (no-op when
  /// already open).
  void ensure_journal();
  /// Frame-and-append helper; `payload_size` must be an upper bound on
  /// the encoded payload (exact reserves keep Writer grow budgets green).
  template <typename Fn>
  void journal_append(std::uint8_t type, std::size_t payload_size,
                      Fn&& encode) {
    if (!journal_) return;
    wire::Writer w;
    w.reserve(payload_size);
    encode(w);
    journal_->append(type, std::move(w));
  }
  void commit_journal() {
    if (journal_) journal_->commit();
  }
  void encode_snapshot(wire::Writer& w) const;
  void load_snapshot(wire::Reader& r);
  void replay_record(std::uint8_t type, wire::Reader& r);
  /// Ancestor-list mutation shared by adopt_parent and its replay.
  void apply_adopt_ancestors(NodeId new_parent);
  /// Parent-selection mutation shared by reparent paths and their replay:
  /// point at `new_parent` if it is in the ancestor list (no-op otherwise).
  void apply_parent_select(NodeId new_parent);
  /// Wipe in-memory state ahead of journal replay; the ancestor ring
  /// resets to the builder-time list.
  void clear_state();

  GdsConfig config_;
  NodeId parent_;                       // invalid at root
  std::vector<NodeId> ancestors_;
  /// Builder-time ancestor ring (set_ancestors), before runtime
  /// adoptions. Recovery resets to this, then replays adopt records.
  std::vector<NodeId> config_ancestors_;
  /// Stratum-safe re-parent candidates: the genuine ancestors from
  /// set_ancestors plus runtime adoptions; excludes sibling-ring entries.
  std::vector<NodeId> proper_ancestors_;
  std::vector<NodeId> config_proper_ancestors_;
  std::size_t ancestor_index_ = 0;
  int heartbeat_misses_ = 0;
  bool heartbeat_outstanding_ = false;

  /// RTT measurement (adaptive mode only; soft state, re-learned after a
  /// crash — the chosen parent itself is journaled).
  struct RttProbe {
    std::uint64_t msg_id = 0;
    SimTime sent_at{};
  };
  struct RttEstimate {
    double ewma_micros = 0.0;
    std::uint64_t samples = 0;
  };
  std::unordered_map<NodeId, RttProbe> rtt_outstanding_;
  std::unordered_map<NodeId, RttEstimate> rtt_;
  std::uint64_t rtt_probe_tick_ = 0;
  std::size_t rtt_probe_rr_ = 0;
  SimTime last_adaptive_reparent_{};
  bool adaptive_frozen_ = false;

  std::unordered_map<std::string, NodeId> local_servers_;
  std::unordered_map<std::string, Route> name_routes_;
  std::unordered_map<NodeId, SimTime> children_;  // child -> last heartbeat

  // Duplicate suppression for broadcast/multicast: origin -> seen seqs.
  std::unordered_map<std::string, std::unordered_set<std::uint64_t>> seen_;

  // Resolve back-paths: (origin server name, query id) -> previous hop.
  std::unordered_map<std::string, NodeId> resolve_backpaths_;

  std::uint64_t next_msg_id_ = 1;
  transport::ParkingLot parked_;
  std::unique_ptr<journal::Journal> journal_;
  GdsNodeStats stats_;
  DeliveryObserver delivery_observer_;
};

}  // namespace gsalert::gds

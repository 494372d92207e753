// The Greenstone Alerting Service — the paper's core contribution
// (§4.2): hybrid alerting combining
//   (1) event flooding over the GDS tree for federated collections —
//       profiles stay at the server where the user subscribed; events
//       travel to every server and are filtered locally (no dangling
//       profiles, robust to GS-network fragmentation), and
//   (2) auxiliary-profile forwarding over the GS network for distributed
//       collections — the super-collection's host installs an auxiliary
//       profile at the sub-collection's host; matching events are
//       forwarded back, renamed to the super-collection, and re-broadcast.
//
// Reliability: event floods are best-effort, but the aux-profile and
// event-forward messages between the two hosts of a distributed collection
// are queued in a per-destination outbox and retried until acknowledged,
// implementing §7's "delayed, not lost" recovery argument. Matched
// notifications ride the same kind of acknowledged channel to each client
// (the delivery stage). An immediate hit waits for credit and is never
// dropped; only windowed (coalesce/digest) entries beyond a client's
// queue capacity spill.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alerting/delivery.h"
#include "alerting/messages.h"
#include "common/types.h"
#include "gsnet/greenstone_server.h"
#include "gsnet/server_extension.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "profiles/index.h"
#include "profiles/parser.h"
#include "transport/channel.h"

namespace gsalert::alerting {

struct AlertingConfig {
  /// Initial retransmit interval for unacknowledged aux-profile /
  /// event-forward messages; the transport channel backs it off (×1.5,
  /// capped at 1.5× this value) with deterministic downward jitter so
  /// co-parked senders desynchronize after a partition heals.
  SimTime retry_interval = SimTime::seconds(1);
  /// Events raised by one collection (re)build coalesce into a single
  /// kEventBatch flood, flushed once the batch holds this many events or
  /// at build completion. Flushing is synchronous — no timer, so a crash
  /// opens no loss window.
  std::size_t max_batch_events = 16;
  /// Per-subscriber delivery stage between match and wire (credits,
  /// coalescing, digests — see src/alerting/delivery.h).
  DeliveryConfig delivery;
};

/// Counters for experiments and tests.
struct AlertingStats {
  std::uint64_t events_published = 0;     // local events broadcast via GDS
  std::uint64_t events_received = 0;      // events seen (local + GDS)
  std::uint64_t duplicate_events = 0;     // suppressed by the event id cache
  std::uint64_t notifications_sent = 0;
  std::uint64_t notify_body_encodes = 0;  // one per event with >= 1 hit
  std::uint64_t filter_matches = 0;       // profile hits across all events
  std::uint64_t aux_forwards = 0;         // events forwarded sub -> super
  std::uint64_t renames = 0;              // events renamed at a super host
  std::uint64_t rename_loops_cut = 0;
  std::uint64_t retries = 0;              // outbox resends
  std::uint64_t batches_sent = 0;         // kEventBatch floods (2+ events)
  std::uint64_t batched_events = 0;       // events shipped inside batches
};

class AlertingService : public gsnet::ServerExtension {
 public:
  explicit AlertingService(AlertingConfig config = {}) : config_(config) {
    delivery_.configure(config_.delivery);
  }

  // --- direct (in-process) subscription API, used by local tooling ------
  /// Subscribe a client node with a profile; returns the subscription id.
  Result<SubscriptionId> subscribe_local(NodeId client,
                                         const std::string& profile_text);
  Status cancel_local(SubscriptionId id);

  std::size_t subscription_count() const { return subs_.size(); }
  const AlertingStats& stats() const { return stats_; }
  /// Matcher instrumentation accumulated across every filtered event
  /// (eq probes, predicate/query cache hits, residual evaluations).
  const profiles::MatchStats& match_stats() const { return match_stats_; }
  /// Wall-clock microseconds spent in index_.match per filtered event.
  /// Deliberately NOT part of collect_metrics (seed-replay snapshots must
  /// stay byte-identical); workload::Scenario merges it into the
  /// Outcome's LatencyBreakdown instead.
  const obs::LatencyHistogram& match_cpu_us() const { return match_cpu_us_; }
  const profiles::ProfileIndex& index() const { return index_; }
  /// Export stats under `alerting.*{server=<name>}` plus gauges for the
  /// live subscription/outbox sizes (see docs/OBSERVABILITY.md).
  void collect_metrics(obs::MetricsRegistry& registry) const;

  /// Auxiliary profiles registered here by remote super-collection hosts
  /// (sub name -> supers). Exposed for tests/benches.
  std::vector<CollectionRef> aux_profiles_for(const std::string& sub) const;
  /// Unacknowledged reliable messages across all peer channels — aux /
  /// forward traffic plus delivery digests (invariant checkers
  /// assert it drains after a heal).
  std::size_t outbox_size() const {
    return channels_.unacked_total() + delivery_.inflight();
  }

  /// The per-subscriber delivery stage (policies, queues, credits).
  DeliveryStage& delivery() { return delivery_; }
  const DeliveryStage& delivery() const { return delivery_; }
  /// Set one subscription's delivery policy (journaled; local API — the
  /// subscribing server is the user's single access point).
  void set_delivery_policy(SubscriptionId sub, DeliveryPolicy policy) {
    delivery_.set_policy(sub, policy);
  }
  /// Notifications accepted by the delivery stage but not yet on a
  /// client, as "client#sub#origin#seq" keys (crash-durability check).
  std::vector<std::string> pending_delivery_keys() const {
    return delivery_.pending_keys();
  }
  /// --- durable-state views (crash-durability checker) -------------------
  /// Live subscription ids, sorted. Across a crash-restart this set may
  /// only shrink by explicit cancellations.
  std::vector<SubscriptionId> subscription_ids() const;
  /// Event-dedup state as sorted "origin#seq" keys; grows monotonically
  /// across crash-restarts under honest fsync.
  std::vector<std::string> seen_event_keys() const;
  /// Rename-dedup keys for processed EventForwards, sorted; also
  /// monotone across crash-restarts.
  std::vector<std::string> processed_forward_keys() const;
  const transport::ChannelStats& channel_stats() const {
    return channels_.stats();
  }

  /// Observer invoked for every notification this service sends to a
  /// client (invariant checkers correlate them with cancellations and
  /// ground-truth expectations).
  using NotificationObserver = std::function<void(
      NodeId client, SubscriptionId sub, const docmodel::Event& event)>;
  void set_notification_observer(NotificationObserver observer) {
    notification_observer_ = std::move(observer);
  }

  // --- durability / migration -------------------------------------------------
  /// Serialize the profile database (subscriptions + auxiliary-profile
  /// registries) — what real Greenstone keeps on disk. Restoring the
  /// snapshot into a service on another server migrates the users'
  /// profiles there, supporting the paper's "unified single access point"
  /// requirement (challenge 3) when users move between installations.
  std::vector<std::byte> snapshot_state() const;
  Status restore_state(const std::vector<std::byte>& snapshot);

  // --- gsnet::ServerExtension -------------------------------------------------
  void attach(gsnet::GreenstoneServer& server) override;
  bool handle_envelope(NodeId from, const wire::Envelope& env) override;
  void on_gds_message(const std::string& origin_server,
                      std::uint16_t payload_type,
                      std::span<const std::byte> payload) override;
  void on_local_event(const docmodel::Event& event) override;
  void on_build_begin() override;
  void on_build_complete() override;
  void on_collection_configured(const docmodel::Collection& coll) override;
  void on_collection_removed(const CollectionRef& ref) override;
  void on_started() override;
  void on_restarted() override;
  void on_timer_token(std::uint64_t token) override;
  void on_recovered() override;
  void encode_durable(wire::Writer& w) const override;
  void recover_durable(wire::Reader& r) override;
  bool replay_journal(std::uint8_t type, wire::Reader& r) override;

 private:
  friend class DeliveryStage;  // wire, journal, stats, observer access

  struct Subscription {
    NodeId client;
    std::string profile_text;
  };

  /// Filter an event against local profiles and notify matching clients.
  void filter_and_notify(const docmodel::Event& event);
  /// Forward the event to every super-collection host whose auxiliary
  /// profile matches its physical collection.
  void forward_to_supers(const docmodel::Event& event);
  /// Broadcast the event to all servers through the GDS. During a build
  /// the event joins the pending batch; otherwise it is flushed
  /// immediately.
  void publish(const docmodel::Event& event);
  /// Send the pending batch: a single event goes out as a plain
  /// kEventAnnounce under its original trace context, several as one
  /// kEventBatch flood.
  void flush_batch();
  /// Handle an event that arrived via GDS flooding (plain or batched):
  /// dedup, count, filter against local profiles.
  void receive_flooded_event(const docmodel::Event& event);
  /// Process an event that this server is seeing for the first time
  /// (local build or arriving forward), end to end.
  void process_event(const docmodel::Event& event, bool broadcast);

  void handle_subscribe(NodeId from, const wire::Envelope& env);
  void handle_cancel(const wire::Envelope& env);
  /// Channel ingress for reliable messages (aux add/remove, forward):
  /// ack the arrival, then apply whatever the channel releases in order.
  void receive_channel_data(NodeId from, const wire::Envelope& env);
  void apply_aux_add(const wire::Envelope& env);
  void apply_aux_remove(const wire::Envelope& env);
  void apply_event_forward(const wire::Envelope& env);
  void handle_ack(const wire::Envelope& env);

  /// Acknowledge `env` back to its sender: directly when we saw the
  /// sender's node, else anonymously by name through the GDS relay.
  void send_ack(NodeId from, const wire::Envelope& env,
                wire::MessageType type);
  /// Hand an envelope to the peer's reliable channel (retransmitted with
  /// backoff until the matching ack arrives).
  void send_reliable(const std::string& host, wire::Envelope env);
  /// One delivery attempt: direct host reference if known, otherwise the
  /// anonymous GDS point-to-point relay (paper §6).
  void attempt_delivery(const std::string& host, const wire::Envelope& env);
  /// Bind the channel set to the network (idempotent; send_reliable may
  /// run before on_started when collections are wired up early).
  void ensure_channels();

  /// Sync aux_out_ for one collection against its current remote subs.
  void sync_aux_profiles(const docmodel::Collection& coll);

  /// Append one record (types 64..74) to the owning server's journal.
  /// No-op before the service is attached to a server; `payload_size`
  /// must upper-bound the encoded payload (exact reserves keep the
  /// Writer grow budget green).
  template <typename Fn>
  void journal_append(std::uint8_t type, std::size_t payload_size,
                      Fn&& encode) {
    journal::Journal* j = server_ ? server_->journal() : nullptr;
    if (!j) return;
    wire::Writer w;
    w.reserve(payload_size);
    encode(w);
    j->append(type, std::move(w));
  }
  /// Journal the full replacement value of aux_out_[coll].
  void journal_aux_out(const std::string& coll);
  /// Install or re-parse one subscription during recovery/replay.
  void restore_subscription(SubscriptionId id, NodeId client,
                            std::string text);

  AlertingConfig config_;
  profiles::ProfileIndex index_;
  std::map<SubscriptionId, Subscription> subs_;
  SubscriptionId next_sub_ = 1;

  // Downstream side: sub-collection name -> super-collections observing it.
  std::map<std::string, std::set<CollectionRef>> aux_in_;
  // Upstream side: local super-collection name -> remote subs registered.
  std::map<std::string, std::set<CollectionRef>> aux_out_;

  // Reliable delivery: one seq/ack/retransmit channel per peer host.
  transport::ChannelSet channels_;

  // Per-subscriber delivery stage (declared after config_ so the ctor
  // can feed it config_.delivery).
  DeliveryStage delivery_{*this};

  // Events published during the current build, waiting to be flushed as
  // one batch. Each entry remembers the trace context that was active at
  // publish time so receivers can attribute deliveries per event.
  struct PendingEvent {
    obs::TraceContext ctx;
    std::vector<std::byte> bytes;  // encode_event() payload
  };
  std::vector<PendingEvent> batch_;
  int build_depth_ = 0;

  std::unordered_set<docmodel::EventId> seen_events_;
  // (event id, super) pairs already renamed here — quenches duplicate
  // EventForward retransmissions.
  std::unordered_set<std::string> processed_forwards_;
  // (client, request msg_id) -> subscription already created, so a
  // duplicated Subscribe packet re-acks instead of double-subscribing.
  std::map<std::pair<std::uint32_t, std::uint64_t>, SubscriptionId>
      sub_requests_;
  AlertingStats stats_;
  profiles::MatchStats match_stats_;
  obs::LatencyHistogram match_cpu_us_;
  NotificationObserver notification_observer_;
};

}  // namespace gsalert::alerting

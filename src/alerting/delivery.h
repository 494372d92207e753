// Per-subscriber delivery stage between match and wire (ROADMAP item 2).
// Matching is fast; this layer makes the *send* side survive
// subscriber-scale fan-out:
//
//   encode once   the event body is encoded into one refcounted
//                 wire::Frame by filter_and_notify and aliased across
//                 every matching subscriber — N matches cost one body
//                 encode (gated at 1/event in tests/perf_budget.txt).
//   backpressure  every notification rides a per-client reliable
//                 transport::ChannelSet as a kNotificationDigest: the
//                 immediate hits of one event for one client leave
//                 together as one digest. A client with `credits` unacked
//                 digests stalls its queue, and acks resume it once the
//                 window drains to the low watermark (hysteresis).
//   coalescing    per-subscription policy: immediate, coalesce-window
//                 (burst + duplicate merge), or periodic digest. Queued
//                 notifications for one client flush as a single digest.
//   one payload per event  a digest carries each event's bytes once with
//                 the subscriptions it matched, and a fan-out's queued
//                 hits journal as one record, so N matches of one event
//                 copy, CRC and journal the payload once, not N times.
//   bounded queues  beyond `queue_capacity` the oldest windowed
//                 (coalesce/digest) entry spills. Immediate hits never
//                 spill: they wait for credit, however many there are.
//
// Durability mirrors the channel outbox: queued entries journal
// enq/done records (types 75..81), snapshots carry the live queues and
// the digest channel, and pending_keys() exposes everything accepted
// but not yet on a client for the chaos crash-durability superset check.
// Replay costs O(1) per record whatever the number of clients: while
// recovering, an entry-seq index finds the one queue a done record
// touches.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "docmodel/event.h"
#include "transport/channel.h"
#include "wire/envelope.h"

namespace gsalert::alerting {

class AlertingService;

enum class DeliveryMode : std::uint8_t {
  kImmediate = 0,  // sent with the event's fan-out, as soon as credit allows
  kCoalesce = 1,   // hold `window` after the first hit, merge duplicates
  kDigest = 2,     // periodic digest: one message per client per window
};

struct DeliveryPolicy {
  DeliveryMode mode = DeliveryMode::kImmediate;
  /// Coalesce window / digest period. zero() = the stage's default.
  SimTime window = SimTime::zero();
};

struct DeliveryConfig {
  /// Max unacked digests per client before its queue stalls; must be
  /// positive (configure() rejects 0).
  std::size_t credits = 8;
  /// A stalled client resumes once unacked <= low_watermark
  /// (0 = credits / 2).
  std::size_t low_watermark = 0;
  /// Per-client queue bound; beyond it the oldest coalesce/digest entry
  /// spills. Immediate entries never spill (the credit stall bounds
  /// them), so a queue of only immediate entries may exceed it.
  std::size_t queue_capacity = 1024;
  /// Window for policies that leave DeliveryPolicy::window at zero.
  SimTime default_window = SimTime::millis(100);
  /// Initial retransmit interval of the digest channel.
  SimTime retry_interval = SimTime::seconds(1);
};

struct DeliveryStats {
  std::uint64_t enqueued = 0;           // entries queued (coalesce/digest/stall)
  std::uint64_t sent_immediate = 0;     // hits delivered without windowing
  std::uint64_t digests_sent = 0;       // kNotificationDigest messages
  std::uint64_t digest_notifications = 0;  // entries shipped inside digests
  std::uint64_t coalesced_merges = 0;   // duplicate (sub, event) merged away
  std::uint64_t spilled = 0;            // windowed entries dropped at capacity
  std::uint64_t stalls = 0;             // queue paused on exhausted credits
  std::uint64_t resumes = 0;            // queue resumed at the low watermark
  std::uint64_t max_queue_depth = 0;    // deepest any client queue ever got
};

/// One AlertingService's delivery stage. The service owns it, feeds it
/// match hits, and forwards timers / acks / journal records; the stage
/// reaches back through its owner (friend) for the wire, the journal,
/// and the notification observer.
class DeliveryStage {
 public:
  /// Timer tokens (bits 58/59; ChannelSet default is 60, Endpoint 61).
  static constexpr std::uint64_t kChannelToken = 1ULL << 58;
  static constexpr std::uint64_t kFlushToken = 1ULL << 59;

  explicit DeliveryStage(AlertingService& owner) : owner_(owner) {}

  /// Throws std::invalid_argument when config.credits is 0.
  void configure(const DeliveryConfig& config);
  const DeliveryConfig& config() const { return config_; }
  /// Bind the digest channel + timers to the owner's network (idempotent;
  /// the service calls this from its own ensure_channels).
  void ensure_attached();

  /// Set (and journal) one subscription's delivery policy. Immediate
  /// policies are the default and need no entry.
  void set_policy(SubscriptionId sub, DeliveryPolicy policy);
  DeliveryPolicy policy_for(SubscriptionId sub) const;

  /// One matching subscription of one client.
  struct Hit {
    NodeId client;
    SubscriptionId sub = 0;
  };
  /// Every hit of one event. `event` is shared across the fan-out for
  /// observers; `bytes` is the encode-once event payload frame.
  void offer(const std::shared_ptr<const docmodel::Event>& event,
             const wire::Frame& bytes, const std::vector<Hit>& hits);

  /// Flush-timer + digest-channel timer dispatch; false when not ours.
  bool on_timer(std::uint64_t token);
  /// kNotificationAck from a client (peer = client node name).
  void on_ack(const std::string& peer, std::uint64_t seq);
  /// Re-arm timers after a node restart.
  void on_restart();
  /// Drop queued entries for a cancelled subscription of `client` (only
  /// that client's queue can hold them). Deliberately not journaled:
  /// replaying the cancellation record re-drops them.
  void drop_subscription(SubscriptionId sub, NodeId client);

  std::size_t queue_depth_total() const;
  /// Current deepest per-client queue (the perf_budget bound).
  std::size_t queue_depth_max() const;
  /// Unacked digests on the delivery channel.
  std::size_t inflight() const { return channel_.unacked_total(); }
  const DeliveryStats& stats() const { return stats_; }
  const transport::ChannelStats& channel_stats() const {
    return channel_.stats();
  }

  /// "client#sub#origin#seq" keys for every notification accepted but not
  /// yet on a client: queued entries plus unacked digest envelopes.
  /// Sorted and deduplicated (crash-durability superset check).
  std::vector<std::string> pending_keys() const;

  // --- durability (driven by AlertingService's extension hooks) ---------
  void clear();
  void encode_state(wire::Writer& w) const;
  void decode_state(wire::Reader& r);
  bool replay_journal(std::uint8_t type, wire::Reader& r);

 private:
  struct QueueEntry {
    std::uint64_t seq = 0;  // server-wide entry id (journal enq/done key)
    SubscriptionId sub = 0;
    docmodel::EventId event_id;
    std::shared_ptr<const docmodel::Event> event;  // for the observer
    wire::Frame bytes;                             // encode_event() payload
    DeliveryMode mode = DeliveryMode::kImmediate;
  };
  struct ClientQueue {
    NodeId node;
    std::string name;
    std::deque<QueueEntry> entries;  // ascending QueueEntry::seq
    SimTime flush_due = SimTime::zero();
    bool flush_armed = false;
    bool stalled = false;  // waiting for the credit window to drain
  };

  ClientQueue& queue_for(NodeId client);
  SimTime window_of(const DeliveryPolicy& policy) const;
  std::size_t low_watermark() const;
  bool credit_available(const ClientQueue& q) const;
  /// Journal and queue `entries`, hits of one event (one kJDelivEnq run).
  void enqueue(ClientQueue& q, std::vector<QueueEntry> entries);
  /// Drop the oldest windowed entry of `q`, if it has one.
  void spill_one(ClientQueue& q);
  /// Pause `q` until its credit window drains (counted once per stall).
  void stall(ClientQueue& q);
  /// Encode `batch` as one kNotificationDigest and hand it to the
  /// client's reliable channel.
  void ship(ClientQueue& q, const std::vector<const QueueEntry*>& batch);
  /// Ship every queued entry of `q` as one digest (credit permitting).
  void flush(ClientQueue& q);
  void arm_flush(ClientQueue& q, SimTime due);
  void arm_timer(SimTime due);
  SimTime earliest_flush() const;
  std::uint64_t alloc_digest_seq();
  static void write_run(wire::Writer& w, std::span<const std::byte> payload,
                        std::span<const QueueEntry* const> run);
  void journal_enqueued(const ClientQueue& q,
                        const std::vector<QueueEntry>& entries);
  void journal_done(std::uint64_t entry_seq);
  void note_sent(const ClientQueue& q, const QueueEntry& entry);
  /// Queue one run (see write_run) read from a journal record or snapshot.
  void restore_run(NodeId node, const std::string& name, wire::Reader& r);

  AlertingService& owner_;
  DeliveryConfig config_;
  std::unordered_map<SubscriptionId, DeliveryPolicy> policies_;
  std::map<std::string, ClientQueue> queues_;  // keyed by client node name
  /// Entry seq -> the queue holding it, for the entries restored since
  /// the last clear(). Only journal replay reads it (a done record names
  /// just the seq); on_restart() drops it once recovery is over.
  std::unordered_map<std::uint64_t, ClientQueue*> replay_index_;
  transport::ChannelSet channel_;              // reliable digest delivery
  std::uint64_t next_entry_seq_ = 1;
  std::uint64_t digest_seq_ = 0;
  bool timer_armed_ = false;
  SimTime timer_target_ = SimTime::zero();
  DeliveryStats stats_;
};

}  // namespace gsalert::alerting

// Per-peer reliable channel: seq/ack/retransmit with a receiver-side
// dedup window and in-order delivery. Subsumes the alerting service's
// hand-rolled outbox (paper §7: aux-profile installs and EventForwards
// must be "delayed, not lost" across partitions and crashes).
//
// Wire mapping: a channel message is an ordinary wire::Envelope whose
// `msg_id` carries the per-peer sequence number and whose `chan_base`
// header field carries the sender's lowest-unacked sequence. The
// receiver derives its dedup floor from `chan_base` (floor = base - 1),
// so first contact never mistakes a retransmitted-but-unseen sequence
// for a duplicate. Acks echo the sequence in `msg_id` and are matched by
// (peer name, seq). Retransmits re-stamp headers only; the body frame
// is aliased across attempts (zero-copy).
//
// Durability: channel state mirrors the outbox it replaces. Owners
// journal it through the persist hooks (one record per send / ack /
// floor advance, full state in snapshots via encode_state) and rebuild
// it on recovery with clear_peers() + the restore_* calls; a set without
// hooks keeps its member state across restarts and only re-arms the
// retry timer. The receiver-side reorder buffer is
// deliberately volatile: a crash drops it, the sender's retransmits
// re-fill it, and the floor keeps redelivery duplicate-free.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "transport/policy.h"
#include "wire/envelope.h"

namespace gsalert::transport {

struct ChannelStats {
  std::uint64_t sends = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acked = 0;
  std::uint64_t dup_drops = 0;        // receiver: already-delivered seq
  std::uint64_t reorder_buffered = 0; // receiver: held for a gap
  std::uint64_t reorder_overflows = 0;  // buffer cap hit: delivered out of order
  std::uint64_t delivered = 0;        // handed to the owner, in order
};

/// All reliable channels of one node, keyed by peer name. One retry
/// timer serves every channel; per-entry deadlines follow the
/// ChannelPolicy's backoff + deterministic jitter so co-parked senders
/// desynchronize after a partition heals.
class ChannelSet {
 public:
  /// Timer token (bit 60; distinct from Endpoint's bit 61).
  static constexpr std::uint64_t kTimerToken = 1ULL << 60;
  /// Cap on out-of-order envelopes buffered per peer before the channel
  /// gives up on ordering and flushes (loss still prevented).
  static constexpr std::size_t kReorderCap = 64;

  /// Transmit hook: how a stamped envelope reaches `peer` (direct send
  /// or GDS relay — the channel does not route).
  using TransmitFn =
      std::function<void(const std::string& peer, const wire::Envelope&)>;
  /// Observer fired once per retransmit (stats bridges, tests).
  using RetransmitHook =
      std::function<void(const std::string& peer, const wire::Envelope&)>;

  void attach(sim::Network* net, NodeId self, std::string self_name,
              TransmitFn transmit, std::uint64_t jitter_seed);
  bool attached() const { return net_ != nullptr; }
  void set_policy(const ChannelPolicy& policy) { policy_ = policy; }
  /// Override the retry-timer token (default kTimerToken). Needed when a
  /// node owns more than one ChannelSet: each must dispatch its own
  /// timer. Set before the first send().
  void set_timer_token(std::uint64_t token) { timer_token_ = token; }
  void set_retransmit_hook(RetransmitHook hook) {
    retransmit_hook_ = std::move(hook);
  }

  /// Durability taps: fired at every durable-state mutation so the owner
  /// can journal it. on_send sees the envelope with its seq stamped;
  /// on_floor fires once per on_data() that advanced the floor.
  struct PersistHooks {
    std::function<void(const std::string& peer, std::uint64_t seq,
                       const wire::Envelope& env)>
        on_send;
    std::function<void(const std::string& peer, std::uint64_t seq)> on_acked;
    std::function<void(const std::string& peer, std::uint64_t floor)> on_floor;
  };
  void set_persist_hooks(PersistHooks hooks) { persist_ = std::move(hooks); }

  /// --- Recovery (journal replay) ---------------------------------------
  /// Drop all per-peer state; replay rebuilds it from the records below.
  void clear_peers() { peers_.clear(); }
  /// Re-insert an unacked send with its original seq (due/rto reset to
  /// the policy's initial values; call after attach()).
  void restore_unacked(const std::string& peer, std::uint64_t seq,
                       wire::Envelope env);
  /// Re-apply an ack / raise a receiver floor from the journal.
  void restore_ack(const std::string& peer, std::uint64_t seq);
  void restore_floor(const std::string& peer, std::uint64_t floor);
  /// Full durable state (sender seqs + unacked envelopes + receiver
  /// floors; no reorder buffer) for journal snapshots.
  void encode_state(wire::Writer& w) const;
  void decode_state(wire::Reader& r);

  /// Stamp (seq, chan_base) onto `env`, store it for retransmission and
  /// transmit. Returns the assigned sequence number.
  std::uint64_t send(const std::string& peer, wire::Envelope env);

  /// Process an ack for (peer, seq). Returns false for unknown seqs
  /// (duplicate acks after delivery — harmless).
  bool on_ack(const std::string& peer, std::uint64_t seq);

  struct Incoming {
    bool duplicate = false;  // seq was already delivered or buffered
    /// Envelopes now deliverable in order (possibly several, when this
    /// arrival plugs a gap). Each keeps its original trace stamps.
    std::vector<wire::Envelope> deliver;
  };
  /// Process incoming channel data (peer = env.src). The caller must
  /// ack `env.msg_id` to the peer regardless of `duplicate`.
  Incoming on_data(const wire::Envelope& env);

  /// Handle a timer token; false when not ours.
  bool on_timer(std::uint64_t token);

  /// Re-arm the retry timer after a node restart (state is durable,
  /// pre-crash timers are gone).
  void on_restart();

  std::size_t unacked_total() const;
  /// Outstanding (sent, unacked) count toward one peer — the delivery
  /// stage's in-flight credit usage.
  std::size_t unacked_to(const std::string& peer) const;
  /// Visit every unacked envelope (recovery audits, pending-state
  /// snapshots). Order: peer name, then seq.
  void for_each_unacked(
      const std::function<void(const std::string& peer, std::uint64_t seq,
                               const wire::Envelope& env)>& fn) const;
  const ChannelStats& stats() const { return stats_; }

 private:
  struct Unacked {
    wire::Envelope env;
    SimTime due;        // next retransmit time
    SimTime rto;        // current backoff interval
    SimTime first_sent; // original transmit time; retry spans report
                        // since_ms = now - first_sent (retransmit delay)
  };
  struct PeerState {
    std::uint64_t next_seq = 1;              // sender side
    std::map<std::uint64_t, Unacked> unacked;
    std::uint64_t floor = 0;                 // receiver: delivered through
    std::map<std::uint64_t, wire::Envelope> reorder;
  };

  Incoming on_data_apply(PeerState& state, const wire::Envelope& env);
  void stamp_and_transmit(const std::string& peer, PeerState& state,
                          std::uint64_t seq, Unacked& entry);
  void arm(SimTime due);
  SimTime earliest_due() const;

  sim::Network* net_ = nullptr;
  NodeId self_;
  std::string self_name_;
  TransmitFn transmit_;
  RetransmitHook retransmit_hook_;
  PersistHooks persist_;
  ChannelPolicy policy_;
  Rng rng_{0};
  std::map<std::string, PeerState> peers_;
  std::uint64_t timer_token_ = kTimerToken;
  bool armed_ = false;
  SimTime timer_target_;
  ChannelStats stats_;
};

}  // namespace gsalert::transport

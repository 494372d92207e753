#include "alerting/delivery.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "alerting/alerting_service.h"
#include "obs/trace.h"

namespace gsalert::alerting {

namespace {
// Journal record types (64..254 are extension records; 64..74 belong to
// AlertingService itself — see docs/DURABILITY.md).
constexpr std::uint8_t kJDelivPolicy = 75;  // sub u64, mode u8, window u64
constexpr std::uint8_t kJDelivEnq = 76;  // node u32, name str, run
constexpr std::uint8_t kJDelivDone = 77;   // seq u64 (sent or spilled)
constexpr std::uint8_t kJDChanSend = 78;   // peer str, seq u64, env bytes
constexpr std::uint8_t kJDChanAck = 79;    // peer str, seq u64
constexpr std::uint8_t kJDChanFloor = 80;  // peer str, floor u64
constexpr std::uint8_t kJDigestSeq = 81;   // seq u64

std::size_t str_wire(const std::string& s) { return 4 + s.size(); }

std::string pending_key(NodeId client, SubscriptionId sub,
                        const docmodel::EventId& id) {
  return std::to_string(client.value()) + "#" + std::to_string(sub) + "#" +
         id.str();
}

// A run is one event payload followed by the (entry seq, sub) pairs of
// the queue entries that share it: payload bytes, u32 n, n x (u64, u64).
// kJDelivEnq records and snapshot queues both store runs, so a payload
// is written once per run, not once per subscription.
std::size_t run_wire(std::size_t payload, std::size_t n) {
  return 4 + payload + 4 + 16 * n;
}
}  // namespace

void DeliveryStage::configure(const DeliveryConfig& config) {
  if (config.credits == 0) {
    throw std::invalid_argument("DeliveryConfig::credits must be positive");
  }
  config_ = config;
}

std::size_t DeliveryStage::low_watermark() const {
  if (config_.low_watermark > 0) return config_.low_watermark;
  return config_.credits / 2;
}

SimTime DeliveryStage::window_of(const DeliveryPolicy& policy) const {
  return policy.window.as_micros() > 0 ? policy.window
                                       : config_.default_window;
}

void DeliveryStage::ensure_attached() {
  if (channel_.attached() || owner_.server_ == nullptr) return;
  gsnet::GreenstoneServer* server = owner_.server_;
  channel_.set_timer_token(kChannelToken);
  channel_.set_policy(transport::ChannelPolicy{
      .initial_rto = config_.retry_interval,
      .backoff = 1.5,
      .max_rto = SimTime::micros(config_.retry_interval.as_micros() * 3 / 2),
      .jitter = 0.25});
  channel_.set_persist_hooks(transport::ChannelSet::PersistHooks{
      .on_send =
          [this](const std::string& peer, std::uint64_t seq,
                 const wire::Envelope& env) {
            const std::vector<std::byte> flat = env.flatten();
            owner_.journal_append(kJDChanSend,
                                  str_wire(peer) + 8 + 4 + flat.size(),
                                  [&](wire::Writer& w) {
                                    w.str(peer);
                                    w.u64(seq);
                                    w.bytes(flat);
                                  });
          },
      .on_acked =
          [this](const std::string& peer, std::uint64_t seq) {
            owner_.journal_append(kJDChanAck, str_wire(peer) + 8,
                                  [&](wire::Writer& w) {
                                    w.str(peer);
                                    w.u64(seq);
                                  });
          },
      .on_floor =
          [this](const std::string& peer, std::uint64_t floor) {
            owner_.journal_append(kJDChanFloor, str_wire(peer) + 8,
                                  [&](wire::Writer& w) {
                                    w.str(peer);
                                    w.u64(floor);
                                  });
          }});
  channel_.attach(
      &server->net(), server->id(), server->name(),
      [this](const std::string& peer, const wire::Envelope& env) {
        const auto it = queues_.find(peer);
        const NodeId dest = it != queues_.end()
                                ? it->second.node
                                : owner_.server_->net().find_node(peer);
        if (dest.valid()) owner_.server_->send_to(dest, env);
      },
      0xDE11FE27ULL ^ server->id().value());
}

DeliveryStage::ClientQueue& DeliveryStage::queue_for(NodeId client) {
  const sim::Node* node = owner_.server_->net().node(client);
  const std::string& name = node->name();
  ClientQueue& q = queues_[name];
  q.node = client;
  if (q.name.empty()) q.name = name;
  return q;
}

void DeliveryStage::set_policy(SubscriptionId sub, DeliveryPolicy policy) {
  policies_[sub] = policy;
  owner_.journal_append(kJDelivPolicy, 8 + 1 + 8, [&](wire::Writer& w) {
    w.u64(sub);
    w.u8(static_cast<std::uint8_t>(policy.mode));
    w.u64(static_cast<std::uint64_t>(policy.window.as_micros()));
  });
  if (owner_.server_ != nullptr) owner_.server_->commit_journal();
}

DeliveryPolicy DeliveryStage::policy_for(SubscriptionId sub) const {
  const auto it = policies_.find(sub);
  return it == policies_.end() ? DeliveryPolicy{} : it->second;
}

std::uint64_t DeliveryStage::alloc_digest_seq() {
  digest_seq_ += 1;
  owner_.journal_append(kJDigestSeq, 8,
                        [&](wire::Writer& w) { w.u64(digest_seq_); });
  return digest_seq_;
}

void DeliveryStage::note_sent(const ClientQueue& q, const QueueEntry& entry) {
  if (owner_.notification_observer_ && entry.event) {
    owner_.notification_observer_(q.node, entry.sub, *entry.event);
  }
  owner_.stats_.notifications_sent += 1;
}

bool DeliveryStage::credit_available(const ClientQueue& q) const {
  return channel_.unacked_to(q.name) < config_.credits;
}

void DeliveryStage::offer(const std::shared_ptr<const docmodel::Event>& event,
                          const wire::Frame& bytes,
                          const std::vector<Hit>& hits) {
  ensure_attached();
  // Group the hits per client, in first-hit order.
  std::vector<std::pair<NodeId, std::vector<SubscriptionId>>> per_client;
  std::unordered_map<std::uint32_t, std::size_t> slot;
  for (const Hit& hit : hits) {
    const auto [it, fresh] =
        slot.try_emplace(hit.client.value(), per_client.size());
    if (fresh) per_client.push_back({hit.client, {}});
    per_client[it->second].second.push_back(hit.sub);
  }
  const SimTime now = owner_.server_->net().now();
  for (const auto& [client, subs] : per_client) {
    ClientQueue& q = queue_for(client);
    // One credit carries every immediate hit of this event for the client.
    const bool ready = !q.stalled && credit_available(q);
    std::vector<QueueEntry> send_now;
    std::vector<QueueEntry> wait;
    bool immediate_waits = false;
    bool windowed = false;
    SimTime due = SimTime::zero();
    for (SubscriptionId sub : subs) {
      const DeliveryPolicy policy = policy_for(sub);
      QueueEntry entry;
      entry.sub = sub;
      entry.event_id = event->id;
      entry.event = event;
      entry.bytes = bytes;
      entry.mode = policy.mode;
      if (policy.mode == DeliveryMode::kImmediate) {
        immediate_waits = immediate_waits || !ready;
        (ready ? send_now : wait).push_back(std::move(entry));
        continue;
      }
      const bool merged = std::any_of(
          q.entries.begin(), q.entries.end(), [&](const QueueEntry& e) {
            return e.mode != DeliveryMode::kImmediate && e.sub == sub &&
                   e.event_id == event->id;
          });
      if (merged) {
        stats_.coalesced_merges += 1;
        continue;
      }
      const SimTime entry_due = now + window_of(policy);
      if (!windowed || entry_due < due) due = entry_due;
      windowed = true;
      wait.push_back(std::move(entry));
    }
    if (!send_now.empty()) {
      std::vector<const QueueEntry*> batch;
      batch.reserve(send_now.size());
      for (const QueueEntry& e : send_now) batch.push_back(&e);
      ship(q, batch);
      for (const QueueEntry& e : send_now) note_sent(q, e);
      stats_.sent_immediate += send_now.size();
    }
    if (immediate_waits) stall(q);
    if (!wait.empty()) enqueue(q, std::move(wait));
    if (windowed) arm_flush(q, due);
  }
}

void DeliveryStage::enqueue(ClientQueue& q, std::vector<QueueEntry> entries) {
  for (QueueEntry& e : entries) e.seq = next_entry_seq_++;
  journal_enqueued(q, entries);
  for (QueueEntry& e : entries) {
    if (config_.queue_capacity > 0 &&
        q.entries.size() >= config_.queue_capacity) {
      spill_one(q);
    }
    q.entries.push_back(std::move(e));
  }
  stats_.enqueued += entries.size();
  stats_.max_queue_depth =
      std::max<std::uint64_t>(stats_.max_queue_depth, q.entries.size());
}

void DeliveryStage::stall(ClientQueue& q) {
  if (q.stalled) return;
  q.stalled = true;
  stats_.stalls += 1;
  if (obs::active()) {
    obs::emit_span("delivery-stall", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"unacked", std::to_string(channel_.unacked_to(q.name))}});
  }
}

void DeliveryStage::spill_one(ClientQueue& q) {
  // Only windowed entries spill. An immediate hit waits for credit and is
  // never dropped, so a queue of immediate hits grows past the capacity.
  const auto victim = std::find_if(q.entries.begin(), q.entries.end(),
                                   [](const QueueEntry& e) {
                                     return e.mode != DeliveryMode::kImmediate;
                                   });
  if (victim == q.entries.end()) return;
  if (obs::active()) {
    obs::emit_span("delivery-spill", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"sub", std::to_string(victim->sub)},
                    {"event", victim->event_id.str()}});
  }
  journal_done(victim->seq);
  q.entries.erase(victim);
  stats_.spilled += 1;
}

void DeliveryStage::ship(ClientQueue& q,
                         const std::vector<const QueueEntry*>& batch) {
  NotificationDigestBody body;
  body.digest_seq = alloc_digest_seq();
  // One digest entry per event: its payload once, then its subscriptions.
  std::map<docmodel::EventId, std::size_t> slot;
  for (const QueueEntry* e : batch) {
    const auto [it, fresh] = slot.try_emplace(e->event_id, body.entries.size());
    if (fresh) {
      const std::span<const std::byte> sp = e->bytes.span();
      body.entries.push_back(NotificationDigestBody::Entry{
          {}, std::vector<std::byte>(sp.begin(), sp.end())});
    }
    body.entries[it->second].subscription_ids.push_back(e->sub);
  }
  wire::Writer w;
  body.encode(w);
  wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotificationDigest,
                          owner_.server_->name(), "", 0, std::move(w));
  if (obs::active()) {
    obs::emit_span("delivery-flush", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"entries", std::to_string(batch.size())},
                    {"digest", std::to_string(body.digest_seq)}});
  }
  channel_.send(q.name, std::move(env));
  stats_.digests_sent += 1;
  stats_.digest_notifications += batch.size();
}

void DeliveryStage::flush(ClientQueue& q) {
  q.flush_armed = false;
  if (q.entries.empty()) {
    q.stalled = false;
    return;
  }
  if (!credit_available(q)) {
    stall(q);
    return;
  }
  if (q.stalled) {
    q.stalled = false;
    stats_.resumes += 1;
    if (obs::active()) {
      obs::emit_span("delivery-resume", owner_.server_->name(),
                     owner_.server_->net().now(),
                     {{"client", q.name},
                      {"entries", std::to_string(q.entries.size())}});
    }
  }
  std::vector<const QueueEntry*> batch;
  batch.reserve(q.entries.size());
  for (const QueueEntry& e : q.entries) batch.push_back(&e);
  ship(q, batch);
  for (const QueueEntry& e : q.entries) {
    note_sent(q, e);
    journal_done(e.seq);
  }
  q.entries.clear();
}

void DeliveryStage::arm_flush(ClientQueue& q, SimTime due) {
  if (!q.flush_armed || due < q.flush_due) {
    q.flush_armed = true;
    q.flush_due = due;
    arm_timer(due);
  }
}

void DeliveryStage::arm_timer(SimTime due) {
  if (timer_armed_ && timer_target_ <= due) return;
  timer_armed_ = true;
  timer_target_ = due;
  const SimTime now = owner_.server_->net().now();
  const SimTime delay = due > now ? due - now : SimTime::micros(1);
  owner_.server_->net().set_timer(owner_.server_->id(), delay, kFlushToken);
}

SimTime DeliveryStage::earliest_flush() const {
  SimTime best = SimTime::micros(-1);
  for (const auto& [name, q] : queues_) {
    if (!q.flush_armed) continue;
    if (best.as_micros() < 0 || q.flush_due < best) best = q.flush_due;
  }
  return best;
}

bool DeliveryStage::on_timer(std::uint64_t token) {
  if (channel_.on_timer(token)) return true;
  if (token != kFlushToken) return false;
  timer_armed_ = false;
  const SimTime now = owner_.server_->net().now();
  for (auto& [name, q] : queues_) {
    if (q.flush_armed && q.flush_due <= now) flush(q);
  }
  const SimTime next = earliest_flush();
  if (next.as_micros() >= 0) arm_timer(next);
  return true;
}

void DeliveryStage::on_ack(const std::string& peer, std::uint64_t seq) {
  channel_.on_ack(peer, seq);
  const auto it = queues_.find(peer);
  if (it == queues_.end()) return;
  ClientQueue& q = it->second;
  if (!q.stalled) return;
  if (q.entries.empty()) {
    q.stalled = false;
    return;
  }
  // Hysteresis: resume only once the window has drained to the low
  // watermark, not on the first freed credit.
  if (channel_.unacked_to(peer) <= low_watermark()) flush(q);
}

void DeliveryStage::on_restart() {
  replay_index_ = {};  // recovery is over; release the buckets too
  channel_.on_restart();
  timer_armed_ = false;
  const SimTime next = earliest_flush();
  if (next.as_micros() >= 0) {
    arm_timer(std::max(next, owner_.server_->net().now() +
                                 SimTime::micros(1)));
  }
}

void DeliveryStage::drop_subscription(SubscriptionId sub, NodeId client) {
  if (owner_.server_ == nullptr) return;
  const sim::Node* node = owner_.server_->net().node(client);
  if (node == nullptr) return;
  const auto it = queues_.find(node->name());
  if (it == queues_.end()) return;
  std::erase_if(it->second.entries, [&](const QueueEntry& e) {
    if (e.sub != sub) return false;
    replay_index_.erase(e.seq);
    return true;
  });
}

std::size_t DeliveryStage::queue_depth_total() const {
  std::size_t total = 0;
  for (const auto& [name, q] : queues_) total += q.entries.size();
  return total;
}

std::size_t DeliveryStage::queue_depth_max() const {
  std::size_t deepest = 0;
  for (const auto& [name, q] : queues_) {
    deepest = std::max(deepest, q.entries.size());
  }
  return deepest;
}

std::vector<std::string> DeliveryStage::pending_keys() const {
  std::vector<std::string> out;
  for (const auto& [name, q] : queues_) {
    for (const QueueEntry& e : q.entries) {
      out.push_back(pending_key(q.node, e.sub, e.event_id));
    }
  }
  channel_.for_each_unacked([&](const std::string& peer, std::uint64_t,
                                const wire::Envelope& env) {
    if (env.type != wire::MessageType::kNotificationDigest) return;
    auto body = NotificationDigestBody::decode(env.body);
    if (!body.ok()) return;
    const auto it = queues_.find(peer);
    const NodeId client = it != queues_.end()
                              ? it->second.node
                              : owner_.server_->net().find_node(peer);
    for (const NotificationDigestBody::Entry& entry : body.value().entries) {
      auto event = decode_event(entry.event);
      if (!event.ok()) continue;
      for (SubscriptionId sub : entry.subscription_ids) {
        out.push_back(pending_key(client, sub, event.value().id));
      }
    }
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- durability -----------------------------------------------------------

void DeliveryStage::write_run(wire::Writer& w,
                              std::span<const std::byte> payload,
                              std::span<const QueueEntry* const> run) {
  w.bytes(payload);
  w.seq(run, [](wire::Writer& w2, const QueueEntry* e) {
    w2.u64(e->seq);
    w2.u64(e->sub);
  });
}

void DeliveryStage::journal_enqueued(const ClientQueue& q,
                                     const std::vector<QueueEntry>& entries) {
  std::vector<const QueueEntry*> run;
  run.reserve(entries.size());
  for (const QueueEntry& e : entries) run.push_back(&e);
  const std::span<const std::byte> payload = entries.front().bytes.span();
  owner_.journal_append(
      kJDelivEnq, 4 + str_wire(q.name) + run_wire(payload.size(), run.size()),
      [&](wire::Writer& w) {
        w.u32(q.node.value());
        w.str(q.name);
        write_run(w, payload, run);
      });
}

void DeliveryStage::journal_done(std::uint64_t entry_seq) {
  owner_.journal_append(kJDelivDone, 8,
                        [&](wire::Writer& w) { w.u64(entry_seq); });
}

void DeliveryStage::restore_run(NodeId node, const std::string& name,
                                wire::Reader& r) {
  std::vector<std::byte> event_bytes = r.bytes();
  const auto pairs = r.seq<std::pair<std::uint64_t, SubscriptionId>>(
      [](wire::Reader& r2) {
        const std::uint64_t seq = r2.u64();
        return std::pair{seq, r2.u64()};
      });
  if (!r.ok()) return;
  auto event = decode_event(event_bytes);
  if (!event.ok()) return;
  const auto shared =
      std::make_shared<const docmodel::Event>(std::move(event).take());
  const wire::Frame frame{std::move(event_bytes)};
  ClientQueue& q = queues_[name];
  q.node = node;
  if (q.name.empty()) q.name = name;
  for (const auto& [entry_seq, sub] : pairs) {
    QueueEntry entry;
    entry.seq = entry_seq;
    entry.sub = sub;
    entry.event_id = shared->id;
    entry.event = shared;
    entry.bytes = frame;
    entry.mode = policy_for(sub).mode;
    q.entries.push_back(std::move(entry));
    replay_index_.emplace(entry_seq, &q);
    if (entry_seq >= next_entry_seq_) next_entry_seq_ = entry_seq + 1;
  }
  // Recovered backlog flushes as soon as the restart re-arms timers.
  q.flush_armed = true;
  q.flush_due = SimTime::zero();
}

void DeliveryStage::clear() {
  queues_.clear();
  replay_index_.clear();
  policies_.clear();
  channel_.clear_peers();
  next_entry_seq_ = 1;
  digest_seq_ = 0;
  timer_armed_ = false;
}

void DeliveryStage::encode_state(wire::Writer& w) const {
  w.u64(next_entry_seq_);
  w.u64(digest_seq_);
  // Ascending subscription order keeps snapshots byte-identical across
  // hash-table layouts.
  std::vector<std::pair<SubscriptionId, DeliveryPolicy>> policies{
      policies_.begin(), policies_.end()};
  std::sort(policies.begin(), policies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u32(static_cast<std::uint32_t>(policies.size()));
  for (const auto& [sub, policy] : policies) {
    w.u64(sub);
    w.u8(static_cast<std::uint8_t>(policy.mode));
    w.u64(static_cast<std::uint64_t>(policy.window.as_micros()));
  }
  std::uint32_t live = 0;
  for (const auto& [name, q] : queues_) {
    if (!q.entries.empty()) live += 1;
  }
  w.u32(live);
  for (const auto& [name, q] : queues_) {
    if (q.entries.empty()) continue;
    w.str(name);
    w.u32(q.node.value());
    // Consecutive entries of one event form one run (one fan-out queues
    // its hits together), which keeps queue order and writes each
    // payload once per run.
    std::vector<std::vector<const QueueEntry*>> runs;
    for (const QueueEntry& e : q.entries) {
      if (runs.empty() || runs.back().front()->event_id != e.event_id) {
        runs.emplace_back();
      }
      runs.back().push_back(&e);
    }
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const std::vector<const QueueEntry*>& run : runs) {
      write_run(w, run.front()->bytes.span(), run);
    }
  }
  channel_.encode_state(w);
}

void DeliveryStage::decode_state(wire::Reader& r) {
  next_entry_seq_ = std::max(next_entry_seq_, r.u64());
  digest_seq_ = std::max(digest_seq_, r.u64());
  const std::uint32_t n_policies = r.u32();
  for (std::uint32_t i = 0; i < n_policies && r.ok(); ++i) {
    const SubscriptionId sub = r.u64();
    const auto mode = static_cast<DeliveryMode>(r.u8());
    const SimTime window = SimTime::micros(static_cast<std::int64_t>(r.u64()));
    if (r.ok()) policies_[sub] = DeliveryPolicy{mode, window};
  }
  const std::uint32_t n_queues = r.u32();
  for (std::uint32_t i = 0; i < n_queues && r.ok(); ++i) {
    const std::string name = r.str();
    const NodeId node{r.u32()};
    const std::uint32_t n_runs = r.u32();
    for (std::uint32_t j = 0; j < n_runs && r.ok(); ++j) {
      restore_run(node, name, r);
    }
  }
  channel_.decode_state(r);
}

bool DeliveryStage::replay_journal(std::uint8_t type, wire::Reader& r) {
  switch (type) {
    case kJDelivPolicy: {
      const SubscriptionId sub = r.u64();
      const auto mode = static_cast<DeliveryMode>(r.u8());
      const SimTime window =
          SimTime::micros(static_cast<std::int64_t>(r.u64()));
      if (r.ok()) policies_[sub] = DeliveryPolicy{mode, window};
      return true;
    }
    case kJDelivEnq: {
      const NodeId node{r.u32()};
      const std::string name = r.str();
      if (r.ok()) restore_run(node, name, r);
      return true;
    }
    case kJDelivDone: {
      const std::uint64_t seq = r.u64();
      if (!r.ok()) return true;
      const auto it = replay_index_.find(seq);
      if (it == replay_index_.end()) return true;
      // Entry seqs ascend along a queue: binary-search the one queue.
      std::deque<QueueEntry>& entries = it->second->entries;
      const auto pos = std::lower_bound(
          entries.begin(), entries.end(), seq,
          [](const QueueEntry& e, std::uint64_t s) { return e.seq < s; });
      if (pos != entries.end() && pos->seq == seq) entries.erase(pos);
      replay_index_.erase(it);
      return true;
    }
    case kJDChanSend: {
      const std::string peer = r.str();
      const std::uint64_t seq = r.u64();
      const std::vector<std::byte> flat = r.bytes();
      if (!r.ok()) return true;
      if (auto env = wire::unpack(flat)) {
        channel_.restore_unacked(peer, seq, std::move(env).take());
      }
      return true;
    }
    case kJDChanAck: {
      const std::string peer = r.str();
      const std::uint64_t seq = r.u64();
      if (r.ok()) channel_.restore_ack(peer, seq);
      return true;
    }
    case kJDChanFloor: {
      const std::string peer = r.str();
      const std::uint64_t floor = r.u64();
      if (r.ok()) channel_.restore_floor(peer, floor);
      return true;
    }
    case kJDigestSeq: {
      const std::uint64_t seq = r.u64();
      if (r.ok()) digest_seq_ = std::max(digest_seq_, seq);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace gsalert::alerting

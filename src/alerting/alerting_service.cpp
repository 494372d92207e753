#include "alerting/alerting_service.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "profiles/event_context.h"

namespace gsalert::alerting {

namespace {
// Journal record types (64..254 are extension records; see
// gsnet::ServerExtension and docs/DURABILITY.md).
constexpr std::uint8_t kJSubAdd = 64;        // id u64, client u32, text str
constexpr std::uint8_t kJSubCancel = 65;     // id u64
constexpr std::uint8_t kJSubRequest = 66;    // client u32, msg_id u64, sub u64
constexpr std::uint8_t kJAuxInAdd = 67;      // sub str, super host+name str
constexpr std::uint8_t kJAuxInRemove = 68;   // sub str, super host+name str
constexpr std::uint8_t kJAuxOutReplace = 69; // coll str, n u32, refs
constexpr std::uint8_t kJEventSeen = 70;     // origin str, seq u64
constexpr std::uint8_t kJForwardProcessed = 71;  // key str
constexpr std::uint8_t kJChanSend = 72;      // peer str, seq u64, env bytes
constexpr std::uint8_t kJChanAck = 73;       // peer str, seq u64
constexpr std::uint8_t kJChanFloor = 74;     // peer str, floor u64

std::size_t str_wire(const std::string& s) { return 4 + s.size(); }

std::string forward_key(const docmodel::EventId& id,
                        const CollectionRef& super) {
  return id.str() + "->" + super.str();
}

std::string join_via(const std::vector<std::string>& via) {
  std::string out;
  for (const std::string& hop : via) {
    if (!out.empty()) out += ">";
    out += hop;
  }
  return out;
}
}  // namespace

// --- subscriptions ------------------------------------------------------

Result<SubscriptionId> AlertingService::subscribe_local(
    NodeId client, const std::string& profile_text) {
  auto parsed = profiles::parse_profile(profile_text);
  if (!parsed.ok()) return parsed.error();
  const SubscriptionId id = next_sub_++;
  parsed.value().id = id;
  if (Status s = index_.add(std::move(parsed).take()); !s.is_ok()) {
    return s.error();
  }
  subs_[id] = Subscription{client, profile_text};
  journal_append(kJSubAdd, 8 + 4 + str_wire(profile_text),
                 [&](wire::Writer& w) {
                   w.u64(id);
                   w.u32(client.value());
                   w.str(profile_text);
                 });
  if (server_) server_->commit_journal();
  return id;
}

Status AlertingService::cancel_local(SubscriptionId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) {
    return Status{ErrorCode::kNotFound, "unknown subscription"};
  }
  const NodeId client = it->second.client;
  subs_.erase(it);
  // Queued-but-unsent notifications for the subscription die with it
  // (dangling-profile guarantee extends through the delivery queue).
  delivery_.drop_subscription(id, client);
  journal_append(kJSubCancel, 8, [&](wire::Writer& w) { w.u64(id); });
  if (server_) server_->commit_journal();
  return index_.remove(id);
}

std::vector<CollectionRef> AlertingService::aux_profiles_for(
    const std::string& sub) const {
  const auto it = aux_in_.find(sub);
  if (it == aux_in_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<SubscriptionId> AlertingService::subscription_ids() const {
  std::vector<SubscriptionId> out;
  out.reserve(subs_.size());
  for (const auto& [id, sub] : subs_) out.push_back(id);
  return out;  // subs_ is an ordered map: already sorted
}

std::vector<std::string> AlertingService::seen_event_keys() const {
  std::vector<std::string> out;
  out.reserve(seen_events_.size());
  for (const docmodel::EventId& id : seen_events_) out.push_back(id.str());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> AlertingService::processed_forward_keys() const {
  std::vector<std::string> out{processed_forwards_.begin(),
                               processed_forwards_.end()};
  std::sort(out.begin(), out.end());
  return out;
}

// --- extension lifecycle ---------------------------------------------------

void AlertingService::attach(gsnet::GreenstoneServer& server) {
  ServerExtension::attach(server);
}

void AlertingService::on_started() { ensure_channels(); }

void AlertingService::on_recovered() {
  // A pending batch is in-memory build state and did not survive the
  // crash. Wipe everything the journal covers too: the server's recovery
  // feeds the snapshot + records back in through recover_durable /
  // replay_journal. Channels must be attached before replay restores
  // their unacked entries.
  batch_.clear();
  build_depth_ = 0;
  subs_.clear();
  index_ = profiles::ProfileIndex{};
  aux_in_.clear();
  aux_out_.clear();
  seen_events_.clear();
  processed_forwards_.clear();
  sub_requests_.clear();
  channels_.clear_peers();
  delivery_.clear();
  ensure_channels();
}

void AlertingService::on_restarted() {
  // Rejoin phase: state is already recovered by journal replay; only the
  // retry timers need re-arming.
  channels_.on_restart();
  delivery_.on_restart();
}

// --- event pipeline -----------------------------------------------------------

void AlertingService::filter_and_notify(const docmodel::Event& event) {
  GSALERT_PROFILE("alerting.filter_and_notify");
  profiles::EventContext ctx = profiles::EventContext::from(event);
  // §5: at the event's own host, query predicates run against the
  // collection's freshly rebuilt index instead of scanning documents.
  // Renamed events carry another collection's documents, so the local
  // index does not cover them and the per-document path applies.
  if (event.via.empty() && event.collection.host == server_->name()) {
    ctx.set_engine(server_->engine(event.collection.name));
  }
  const auto match_t0 = std::chrono::steady_clock::now();
  const std::vector<profiles::ProfileId> hits =
      index_.match(ctx, &match_stats_);
  match_cpu_us_.record(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - match_t0)
                              .count()) /
      1000.0);
  stats_.filter_matches += hits.size();
  // Encode once, fan out many: the event body lands in one refcounted
  // frame shared by every matching subscriber, and the delivery stage
  // writes it once per client digest, so N matches cost exactly one body
  // encode (gated in tests/perf_budget.txt). Both are built lazily — an
  // event whose hits all point at vanished subscriptions encodes nothing.
  std::shared_ptr<const docmodel::Event> shared_event;
  wire::Frame body_frame;
  std::vector<DeliveryStage::Hit> targets;
  targets.reserve(hits.size());
  for (profiles::ProfileId id : hits) {
    const auto it = subs_.find(id);
    if (it == subs_.end()) continue;
    if (!shared_event) {
      shared_event = std::make_shared<const docmodel::Event>(event);
      body_frame = wire::Frame{encode_event(event)};
      stats_.notify_body_encodes += 1;
    }
    if (obs::active()) {
      obs::emit_span("notify", server_->name(), server_->net().now(),
                     {{"sub", std::to_string(id)},
                      {"client", std::to_string(it->second.client.value())}});
    }
    targets.push_back(DeliveryStage::Hit{it->second.client, id});
  }
  if (!targets.empty()) delivery_.offer(shared_event, body_frame, targets);
}

void AlertingService::forward_to_supers(const docmodel::Event& event) {
  // Only events whose current attribution lives on this host can match an
  // auxiliary profile here (the aux profile was installed at the
  // sub-collection's host — us).
  if (event.collection.host != server_->name()) return;
  const auto it = aux_in_.find(event.collection.name);
  if (it == aux_in_.end()) return;
  for (const CollectionRef& super : it->second) {
    // Rename-loop guard: never re-attribute to a collection the event has
    // already been attributed to.
    if (super == event.collection ||
        std::find(event.via.begin(), event.via.end(), super.str()) !=
            event.via.end()) {
      stats_.rename_loops_cut += 1;
      if (obs::active()) {
        obs::emit_span("rename-loop-cut", server_->name(),
                       server_->net().now(),
                       {{"super", super.str()},
                        {"via", join_via(event.via)}});
      }
      continue;
    }
    const obs::TraceScope forward_scope{
        obs::active()
            ? obs::emit_span("aux-forward", server_->name(),
                             server_->net().now(),
                             {{"super", super.str()},
                              {"event", event.id.str()}})
            : obs::current_context()};
    EventForwardBody body;
    body.super = super;
    body.event = event;
    wire::Writer w;
    body.encode(w);
    wire::Envelope env = wire::make_envelope(
        wire::MessageType::kEventForward, server_->name(), super.host, 0,
        std::move(w));
    send_reliable(super.host, std::move(env));
    stats_.aux_forwards += 1;
  }
}

void AlertingService::publish(const docmodel::Event& event) {
  if (!server_->gds().attached()) return;  // solitary server, no directory
  batch_.push_back(
      PendingEvent{obs::current_context(), encode_event(event)});
  stats_.events_published += 1;
  // Outside a build bracket the flush is immediate. Inside a build,
  // events accumulate until build-complete or the batch fills.
  if (build_depth_ == 0 || batch_.size() >= config_.max_batch_events) {
    flush_batch();
  }
}

void AlertingService::flush_batch() {
  if (batch_.empty()) return;
  if (batch_.size() == 1) {
    // A lone event needs no batch framing: ship it as a plain announce
    // under the trace context it was published with.
    const obs::TraceScope scope{batch_.front().ctx};
    server_->gds().broadcast(
        static_cast<std::uint16_t>(wire::MessageType::kEventAnnounce),
        std::move(batch_.front().bytes));
  } else {
    EventBatchBody body;
    body.entries.reserve(batch_.size());
    for (PendingEvent& pending : batch_) {
      body.entries.push_back(EventBatchBody::Entry{
          pending.ctx.trace_id, pending.ctx.span_id, pending.ctx.hop,
          std::move(pending.bytes)});
    }
    wire::Writer w;
    body.encode(w);
    // One envelope, one tree traversal. The flood travels under the first
    // event's trace; each entry carries its own context for the receiver.
    const obs::TraceScope scope{batch_.front().ctx};
    server_->gds().broadcast(
        static_cast<std::uint16_t>(wire::MessageType::kEventBatch),
        std::move(w).take());
    stats_.batches_sent += 1;
    stats_.batched_events += body.entries.size();
  }
  batch_.clear();
}

void AlertingService::on_build_begin() { build_depth_ += 1; }

void AlertingService::on_build_complete() {
  if (build_depth_ > 0) build_depth_ -= 1;
  if (build_depth_ == 0) flush_batch();
}

void AlertingService::process_event(const docmodel::Event& event,
                                    bool broadcast) {
  if (!seen_events_.insert(event.id).second) {
    stats_.duplicate_events += 1;
    if (obs::active()) {
      obs::emit_span("event-dup-drop", server_->name(),
                     server_->net().now(), {{"event", event.id.str()}});
    }
    return;
  }
  journal_append(kJEventSeen, str_wire(event.id.origin) + 8,
                 [&](wire::Writer& w) {
                   w.str(event.id.origin);
                   w.u64(event.id.seq);
                 });
  stats_.events_received += 1;
  // Root of the event's trace for local builds; for renamed events the
  // rename span is already active and this nests beneath it.
  obs::SpanArgs publish_args;
  if (obs::active()) {
    publish_args = {{"event", event.id.str()},
                    {"collection", event.collection.str()}};
    if (!event.via.empty()) {
      publish_args.emplace_back("via", join_via(event.via));
    }
  }
  const obs::TraceScope event_scope{
      obs::active() ? obs::emit_span("publish", server_->name(),
                                     server_->net().now(),
                                     std::move(publish_args))
                    : obs::current_context()};
  filter_and_notify(event);
  forward_to_supers(event);
  if (broadcast) publish(event);
}

void AlertingService::on_local_event(const docmodel::Event& event) {
  process_event(event, /*broadcast=*/true);
}

void AlertingService::on_gds_message(const std::string& /*origin_server*/,
                                     std::uint16_t payload_type,
                                     std::span<const std::byte> payload) {
  switch (static_cast<wire::MessageType>(payload_type)) {
    // Aux-profile and forward traffic relayed anonymously through the
    // GDS (no direct host reference): the payload is a full flattened
    // envelope.
    case wire::MessageType::kAuxProfileAdd:
    case wire::MessageType::kAuxProfileRemove:
    case wire::MessageType::kEventForward:
    case wire::MessageType::kAuxProfileAck:
    case wire::MessageType::kEventForwardAck: {
      auto env = wire::unpack(payload);
      if (env.ok()) {
        // The relayed envelope carries the original sender's trace
        // context; handle it under that, not the outer deliver's.
        const obs::TraceScope inner_scope{obs::TraceContext{
            env.value().trace_id, env.value().span_id, env.value().hop}};
        (void)handle_envelope(NodeId::invalid(), env.value());
      }
      return;
    }
    case wire::MessageType::kEventAnnounce: {
      auto event = decode_event(payload);
      if (!event.ok()) return;
      receive_flooded_event(event.value());
      return;
    }
    case wire::MessageType::kEventBatch: {
      auto batch = EventBatchBody::decode(payload);
      if (!batch.ok()) return;
      for (const EventBatchBody::Entry& entry : batch.value().entries) {
        auto event = decode_event(entry.event);
        if (!event.ok()) continue;
        // Re-establish the context the event was published under so its
        // delivery (and any notify spans) attribute to the right trace.
        const obs::TraceScope entry_scope{obs::TraceContext{
            entry.trace_id, entry.span_id, entry.hop}};
        receive_flooded_event(event.value());
      }
      return;
    }
    default:
      return;
  }
}

void AlertingService::receive_flooded_event(const docmodel::Event& event) {
  // Flooded events are filtered against local profiles only; forwarding
  // and re-broadcast happened at (or via) the event's own host.
  if (!seen_events_.insert(event.id).second) {
    stats_.duplicate_events += 1;
    if (obs::active()) {
      obs::emit_span("event-dup-drop", server_->name(),
                     server_->net().now(), {{"event", event.id.str()}});
    }
    return;
  }
  journal_append(kJEventSeen, str_wire(event.id.origin) + 8,
                 [&](wire::Writer& w) {
                   w.str(event.id.origin);
                   w.u64(event.id.seq);
                 });
  stats_.events_received += 1;
  filter_and_notify(event);
}

// --- auxiliary profile management (super-collection side) ----------------------

void AlertingService::sync_aux_profiles(const docmodel::Collection& coll) {
  std::set<CollectionRef> current;
  for (const CollectionRef& sub : coll.config.sub_collections) {
    if (sub.host != server_->name()) current.insert(sub);
  }
  std::set<CollectionRef>& previous = aux_out_[coll.config.name];
  const CollectionRef super = coll.config.ref();

  for (const CollectionRef& sub : current) {
    if (previous.contains(sub)) continue;
    AuxProfileBody body{super, sub};
    wire::Writer w;
    body.encode(w);
    send_reliable(sub.host,
                  wire::make_envelope(wire::MessageType::kAuxProfileAdd,
                                      server_->name(), sub.host, 0,
                                      std::move(w)));
  }
  for (const CollectionRef& sub : previous) {
    if (current.contains(sub)) continue;
    AuxProfileBody body{super, sub};
    wire::Writer w;
    body.encode(w);
    send_reliable(sub.host,
                  wire::make_envelope(wire::MessageType::kAuxProfileRemove,
                                      server_->name(), sub.host, 0,
                                      std::move(w)));
  }
  if (current.empty()) {
    aux_out_.erase(coll.config.name);
  } else {
    previous = std::move(current);
  }
  journal_aux_out(coll.config.name);
}

void AlertingService::journal_aux_out(const std::string& coll) {
  const auto it = aux_out_.find(coll);
  std::size_t payload = str_wire(coll) + 4;
  if (it != aux_out_.end()) {
    for (const CollectionRef& ref : it->second) {
      payload += str_wire(ref.host) + str_wire(ref.name);
    }
  }
  journal_append(kJAuxOutReplace, payload, [&](wire::Writer& w) {
    w.str(coll);
    if (it == aux_out_.end()) {
      w.u32(0);
    } else {
      w.u32(static_cast<std::uint32_t>(it->second.size()));
      for (const CollectionRef& ref : it->second) {
        w.str(ref.host);
        w.str(ref.name);
      }
    }
  });
}

void AlertingService::on_collection_configured(
    const docmodel::Collection& coll) {
  sync_aux_profiles(coll);
}

void AlertingService::on_collection_removed(const CollectionRef& ref) {
  const auto it = aux_out_.find(ref.name);
  if (it == aux_out_.end()) return;
  for (const CollectionRef& sub : it->second) {
    AuxProfileBody body{ref, sub};
    wire::Writer w;
    body.encode(w);
    send_reliable(sub.host,
                  wire::make_envelope(wire::MessageType::kAuxProfileRemove,
                                      server_->name(), sub.host, 0,
                                      std::move(w)));
  }
  aux_out_.erase(it);
  journal_aux_out(ref.name);
}

// --- message handling ---------------------------------------------------------------

bool AlertingService::handle_envelope(NodeId from, const wire::Envelope& env) {
  switch (env.type) {
    case wire::MessageType::kSubscribe:
      handle_subscribe(from, env);
      return true;
    case wire::MessageType::kCancelSubscription:
      handle_cancel(env);
      return true;
    case wire::MessageType::kAuxProfileAdd:
    case wire::MessageType::kAuxProfileRemove:
    case wire::MessageType::kEventForward:
      receive_channel_data(from, env);
      return true;
    case wire::MessageType::kAuxProfileAck:
    case wire::MessageType::kEventForwardAck:
      handle_ack(env);
      return true;
    case wire::MessageType::kNotificationAck:
      // Client ack for a channel-managed digest: env.src is the client
      // node's name — the delivery channel's peer key.
      delivery_.on_ack(env.src, env.msg_id);
      return true;
    default:
      return false;
  }
}

void AlertingService::handle_subscribe(NodeId from,
                                       const wire::Envelope& env) {
  auto body = SubscribeBody::decode(env.body);
  SubscribeAckBody ack;
  ack.request_id = env.msg_id;
  const auto request = std::make_pair(from.value(), env.msg_id);
  if (const auto seen = sub_requests_.find(request);
      seen != sub_requests_.end()) {
    // Wire-level duplicate of a request we already served (chaos
    // duplication window or a client retry): re-ack, don't re-subscribe.
    ack.ok = true;
    ack.subscription_id = seen->second;
  } else if (!body.ok()) {
    ack.error = body.error().str();
  } else {
    auto sub = subscribe_local(from, body.value().profile_text);
    if (sub.ok()) {
      ack.ok = true;
      ack.subscription_id = sub.value();
      sub_requests_[request] = sub.value();
      journal_append(kJSubRequest, 4 + 8 + 8, [&](wire::Writer& w) {
        w.u32(from.value());
        w.u64(env.msg_id);
        w.u64(sub.value());
      });
    } else {
      ack.error = sub.error().str();
    }
  }
  wire::Writer w;
  ack.encode(w);
  server_->send_to(from, wire::make_envelope(
                             wire::MessageType::kSubscribeAck,
                             server_->name(), "", env.msg_id, std::move(w)));
}

void AlertingService::handle_cancel(const wire::Envelope& env) {
  auto body = CancelBody::decode(env.body);
  if (!body.ok()) return;
  (void)cancel_local(body.value().subscription_id);
}

void AlertingService::send_ack(NodeId from, const wire::Envelope& env,
                               wire::MessageType type) {
  wire::Envelope ack = wire::make_envelope(type, server_->name(), env.src,
                                           env.msg_id, wire::Writer{});
  if (from.valid()) {
    server_->send_to(from, ack);
  } else if (server_->gds().attached()) {
    // The request came through the GDS relay; answer the same way.
    server_->gds().relay(env.src, static_cast<std::uint16_t>(type),
                         ack.flatten());
  }
}

void AlertingService::receive_channel_data(NodeId from,
                                           const wire::Envelope& env) {
  ensure_channels();
  transport::ChannelSet::Incoming incoming = channels_.on_data(env);
  // Always ack the arrival (duplicates included): the sender's channel
  // only drains when the echo of this sequence number reaches it.
  send_ack(from, env,
           env.type == wire::MessageType::kEventForward
               ? wire::MessageType::kEventForwardAck
               : wire::MessageType::kAuxProfileAck);
  for (wire::Envelope& data : incoming.deliver) {
    // A buffered envelope released by this arrival carries its own trace
    // stamps; apply it under those, not the outer arrival's.
    const obs::TraceScope data_scope{
        obs::TraceContext{data.trace_id, data.span_id, data.hop}};
    switch (data.type) {
      case wire::MessageType::kAuxProfileAdd:
        apply_aux_add(data);
        break;
      case wire::MessageType::kAuxProfileRemove:
        apply_aux_remove(data);
        break;
      case wire::MessageType::kEventForward:
        apply_event_forward(data);
        break;
      default:
        break;
    }
  }
}

void AlertingService::apply_aux_add(const wire::Envelope& env) {
  auto body = AuxProfileBody::decode(env.body);
  if (!body.ok()) return;
  const CollectionRef& super = body.value().super;
  if (aux_in_[body.value().sub.name].insert(super).second) {
    journal_append(kJAuxInAdd,
                   str_wire(body.value().sub.name) + str_wire(super.host) +
                       str_wire(super.name),
                   [&](wire::Writer& w) {
                     w.str(body.value().sub.name);
                     w.str(super.host);
                     w.str(super.name);
                   });
  }
}

void AlertingService::apply_aux_remove(const wire::Envelope& env) {
  auto body = AuxProfileBody::decode(env.body);
  if (!body.ok()) return;
  const auto it = aux_in_.find(body.value().sub.name);
  if (it != aux_in_.end()) {
    const CollectionRef& super = body.value().super;
    if (it->second.erase(super) > 0) {
      journal_append(kJAuxInRemove,
                     str_wire(body.value().sub.name) + str_wire(super.host) +
                         str_wire(super.name),
                     [&](wire::Writer& w) {
                       w.str(body.value().sub.name);
                       w.str(super.host);
                       w.str(super.name);
                     });
    }
    if (it->second.empty()) aux_in_.erase(it);
  }
}

void AlertingService::apply_event_forward(const wire::Envelope& env) {
  auto decoded = EventForwardBody::decode(env.body);
  if (!decoded.ok()) return;
  const EventForwardBody& body = decoded.value();
  // Belt and braces on top of the channel's dedup window: a migrated
  // profile snapshot can make a second sender forward the same (event,
  // super) pair over a different channel.
  const std::string fwd_key = forward_key(body.event.id, body.super);
  if (!processed_forwards_.insert(fwd_key).second) {
    if (obs::active()) {
      obs::emit_span("forward-dup-drop", server_->name(),
                     server_->net().now(),
                     {{"event", body.event.id.str()}});
    }
    return;  // duplicate retransmission
  }
  journal_append(kJForwardProcessed, str_wire(fwd_key),
                 [&](wire::Writer& w) { w.str(fwd_key); });
  if (body.super.host != server_->name() ||
      server_->collection(body.super.name) == nullptr) {
    // Stale aux profile: the super-collection moved or vanished. Per §7
    // this conflicts with GS collection management; drop defensively.
    if (obs::active()) {
      obs::emit_span("stale-aux-drop", server_->name(),
                     server_->net().now(),
                     {{"super", body.super.str()},
                      {"event", body.event.id.str()}});
    }
    return;
  }
  // Rename: attribute the event to the super-collection (paper §4.2 —
  // "the originating collection is transformed from London.E to
  // Hamilton.D"), keep the physical origin, extend the via chain, and give
  // the renamed event its own identity so receivers treat it as a distinct
  // announcement.
  docmodel::Event renamed;
  renamed.id = docmodel::EventId{server_->name(), server_->next_event_seq()};
  renamed.type = body.event.type;
  renamed.collection = body.super;
  renamed.physical_origin = body.event.physical_origin;
  renamed.build_version = body.event.build_version;
  renamed.via = body.event.via;
  renamed.via.push_back(body.event.collection.str());
  renamed.docs = body.event.docs;
  stats_.renames += 1;
  const obs::TraceScope rename_scope{
      obs::active()
          ? obs::emit_span("rename", server_->name(), server_->net().now(),
                           {{"from", body.event.collection.str()},
                            {"to", body.super.str()},
                            {"event", body.event.id.str()},
                            {"renamed-event", renamed.id.str()},
                            {"via", join_via(renamed.via)}})
          : obs::current_context()};
  process_event(renamed, /*broadcast=*/true);
}

void AlertingService::handle_ack(const wire::Envelope& env) {
  // The ack echoes the channel sequence in msg_id; the peer is named by
  // the ack's source (works for both direct and GDS-relayed acks).
  channels_.on_ack(env.src, env.msg_id);
}

// --- durability / migration -----------------------------------------------------------

std::vector<std::byte> AlertingService::snapshot_state() const {
  wire::Writer w;
  w.u64(next_sub_);
  w.u32(static_cast<std::uint32_t>(subs_.size()));
  for (const auto& [id, sub] : subs_) {
    w.u64(id);
    w.u32(sub.client.value());
    w.str(sub.profile_text);
  }
  auto write_aux = [&w](const std::map<std::string,
                                       std::set<CollectionRef>>& table) {
    w.u32(static_cast<std::uint32_t>(table.size()));
    for (const auto& [key, refs] : table) {
      w.str(key);
      w.u32(static_cast<std::uint32_t>(refs.size()));
      for (const CollectionRef& ref : refs) {
        w.str(ref.host);
        w.str(ref.name);
      }
    }
  };
  write_aux(aux_in_);
  write_aux(aux_out_);
  return std::move(w).take();
}

Status AlertingService::restore_state(
    const std::vector<std::byte>& snapshot) {
  wire::Reader r{snapshot};
  const std::uint64_t next_sub = r.u64();
  std::map<SubscriptionId, Subscription> subs;
  profiles::ProfileIndex index;
  const std::uint32_t n_subs = r.u32();
  for (std::uint32_t i = 0; i < n_subs && r.ok(); ++i) {
    const SubscriptionId id = r.u64();
    const NodeId client{r.u32()};
    std::string text = r.str();
    if (!r.ok()) break;
    auto parsed = profiles::parse_profile(text);
    if (!parsed.ok()) return Status{parsed.error()};
    parsed.value().id = id;
    if (Status s = index.add(std::move(parsed).take()); !s.is_ok()) return s;
    subs[id] = Subscription{client, std::move(text)};
  }
  auto read_aux = [&r](std::map<std::string, std::set<CollectionRef>>& out) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      std::string key = r.str();
      const std::uint32_t m = r.u32();
      std::set<CollectionRef>& refs = out[key];
      for (std::uint32_t j = 0; j < m && r.ok(); ++j) {
        CollectionRef ref;
        ref.host = r.str();
        ref.name = r.str();
        refs.insert(std::move(ref));
      }
    }
  };
  std::map<std::string, std::set<CollectionRef>> aux_in, aux_out;
  read_aux(aux_in);
  read_aux(aux_out);
  if (!r.done()) {
    return Status{ErrorCode::kDecodeFailure, "malformed profile snapshot"};
  }
  next_sub_ = std::max(next_sub_, next_sub);
  subs_ = std::move(subs);
  index_ = std::move(index);
  aux_in_ = std::move(aux_in);
  aux_out_ = std::move(aux_out);
  // Migration replaces the profile database wholesale; fold the new state
  // into a fresh journal snapshot so a crash right after the restore does
  // not resurrect the old profiles.
  if (journal::Journal* j = server_ ? server_->journal() : nullptr) {
    j->compact();
  }
  return Status::ok();
}

// --- write-ahead journal (server-owned; see docs/DURABILITY.md) --------------

void AlertingService::restore_subscription(SubscriptionId id, NodeId client,
                                           std::string text) {
  auto parsed = profiles::parse_profile(text);
  if (!parsed.ok()) return;  // journal predates a grammar change; skip
  parsed.value().id = id;
  if (!index_.add(std::move(parsed).take()).is_ok()) return;
  subs_[id] = Subscription{client, std::move(text)};
  if (id >= next_sub_) next_sub_ = id + 1;
}

void AlertingService::encode_durable(wire::Writer& w) const {
  w.u64(next_sub_);
  w.u32(static_cast<std::uint32_t>(subs_.size()));
  for (const auto& [id, sub] : subs_) {
    w.u64(id);
    w.u32(sub.client.value());
    w.str(sub.profile_text);
  }
  const auto write_aux =
      [&w](const std::map<std::string, std::set<CollectionRef>>& table) {
        w.u32(static_cast<std::uint32_t>(table.size()));
        for (const auto& [key, refs] : table) {
          w.str(key);
          w.u32(static_cast<std::uint32_t>(refs.size()));
          for (const CollectionRef& ref : refs) {
            w.str(ref.host);
            w.str(ref.name);
          }
        }
      };
  write_aux(aux_in_);
  write_aux(aux_out_);
  // Hash sets are sorted so equal state snapshots to equal bytes.
  std::vector<docmodel::EventId> seen(seen_events_.begin(),
                                      seen_events_.end());
  std::sort(seen.begin(), seen.end());
  w.u32(static_cast<std::uint32_t>(seen.size()));
  for (const docmodel::EventId& id : seen) {
    w.str(id.origin);
    w.u64(id.seq);
  }
  std::vector<std::string> forwards(processed_forwards_.begin(),
                                    processed_forwards_.end());
  std::sort(forwards.begin(), forwards.end());
  w.u32(static_cast<std::uint32_t>(forwards.size()));
  for (const std::string& key : forwards) w.str(key);
  w.u32(static_cast<std::uint32_t>(sub_requests_.size()));
  for (const auto& [request, sub] : sub_requests_) {
    w.u32(request.first);
    w.u64(request.second);
    w.u64(sub);
  }
  channels_.encode_state(w);
  delivery_.encode_state(w);
}

void AlertingService::recover_durable(wire::Reader& r) {
  next_sub_ = std::max(next_sub_, r.u64());
  const std::uint32_t n_subs = r.u32();
  for (std::uint32_t i = 0; i < n_subs && r.ok(); ++i) {
    const SubscriptionId id = r.u64();
    const NodeId client{r.u32()};
    std::string text = r.str();
    if (!r.ok()) break;
    restore_subscription(id, client, std::move(text));
  }
  const auto read_aux =
      [&r](std::map<std::string, std::set<CollectionRef>>& out) {
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
          std::string key = r.str();
          const std::uint32_t m = r.u32();
          if (!r.ok()) break;
          std::set<CollectionRef>& refs = out[key];
          for (std::uint32_t j = 0; j < m && r.ok(); ++j) {
            CollectionRef ref;
            ref.host = r.str();
            ref.name = r.str();
            if (r.ok()) refs.insert(std::move(ref));
          }
        }
      };
  read_aux(aux_in_);
  read_aux(aux_out_);
  const std::uint32_t n_seen = r.u32();
  for (std::uint32_t i = 0; i < n_seen && r.ok(); ++i) {
    docmodel::EventId id;
    id.origin = r.str();
    id.seq = r.u64();
    if (r.ok()) seen_events_.insert(std::move(id));
  }
  const std::uint32_t n_forwards = r.u32();
  for (std::uint32_t i = 0; i < n_forwards && r.ok(); ++i) {
    std::string key = r.str();
    if (r.ok()) processed_forwards_.insert(std::move(key));
  }
  const std::uint32_t n_requests = r.u32();
  for (std::uint32_t i = 0; i < n_requests && r.ok(); ++i) {
    const std::uint32_t client = r.u32();
    const std::uint64_t msg_id = r.u64();
    const std::uint64_t sub = r.u64();
    if (r.ok()) sub_requests_[{client, msg_id}] = sub;
  }
  ensure_channels();
  channels_.decode_state(r);
  delivery_.decode_state(r);
}

bool AlertingService::replay_journal(std::uint8_t type, wire::Reader& r) {
  // Replay mutates local state only — no sends, no acks, no broadcasts;
  // the rest of the world already saw those effects before the crash.
  switch (type) {
    case kJSubAdd: {
      const SubscriptionId id = r.u64();
      const NodeId client{r.u32()};
      std::string text = r.str();
      if (r.ok()) restore_subscription(id, client, std::move(text));
      return true;
    }
    case kJSubCancel: {
      const SubscriptionId id = r.u64();
      if (!r.ok()) return true;
      const auto it = subs_.find(id);
      if (it == subs_.end()) return true;
      const NodeId client = it->second.client;
      subs_.erase(it);
      (void)index_.remove(id);
      // Enq records for the cancelled sub replay before this record;
      // re-dropping here keeps the recovered queues cancel-consistent.
      delivery_.drop_subscription(id, client);
      return true;
    }
    case kJSubRequest: {
      const std::uint32_t client = r.u32();
      const std::uint64_t msg_id = r.u64();
      const std::uint64_t sub = r.u64();
      if (r.ok()) sub_requests_[{client, msg_id}] = sub;
      return true;
    }
    case kJAuxInAdd:
    case kJAuxInRemove: {
      std::string sub_name = r.str();
      CollectionRef super;
      super.host = r.str();
      super.name = r.str();
      if (!r.ok()) return true;
      if (type == kJAuxInAdd) {
        aux_in_[sub_name].insert(std::move(super));
      } else if (const auto it = aux_in_.find(sub_name);
                 it != aux_in_.end()) {
        it->second.erase(super);
        if (it->second.empty()) aux_in_.erase(it);
      }
      return true;
    }
    case kJAuxOutReplace: {
      std::string coll = r.str();
      const std::uint32_t n = r.u32();
      std::set<CollectionRef> refs;
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        CollectionRef ref;
        ref.host = r.str();
        ref.name = r.str();
        if (r.ok()) refs.insert(std::move(ref));
      }
      if (!r.ok()) return true;
      if (refs.empty()) {
        aux_out_.erase(coll);
      } else {
        aux_out_[coll] = std::move(refs);
      }
      return true;
    }
    case kJEventSeen: {
      docmodel::EventId id;
      id.origin = r.str();
      id.seq = r.u64();
      if (r.ok()) seen_events_.insert(std::move(id));
      return true;
    }
    case kJForwardProcessed: {
      std::string key = r.str();
      if (r.ok()) processed_forwards_.insert(std::move(key));
      return true;
    }
    case kJChanSend: {
      const std::string peer = r.str();
      const std::uint64_t seq = r.u64();
      const std::vector<std::byte> flat = r.bytes();
      if (!r.ok()) return true;
      ensure_channels();
      if (auto env = wire::unpack(flat)) {
        channels_.restore_unacked(peer, seq, std::move(env).take());
      }
      return true;
    }
    case kJChanAck: {
      const std::string peer = r.str();
      const std::uint64_t seq = r.u64();
      if (r.ok()) channels_.restore_ack(peer, seq);
      return true;
    }
    case kJChanFloor: {
      const std::string peer = r.str();
      const std::uint64_t floor = r.u64();
      if (r.ok()) channels_.restore_floor(peer, floor);
      return true;
    }
    default:
      // Types 75..81 belong to the delivery stage.
      return delivery_.replay_journal(type, r);
  }
}

// --- reliable outbox ----------------------------------------------------------------

void AlertingService::attempt_delivery(const std::string& host,
                                       const wire::Envelope& env) {
  const NodeId dest = server_->host_ref(host);
  if (dest.valid()) {
    server_->send_to(dest, env);
  } else if (server_->gds().attached()) {
    // No direct reference to the host: use the GDS naming service and
    // anonymous relay — the paper's §6 point-to-point path. The payload
    // is the full envelope so msg_id-based acks work unchanged.
    server_->gds().relay(host, static_cast<std::uint16_t>(env.type),
                         env.flatten());
  }
  // Neither path available: the outbox retry will try again — the host
  // may register with the GDS later.
}

void AlertingService::ensure_channels() {
  if (channels_.attached()) return;
  channels_.set_policy(transport::ChannelPolicy{
      .initial_rto = config_.retry_interval,
      .backoff = 1.5,
      .max_rto = SimTime::micros(config_.retry_interval.as_micros() * 3 / 2),
      .jitter = 0.25});
  channels_.set_retransmit_hook(
      [this](const std::string&, const wire::Envelope&) {
        stats_.retries += 1;
      });
  channels_.set_persist_hooks(transport::ChannelSet::PersistHooks{
      .on_send =
          [this](const std::string& peer, std::uint64_t seq,
                 const wire::Envelope& env) {
            const std::vector<std::byte> flat = env.flatten();
            journal_append(kJChanSend, str_wire(peer) + 8 + 4 + flat.size(),
                           [&](wire::Writer& w) {
                             w.str(peer);
                             w.u64(seq);
                             w.bytes(flat);
                           });
          },
      .on_acked =
          [this](const std::string& peer, std::uint64_t seq) {
            journal_append(kJChanAck, str_wire(peer) + 8,
                           [&](wire::Writer& w) {
                             w.str(peer);
                             w.u64(seq);
                           });
          },
      .on_floor =
          [this](const std::string& peer, std::uint64_t floor) {
            journal_append(kJChanFloor, str_wire(peer) + 8,
                           [&](wire::Writer& w) {
                             w.str(peer);
                             w.u64(floor);
                           });
          }});
  channels_.attach(
      &server_->net(), server_->id(), server_->name(),
      [this](const std::string& host, const wire::Envelope& env) {
        attempt_delivery(host, env);
      },
      0xA1E27ULL ^ server_->id().value());
  delivery_.ensure_attached();
}

void AlertingService::send_reliable(const std::string& host,
                                    wire::Envelope env) {
  ensure_channels();
  channels_.send(host, std::move(env));
}

void AlertingService::on_timer_token(std::uint64_t token) {
  if (channels_.on_timer(token)) return;
  (void)delivery_.on_timer(token);
}

void AlertingService::collect_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"server", server_->name()}};
  registry.counter("alerting.events_published", labels) =
      stats_.events_published;
  registry.counter("alerting.events_received", labels) =
      stats_.events_received;
  registry.counter("alerting.duplicate_events", labels) =
      stats_.duplicate_events;
  registry.counter("alerting.notifications_sent", labels) =
      stats_.notifications_sent;
  registry.counter("alerting.notify_body_encodes", labels) =
      stats_.notify_body_encodes;
  registry.counter("alerting.filter_matches", labels) =
      stats_.filter_matches;
  registry.counter("alerting.aux_forwards", labels) = stats_.aux_forwards;
  registry.counter("alerting.renames", labels) = stats_.renames;
  registry.counter("alerting.rename_loops_cut", labels) =
      stats_.rename_loops_cut;
  registry.counter("alerting.retries", labels) = stats_.retries;
  registry.counter("alerting.batches_sent", labels) = stats_.batches_sent;
  registry.counter("alerting.batched_events", labels) =
      stats_.batched_events;
  registry.gauge("alerting.subscriptions", labels) =
      static_cast<double>(subs_.size());
  registry.gauge("alerting.outbox", labels) =
      static_cast<double>(channels_.unacked_total());
  // Reliable-channel substrate (see docs/TRANSPORT.md).
  const transport::ChannelStats& ch = channels_.stats();
  registry.counter("transport.channel.sends", labels) = ch.sends;
  registry.counter("transport.channel.retransmits", labels) =
      ch.retransmits;
  registry.counter("transport.channel.acked", labels) = ch.acked;
  registry.counter("transport.channel.dup_drops", labels) = ch.dup_drops;
  registry.counter("transport.channel.reorder_buffered", labels) =
      ch.reorder_buffered;
  registry.counter("transport.channel.reorder_overflows", labels) =
      ch.reorder_overflows;
  registry.counter("transport.channel.delivered", labels) = ch.delivered;
  registry.gauge("transport.channel.unacked", labels) =
      static_cast<double>(channels_.unacked_total());
  // Matcher instrumentation (see docs/PERFORMANCE.md "Matcher"): how much
  // work the interned eq index + shared-predicate memo + query cache saved.
  registry.counter("alerting.match.eq_probe_hits", labels) =
      match_stats_.eq_probe_hits;
  registry.counter("alerting.match.candidates", labels) =
      match_stats_.candidates;
  registry.counter("alerting.match.residual_evals", labels) =
      match_stats_.residual_evals;
  registry.counter("alerting.match.predicate_cache_hits", labels) =
      match_stats_.predicate_cache_hits;
  registry.counter("alerting.match.predicate_cache_misses", labels) =
      match_stats_.predicate_cache_misses;
  registry.counter("alerting.match.query_cache_hits", labels) =
      match_stats_.query_cache_hits;
  registry.counter("alerting.match.eq_probe_string_hashes", labels) =
      match_stats_.eq_probe_string_hashes;
  registry.gauge("alerting.match.distinct_residuals", labels) =
      static_cast<double>(index_.shared_predicate_count());
  // Delivery stage (see docs/DELIVERY.md).
  const DeliveryStats& d = delivery_.stats();
  registry.counter("delivery.enqueued", labels) = d.enqueued;
  registry.counter("delivery.sent_immediate", labels) = d.sent_immediate;
  registry.counter("delivery.digests_sent", labels) = d.digests_sent;
  registry.counter("delivery.digest_notifications", labels) =
      d.digest_notifications;
  registry.counter("delivery.coalesced_merges", labels) =
      d.coalesced_merges;
  registry.counter("delivery.spilled", labels) = d.spilled;
  registry.counter("delivery.stalls", labels) = d.stalls;
  registry.counter("delivery.resumes", labels) = d.resumes;
  registry.gauge("delivery.queue_depth", labels) =
      static_cast<double>(delivery_.queue_depth_total());
  registry.gauge("delivery.max_queue_depth", labels) =
      static_cast<double>(d.max_queue_depth);
  registry.gauge("delivery.inflight", labels) =
      static_cast<double>(delivery_.inflight());
}

}  // namespace gsalert::alerting

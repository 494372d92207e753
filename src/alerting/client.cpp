#include "alerting/client.h"

#include "wire/envelope.h"

namespace gsalert::alerting {

void Client::subscribe(const std::string& profile_text,
                       SubscribeCallback callback) {
  if (!endpoint_.attached()) {
    endpoint_.attach(&network(), id(), name(), kEndpointTag,
                     0xC11E27ULL ^ id().value());
  }
  SubscribeBody body{profile_text};
  wire::Writer w;
  body.encode(w);
  const std::uint64_t request_id = next_request_++;
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kSubscribe, name(), "", request_id, std::move(w));
  endpoint_.request(
      request_id, std::move(env), {.to = home_},
      [this, callback = std::move(callback)](const wire::Envelope* reply) {
        if (reply == nullptr) {
          if (callback) {
            callback(Error{ErrorCode::kUnreachable, "subscribe timed out"});
          }
          return;
        }
        auto ack = SubscribeAckBody::decode(reply->body);
        if (!ack.ok()) return;
        const SubscribeAckBody& body = ack.value();
        if (body.ok) {
          subscription_ids_.push_back(body.subscription_id);
          if (callback) callback(body.subscription_id);
        } else if (callback) {
          callback(Error{ErrorCode::kInvalidArgument, body.error});
        }
      });
}

void Client::cancel(SubscriptionId sub_id) {
  CancelBody body{sub_id};
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kCancelSubscription, name(), "", next_request_++,
      std::move(w));
  network().send(id(), home_, env.pack());
  std::erase(subscription_ids_, sub_id);
}

void Client::on_packet(NodeId from, const sim::Packet& packet) {
  auto decoded = wire::unpack(packet);
  if (!decoded.ok()) return;
  const wire::Envelope& env = decoded.value();
  if (env.type == wire::MessageType::kSubscribeAck) {
    auto ack = SubscribeAckBody::decode(env.body);
    if (!ack.ok()) return;
    // Duplicate acks (for retransmitted subscribes) miss the pending map
    // and are dropped here, so the subscription is recorded exactly once.
    endpoint_.complete(ack.value().request_id, env);
    return;
  }
  if (env.type == wire::MessageType::kNotification) {
    // Encode-once wire shape: the body is the bare event payload (shared
    // frame at the sender); the subscription id rides msg_id.
    auto event = decode_event(env.body);
    if (!event.ok()) return;
    record_notification(from, env.msg_id, std::move(event).take());
    return;
  }
  if (env.type == wire::MessageType::kNotificationDigest) {
    auto body = NotificationDigestBody::decode(env.body);
    if (!body.ok()) return;
    // Channel-managed digests (chan_base stamped) are acked always —
    // duplicates included, or the server's window never drains.
    if (env.chan_base != 0) {
      wire::Envelope ack =
          wire::make_envelope(wire::MessageType::kNotificationAck, name(),
                              env.src, env.msg_id, wire::Writer{});
      network().send(id(), from, ack.pack());
    }
    const std::string digest_key = std::to_string(from.value()) + "#" +
                                   std::to_string(body.value().digest_seq);
    if (!seen_digests_.insert(digest_key).second) {
      digest_replays_ += 1;
      return;
    }
    digests_received_ += 1;
    for (const NotificationDigestBody::Entry& entry : body.value().entries) {
      auto event = decode_event(entry.event);
      if (!event.ok()) continue;
      for (SubscriptionId sub : entry.subscription_ids) {
        record_notification(from, sub, event.value());
      }
    }
  }
}

void Client::record_notification(NodeId from, SubscriptionId sub,
                                 docmodel::Event event) {
  if (sink_) {
    // Bench fast path: no storage, no dedup ledger (see header).
    sink_(sub, event, network().now());
    return;
  }
  // Idempotency per sending server: a chaos-duplicated or retried
  // notification arrives again from the same node and is dropped, while
  // a migrated profile registration (snapshot restored at a second
  // server) legitimately notifies the same subscription id for the same
  // event from a different node.
  const std::string key = std::to_string(from.value()) + "#" +
                          std::to_string(sub) + "#" + event.id.str();
  if (!seen_notifications_.insert(key).second) return;
  notifications_.push_back(
      ReceivedNotification{sub, std::move(event), network().now()});
}

void Client::on_timer(std::uint64_t token) { endpoint_.on_timer(token); }

}  // namespace gsalert::alerting

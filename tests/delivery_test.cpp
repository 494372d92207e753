// Delivery-stage tests: encode-once fan-out, reliable default delivery
// across a blocked link, immediate bursts beyond the queue capacity,
// queued fan-outs across a server crash, credit backpressure with
// watermark hysteresis, coalesce/digest windows, spill policy, digest
// replay dedup at the client, journal replay across a 256-client crash,
// and the digest-vs-immediate equivalence property (docs/DELIVERY.md).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "alerting/delivery.h"
#include "alerting/messages.h"
#include "docmodel/collection.h"
#include "docmodel/document.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "journal/journal.h"
#include "sim/network.h"
#include "wire/envelope.h"

namespace gsalert::alerting {
namespace {

using docmodel::CollectionConfig;
using docmodel::DataSet;
using docmodel::Document;

Document doc(DocumentId id, const std::string& title) {
  Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.metadata.add("creator", "hinze");
  d.terms = {"alerting", "digital"};
  return d;
}

CollectionConfig coll_config(const std::string& name) {
  CollectionConfig c;
  c.name = name;
  c.indexed_attributes = {"title", "creator"};
  return c;
}

/// One alerting server ("Hamilton") on a Figure-2 GDS tree with
/// `n_clients` local clients, subscribed via the in-process API so
/// subscription ids are deterministic across worlds.
struct World {
  sim::Network net{13};
  gds::GdsTree tree;
  gsnet::GreenstoneServer* server = nullptr;
  AlertingService* alerting = nullptr;
  std::vector<Client*> clients;

  explicit World(int n_clients, AlertingConfig config = {},
                 gsnet::ServerConfig server_config = {}) {
    tree = gds::build_figure2_tree(net);
    server =
        net.make_node<gsnet::GreenstoneServer>("Hamilton", server_config);
    auto service = std::make_unique<AlertingService>(config);
    alerting = service.get();
    server->set_extension(std::move(service));
    server->attach_gds(tree.leaf_for(0)->id());
    for (int i = 0; i < n_clients; ++i) {
      auto* client = net.make_node<Client>("client-" + std::to_string(i));
      client->set_home(server->id());
      clients.push_back(client);
    }
    net.start();
    settle();
  }

  SubscriptionId subscribe(std::size_t client, const std::string& profile) {
    auto result = alerting->subscribe_local(clients[client]->id(), profile);
    EXPECT_TRUE(result.ok()) << profile;
    return result.ok() ? result.value() : 0;
  }

  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

// --- encode-once fan-out (perf_budget: max_notify_body_encodes_per_event) ---

TEST(DeliveryEncodeOnceTest, OneBodyEncodePerEventAtFanout1000) {
  World w{1000};
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    ASSERT_NE(w.subscribe(i, "host = hamilton"), 0u);
  }
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle(SimTime::seconds(1));
  // 1000 matches, one encode: every notification aliased the same frame.
  EXPECT_EQ(w.alerting->stats().notify_body_encodes, 1u);
  EXPECT_EQ(w.alerting->stats().notifications_sent, 1000u);
  for (Client* client : w.clients) {
    ASSERT_EQ(client->notifications().size(), 1u);
    EXPECT_EQ(client->notifications()[0].event.collection.str(),
              "Hamilton.A");
  }
}

// --- reliable default delivery ----------------------------------------------

TEST(DeliveryReliableTest, DefaultImmediateSurvivesBlockedClientLink) {
  World w{1};  // default AlertingConfig: immediate policy, default credits
  ASSERT_NE(w.subscribe(0, "host = hamilton AND type = collection_rebuilt"),
            0u);
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle();
  // The hit is matched while the server->client link is down: the first
  // send and every retransmit during the block are dropped on the wire.
  w.net.block_pair(w.server->id(), w.clients[0]->id());
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  w.settle(SimTime::seconds(3));
  EXPECT_EQ(w.clients[0]->notifications().size(), 0u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 1u);
  w.net.unblock_pair(w.server->id(), w.clients[0]->id());
  w.settle(SimTime::seconds(5));
  ASSERT_EQ(w.clients[0]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[0]->notifications()[0].event.build_version, 2u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
}

TEST(DeliveryReliableTest, ImmediateBurstBeyondCapacityIsNeverSpilled) {
  World w{1};  // default AlertingConfig: credits 8, queue_capacity 1024
  constexpr int kSubs = 50;
  constexpr int kRebuilds = 30;
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_NE(w.subscribe(0, "host = hamilton AND type = collection_rebuilt"),
              0u);
  }
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle();
  w.clients[0]->clear_notifications();
  // A synchronous burst on a healthy link: the first `credits` rebuilds
  // leave as one digest each, and the other 22 x 50 = 1100 immediate hits
  // wait for credit, more than credits + queue_capacity.
  for (int i = 0; i < kRebuilds; ++i) {
    ASSERT_TRUE(w.server->rebuild_collection(
        "A", DataSet{{doc(10 + static_cast<DocumentId>(i), "T")}}));
  }
  const DeliveryConfig& config = w.alerting->delivery().config();
  EXPECT_GT(w.alerting->delivery().queue_depth_total(),
            config.queue_capacity);
  w.settle(SimTime::seconds(3));
  EXPECT_EQ(w.alerting->delivery().stats().spilled, 0u);
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
  std::set<std::string> keys;
  for (const auto& received : w.clients[0]->notifications()) {
    keys.insert(std::to_string(received.subscription_id) + "#" +
                received.event.id.str());
  }
  EXPECT_EQ(w.clients[0]->notifications().size(),
            static_cast<std::size_t>(kSubs * kRebuilds));
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kSubs * kRebuilds));
}

TEST(DeliveryReliableTest, QueuedFanOutSurvivesServerCrash) {
  World w{1};
  constexpr int kSubs = 4;
  constexpr int kRebuilds = 12;
  std::vector<SubscriptionId> subs;
  for (int i = 0; i < kSubs; ++i) {
    subs.push_back(
        w.subscribe(0, "host = hamilton AND type = collection_rebuilt"));
    ASSERT_NE(subs.back(), 0u);
  }
  // One windowed subscription, so a queued run mixes policies.
  w.alerting->set_delivery_policy(
      subs.back(), DeliveryPolicy{DeliveryMode::kDigest, SimTime::seconds(5)});
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle(SimTime::seconds(6));
  w.clients[0]->clear_notifications();
  // With the client unreachable, the first `credits` rebuilds sit unacked
  // on the channel and the rest queue: each fan-out is one journaled run
  // carrying its payload once.
  w.net.block_pair(w.server->id(), w.clients[0]->id());
  for (int i = 0; i < kRebuilds; ++i) {
    ASSERT_TRUE(w.server->rebuild_collection(
        "A", DataSet{{doc(10 + static_cast<DocumentId>(i), "T")}}));
  }
  EXPECT_GT(w.alerting->delivery().queue_depth_total(), 0u);
  w.net.crash(w.server->id());
  w.net.restart(w.server->id());
  // The queue and the unacked digests came back from the journal.
  EXPECT_GT(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_GT(w.alerting->delivery().inflight(), 0u);
  w.net.unblock_pair(w.server->id(), w.clients[0]->id());
  w.settle(SimTime::seconds(20));
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
  std::set<std::string> keys;
  for (const auto& received : w.clients[0]->notifications()) {
    keys.insert(std::to_string(received.subscription_id) + "#" +
                received.event.id.str());
  }
  EXPECT_EQ(w.clients[0]->notifications().size(),
            static_cast<std::size_t>(kSubs * kRebuilds));
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(kSubs * kRebuilds));
}

// Journal replay at client scale: 256 clients, a quarter of them cut off.
// At the crash the world holds windowed entries, a spill (its done record
// removes an entry from the middle of a queue), queues that flushed part
// of their history, unacked digests, and cancelled subscriptions whose
// queued entries were dropped. Replay must rebuild exactly the
// pending set, and after the heal every surviving (sub, event) pair
// arrives once. Runs with the whole history in the log (every enq and
// done record replays) and with default compaction (snapshot plus tail).
void crash_many_clients_and_heal(const journal::JournalPolicy& policy) {
  AlertingConfig config;
  config.delivery.credits = 2;
  config.delivery.queue_capacity = 3;
  constexpr std::size_t kClients = 256;
  constexpr int kRebuilds = 6;
  World w{kClients, config, gsnet::ServerConfig{.journal = policy}};
  const std::string profile = "host = hamilton AND type = collection_rebuilt";
  std::vector<SubscriptionId> immediate;
  std::vector<SubscriptionId> windowed;
  for (std::size_t c = 0; c < kClients; ++c) {
    immediate.push_back(w.subscribe(c, profile));
    windowed.push_back(w.subscribe(c, profile));
    w.alerting->set_delivery_policy(
        windowed.back(),
        c % 2 == 0
            ? DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(100)}
            : DeliveryPolicy{DeliveryMode::kDigest, SimTime::millis(150)});
  }
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle(SimTime::seconds(1));
  for (Client* client : w.clients) client->clear_notifications();

  // Blocked clients spend their two credits on the first rebuild (its
  // immediate digest, then its windowed flush). From then on each rebuild
  // queues an immediate entry ahead of a windowed one, and at capacity the
  // oldest windowed entry spills from behind the immediate entry before it.
  for (std::size_t c = 0; c < kClients; c += 4) {
    w.net.block_pair(w.server->id(), w.clients[c]->id());
  }
  for (int i = 0; i < kRebuilds; ++i) {
    ASSERT_TRUE(w.server->rebuild_collection(
        "A", DataSet{{doc(10 + static_cast<DocumentId>(i), "T")}}));
    // The last rebuild gets no settle: healthy clients then hold queued
    // windowed entries and unacked immediate digests at the crash.
    if (i + 1 < kRebuilds) w.settle(SimTime::millis(400));
  }
  const DeliveryStage& stage = w.alerting->delivery();
  const std::uint64_t spilled = stage.stats().spilled;
  EXPECT_GT(spilled, 0u);
  // Cancel the windowed subscription of every other blocked client: its
  // queued entries drop now, and the replayed cancel drops them again.
  const std::size_t depth_before_cancel = stage.queue_depth_total();
  for (std::size_t c = 4; c < kClients; c += 8) {
    ASSERT_TRUE(w.alerting->cancel_local(windowed[c]).is_ok());
  }
  const std::size_t dropped = depth_before_cancel - stage.queue_depth_total();
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(stage.queue_depth_total(), 0u);
  EXPECT_GT(stage.inflight(), kClients / 4);
  const std::vector<std::string> before = stage.pending_keys();

  w.net.crash(w.server->id());
  w.net.restart(w.server->id());
  w.net.run_until(w.net.now());
  if (policy.compact_threshold_bytes == 0) {
    // Thousands of records: every enq/done record came back from the log.
    EXPECT_GT(w.server->journal()->stats().records_replayed,
              kClients * kRebuilds);
  }
  EXPECT_EQ(stage.pending_keys(), before);

  for (std::size_t c = 0; c < kClients; c += 4) {
    w.net.unblock_pair(w.server->id(), w.clients[c]->id());
  }
  w.settle(SimTime::seconds(30));
  EXPECT_EQ(stage.queue_depth_total(), 0u);
  EXPECT_EQ(stage.inflight(), 0u);
  EXPECT_EQ(stage.stats().spilled, spilled);  // nothing spilled after it

  // Immediate hits never spill: every one arrives. Windowed hits arrive
  // unless spilled or dropped by the cancel. No pair arrives twice.
  std::size_t windowed_delivered = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    std::set<std::string> keys;
    std::size_t immediate_delivered = 0;
    for (const auto& received : w.clients[c]->notifications()) {
      EXPECT_TRUE(keys.insert(std::to_string(received.subscription_id) +
                              "#" + received.event.id.str())
                      .second)
          << "duplicate for client " << c;
      if (received.subscription_id == immediate[c]) {
        immediate_delivered += 1;
      } else {
        EXPECT_EQ(received.subscription_id, windowed[c]);
        windowed_delivered += 1;
      }
    }
    EXPECT_EQ(immediate_delivered, static_cast<std::size_t>(kRebuilds))
        << "client " << c;
  }
  EXPECT_EQ(windowed_delivered + spilled + dropped, kClients * kRebuilds);
}

TEST(DeliveryReliableTest, ManyClientCrashReplaysPendingSetFromLog) {
  crash_many_clients_and_heal(
      journal::JournalPolicy{.compact_threshold_bytes = 0});
}

TEST(DeliveryReliableTest, ManyClientCrashReplaysPendingSetFromSnapshot) {
  crash_many_clients_and_heal(journal::JournalPolicy{});
}

TEST(DeliveryConfigTest, ZeroCreditsRejected) {
  AlertingConfig config;
  config.delivery.credits = 0;
  EXPECT_THROW(AlertingService{config}, std::invalid_argument);
}

// --- credit-based backpressure ----------------------------------------------

TEST(DeliveryBackpressureTest, StallsAtCreditsAndResumesAtWatermark) {
  AlertingConfig config;
  config.delivery.credits = 2;  // low watermark defaults to credits/2 = 1
  World w{1, config};
  // Type-scoped so each rebuild matches exactly one event (a rebuild also
  // raises document-delta events).
  ASSERT_NE(w.subscribe(0, "host = hamilton AND type = collection_rebuilt"),
            0u);
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle();
  w.clients[0]->clear_notifications();
  // A synchronous burst: six rebuilds before any ack can come back. Two
  // ride the credit window, the rest stall into the queue.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(w.server->rebuild_collection(
        "A", DataSet{{doc(10 + static_cast<DocumentId>(i), "T")}}));
  }
  EXPECT_GE(w.alerting->delivery().stats().stalls, 1u);
  EXPECT_GT(w.alerting->delivery().queue_depth_total(), 0u);
  w.settle(SimTime::seconds(3));
  // Acks drained the window back to the watermark and the queue flushed.
  EXPECT_GE(w.alerting->delivery().stats().resumes, 1u);
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
  EXPECT_EQ(w.clients[0]->notifications().size(), 6u);
}

// --- coalescing + digest windows --------------------------------------------

TEST(DeliveryCoalesceTest, WindowBatchesBurstIntoOneDigest) {
  World w{1};
  const SubscriptionId sub =
      w.subscribe(0, "host = hamilton AND type = collection_rebuilt");
  ASSERT_NE(sub, 0u);
  w.alerting->set_delivery_policy(
      sub, DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(200)});
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(3, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(4, "T")}}));
  EXPECT_EQ(w.clients[0]->notifications().size(), 0u);  // window open
  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.alerting->delivery().stats().digests_sent, 1u);
  EXPECT_EQ(w.alerting->delivery().stats().digest_notifications, 3u);
  EXPECT_EQ(w.clients[0]->digests_received(), 1u);
  EXPECT_EQ(w.clients[0]->notifications().size(), 3u);
}

TEST(DeliverySpillTest, CapacityDropsOldestCoalescibleFirst) {
  AlertingConfig config;
  config.delivery.queue_capacity = 2;
  World w{1, config};
  const SubscriptionId sub =
      w.subscribe(0, "host = hamilton AND type = collection_rebuilt");
  ASSERT_NE(sub, 0u);
  w.alerting->set_delivery_policy(
      sub, DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(500)});
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(3, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(4, "T")}}));
  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.alerting->delivery().stats().spilled, 1u);
  EXPECT_EQ(w.alerting->delivery().stats().max_queue_depth, 2u);
  // The two newest rebuilds survived; the oldest spilled.
  ASSERT_EQ(w.clients[0]->notifications().size(), 2u);
  std::set<std::uint64_t> versions;
  for (const auto& received : w.clients[0]->notifications()) {
    versions.insert(received.event.build_version);
  }
  EXPECT_FALSE(versions.contains(2u)) << "oldest rebuild not spilled";
}

// --- digest replay dedup at the client --------------------------------------

TEST(DeliveryDigestReplayTest, ClientDropsReplayedDigestWholesale) {
  sim::Network net{7};
  auto* client = net.make_node<Client>("c");
  auto* server = net.make_node<gsnet::GreenstoneServer>("srv");
  net.start();

  NotificationDigestBody body;
  body.digest_seq = 7;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    docmodel::Event event;
    event.id = {"srv", i};
    event.collection = {"srv", "A"};
    event.build_version = i;
    body.entries.push_back({/*subscription_ids=*/{i}, encode_event(event)});
  }
  wire::Writer w;
  body.encode(w);
  const wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotificationDigest, "srv", "c",
                          1, std::move(w));
  client->on_packet(server->id(), env.pack());
  client->on_packet(server->id(), env.pack());  // wire-level replay
  EXPECT_EQ(client->notifications().size(), 2u);
  EXPECT_EQ(client->digests_received(), 1u);
  EXPECT_EQ(client->digest_replays_dropped(), 1u);
}

// --- property: digest mode == immediate mode modulo dedup -------------------

/// Drive the same deterministic event sequence through an all-immediate
/// world and a narrow-credit world with mixed policies; the delivered set
/// (client, subscription, event) must be identical — no lost, no phantom
/// notifications.
TEST(DeliveryEquivalenceTest, DigestDeliverySetEqualsImmediateSet) {
  const auto drive = [](World& w) {
    ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                         DataSet{{doc(1, "T")}}));
    ASSERT_TRUE(w.server->add_collection(coll_config("B"),
                                         DataSet{{doc(2, "T")}}));
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(w.server->rebuild_collection(
          "A", DataSet{{doc(10 + static_cast<DocumentId>(round), "T")}}));
      if (round % 2 == 0) {
        ASSERT_TRUE(w.server->rebuild_collection(
            "B", DataSet{{doc(20 + static_cast<DocumentId>(round), "T")}}));
      }
      w.settle(SimTime::millis(round % 2 == 0 ? 40 : 350));
    }
    w.settle(SimTime::seconds(3));
  };
  const auto delivered = [](World& w) {
    std::set<std::string> keys;
    for (std::size_t i = 0; i < w.clients.size(); ++i) {
      for (const auto& received : w.clients[i]->notifications()) {
        keys.insert(std::to_string(i) + "#" +
                    std::to_string(received.subscription_id) + "#" +
                    received.event.id.str());
      }
    }
    return keys;
  };
  const std::vector<std::string> profiles = {
      "host = hamilton", "ref = hamilton.a", "creator = hinze",
      "host = hamilton AND type = collection_rebuilt"};

  World immediate{3};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      ASSERT_NE(immediate.subscribe(c, profiles[p]), 0u);
    }
  }
  drive(immediate);

  AlertingConfig mixed_config;
  mixed_config.delivery.credits = 3;
  World mixed{3, mixed_config};
  std::size_t n = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const SubscriptionId sub = mixed.subscribe(c, profiles[p]);
      ASSERT_NE(sub, 0u);
      DeliveryPolicy policy;
      switch (n++ % 3) {
        case 1:
          policy = {DeliveryMode::kCoalesce, SimTime::millis(150)};
          break;
        case 2:
          policy = {DeliveryMode::kDigest, SimTime::millis(400)};
          break;
        default:
          break;  // immediate (one digest per event fan-out)
      }
      mixed.alerting->set_delivery_policy(sub, policy);
    }
  }
  drive(mixed);

  EXPECT_EQ(delivered(immediate), delivered(mixed));
  EXPECT_FALSE(delivered(immediate).empty());
  EXPECT_GE(mixed.alerting->delivery().stats().digests_sent, 1u);
  EXPECT_EQ(mixed.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(mixed.alerting->delivery().inflight(), 0u);
}

}  // namespace
}  // namespace gsalert::alerting

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "gds/gds_client.h"
#include "gds/gds_server.h"
#include "gds/messages.h"
#include "gds/tree_builder.h"
#include "sim/network.h"
#include "wire/envelope.h"

namespace gsalert::gds {
namespace {

constexpr std::uint16_t kTestPayload = 999;

/// Minimal GS-server stand-in: registers with a GDS node and records every
/// payload delivered to it.
class FakeServer : public sim::Node {
 public:
  void attach_gds(NodeId gds_node) { pending_gds_ = gds_node; }

  void on_start() override {
    client_.attach(&network(), id(), name(), pending_gds_);
    client_.start();
  }
  void on_restart() override { client_.restart(); }

  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto decoded = wire::unpack(packet);
    if (!decoded.ok()) return;
    const wire::Envelope& env = decoded.value();
    if (env.type == wire::MessageType::kGdsRegisterAck) {
      ++register_acks;
      return;
    }
    if (env.type == wire::MessageType::kGdsResolveReply) {
      client_.handle_resolve_reply(env);
      return;
    }
    if (env.type == wire::MessageType::kGdsDeliver) {
      auto body = BroadcastBody::decode(env.body);
      if (body.ok()) {
        deliveries.push_back(body.value().origin_server + "/" +
                             std::to_string(body.value().seq));
      }
    }
  }
  void on_timer(std::uint64_t token) override {
    if (token == GdsClient::kRefreshTimer) client_.on_refresh_timer();
  }

  GdsClient& client() { return client_; }

  std::vector<std::string> deliveries;
  int register_acks = 0;

 private:
  GdsClient client_;
  NodeId pending_gds_;
};

struct World {
  sim::Network net{7};
  GdsTree tree;
  std::vector<FakeServer*> servers;

  /// Fig-2-like world: a GDS tree plus n registered servers spread over
  /// the leaves.
  void build(int fanout, int depth, int n_servers, GdsConfig config = {}) {
    tree = build_tree(net, fanout, depth, config);
    for (int i = 0; i < n_servers; ++i) {
      auto* s = net.make_node<FakeServer>("server-" + std::to_string(i + 1));
      s->attach_gds(tree.leaf_for(static_cast<std::size_t>(i))->id());
      servers.push_back(s);
    }
    net.start();
    net.run_until(SimTime::millis(100));  // let registrations settle
  }
};

TEST(TreeBuilderTest, BuildsExpectedShape) {
  sim::Network net;
  const GdsTree tree = build_tree(net, 2, 3);
  ASSERT_EQ(tree.nodes.size(), 7u);  // 1 + 2 + 4
  EXPECT_EQ(tree.root()->stratum(), 1);
  EXPECT_FALSE(tree.root()->parent().valid());
  EXPECT_EQ(tree.nodes[1]->parent(), tree.root()->id());
  EXPECT_EQ(tree.nodes[3]->stratum(), 3);
  EXPECT_EQ(tree.leaves().size(), 4u);
}

TEST(TreeBuilderTest, Figure2Topology) {
  sim::Network net;
  const GdsTree tree = build_figure2_tree(net);
  ASSERT_EQ(tree.nodes.size(), 7u);
  // Strata: 1 / 2,5,7 on stratum 2 / 3,4,6 on stratum 3.
  EXPECT_EQ(tree.nodes[0]->stratum(), 1);
  EXPECT_EQ(tree.nodes[1]->stratum(), 2);
  EXPECT_EQ(tree.nodes[4]->stratum(), 2);
  EXPECT_EQ(tree.nodes[6]->stratum(), 2);
  EXPECT_EQ(tree.nodes[2]->stratum(), 3);
  EXPECT_EQ(tree.nodes[2]->parent(), tree.nodes[1]->id());
  EXPECT_EQ(tree.nodes[5]->parent(), tree.nodes[4]->id());
  EXPECT_EQ(tree.nodes[6]->parent(), tree.nodes[0]->id());
}

TEST(GdsRegistrationTest, ServerRegistersAndIsAcked) {
  World w;
  w.build(2, 2, 3);
  EXPECT_GE(w.servers[0]->register_acks, 1);
  // Name knowledge propagates to the root via advertisements.
  EXPECT_TRUE(w.tree.root()->knows_name("server-1"));
  EXPECT_TRUE(w.tree.root()->knows_name("server-2"));
  EXPECT_TRUE(w.tree.root()->knows_name("server-3"));
  EXPECT_FALSE(w.tree.root()->knows_name("ghost"));
}

TEST(GdsBroadcastTest, ReachesEveryServerExactlyOnce) {
  World w;
  w.build(2, 3, 10);
  w.servers[0]->client().broadcast(kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  for (std::size_t i = 1; i < w.servers.size(); ++i) {
    EXPECT_EQ(w.servers[i]->deliveries.size(), 1u) << "server " << i;
  }
  // The origin must not be echoed its own broadcast.
  EXPECT_TRUE(w.servers[0]->deliveries.empty());
}

TEST(GdsBroadcastTest, ManyBroadcastsNoDuplicates) {
  World w;
  w.build(3, 3, 12);
  for (int round = 0; round < 5; ++round) {
    for (auto* s : w.servers) s->client().broadcast(kTestPayload, {});
  }
  w.net.run_until(SimTime::seconds(2));
  // Every server sees every broadcast from the 11 others, 5 rounds each.
  for (auto* s : w.servers) {
    EXPECT_EQ(s->deliveries.size(), 55u);
  }
}

TEST(GdsBroadcastTest, DedupSuppressesNothingInACleanTree) {
  World w;
  w.build(2, 3, 6);
  w.servers[0]->client().broadcast(kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  std::uint64_t suppressed = 0;
  for (auto* node : w.tree.nodes) {
    suppressed += node->stats().duplicates_suppressed;
  }
  // A tree has no redundant paths, so dedup never fires.
  EXPECT_EQ(suppressed, 0u);
}

TEST(GdsRelayTest, RoutesPointToPointAcrossBranches) {
  World w;
  w.build(2, 3, 8);
  // server-1 and server-8 registered at different leaves.
  w.servers[0]->client().relay("server-8", kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  ASSERT_EQ(w.servers[7]->deliveries.size(), 1u);
  EXPECT_EQ(w.servers[7]->deliveries[0], "server-1/0");
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_TRUE(w.servers[i]->deliveries.empty());
  }
}

TEST(GdsRelayTest, UnknownTargetCountedUnroutable) {
  World w;
  w.build(2, 2, 2);
  w.servers[0]->client().relay("nonexistent", kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  std::uint64_t unroutable = 0;
  for (auto* node : w.tree.nodes) unroutable += node->stats().unroutable;
  EXPECT_EQ(unroutable, 1u);
}

TEST(GdsRelayTest, RegisterAfterRelayDeliversExactlyOnce) {
  World w;
  w.build(2, 2, 2);
  auto* late = w.net.make_node<FakeServer>("late-server");
  late->attach_gds(w.tree.leaf_for(0)->id());

  // The target is not registered anywhere yet: the relay climbs to the
  // root and parks there (counted unroutable-for-now) instead of dropping.
  w.servers[0]->client().relay("late-server", kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  EXPECT_TRUE(late->deliveries.empty());
  std::uint64_t parked = 0;
  for (auto* node : w.tree.nodes) parked += node->parked_count();
  EXPECT_EQ(parked, 1u);

  // Registration propagates the name up the tree and flushes the parked
  // relay back down — delivered exactly once, within the park TTL.
  late->on_start();
  w.net.run_until(SimTime::seconds(5));
  ASSERT_EQ(late->deliveries.size(), 1u);
  EXPECT_EQ(late->deliveries[0], "server-1/0");
  parked = 0;
  std::uint64_t flushed = 0;
  for (auto* node : w.tree.nodes) {
    parked += node->parked_count();
    flushed += node->park_stats().flushed;
  }
  EXPECT_EQ(parked, 0u);
  EXPECT_GE(flushed, 1u);
}

TEST(GdsRelayTest, ParkedRelayExpiresByTtl) {
  GdsConfig config;
  config.park_ttl = SimTime::seconds(2);
  World w;
  w.build(2, 2, 2, config);
  w.servers[0]->client().relay("never-registers", kTestPayload, {});
  w.net.run_until(SimTime::seconds(1));
  std::uint64_t parked = 0;
  for (auto* node : w.tree.nodes) parked += node->parked_count();
  EXPECT_EQ(parked, 1u);

  // Nothing registers the name: the heartbeat sweep expires the custody.
  w.net.run_until(SimTime::seconds(10));
  parked = 0;
  std::uint64_t expired = 0;
  for (auto* node : w.tree.nodes) {
    parked += node->parked_count();
    expired += node->park_stats().expired;
  }
  EXPECT_EQ(parked, 0u);
  EXPECT_EQ(expired, 1u);
}

TEST(GdsMulticastTest, OnlyTargetsReceive) {
  World w;
  w.build(2, 3, 8);
  w.servers[0]->client().multicast({"server-3", "server-6"}, kTestPayload,
                                   {});
  w.net.run_until(SimTime::seconds(1));
  EXPECT_EQ(w.servers[2]->deliveries.size(), 1u);
  EXPECT_EQ(w.servers[5]->deliveries.size(), 1u);
  EXPECT_TRUE(w.servers[1]->deliveries.empty());
  EXPECT_TRUE(w.servers[7]->deliveries.empty());
}

TEST(GdsMulticastTest, SharedPathCarriesPayloadOncePerEdge) {
  // Multicast to two servers behind the same leaf: the edge from root side
  // to that leaf must carry one message, not two.
  World w;
  w.build(2, 2, 4);  // 3 GDS nodes (1 root + 2 leaves), servers round-robin
  w.net.reset_stats();
  // servers 1 and 3 share leaf 1; servers 2 and 4 share leaf 2.
  w.servers[0]->client().multicast({"server-2", "server-4"}, kTestPayload,
                                   {});
  // Stop before the first heartbeat (t=500ms) so the send count is exact.
  w.net.run_until(SimTime::millis(400));
  EXPECT_EQ(w.servers[1]->deliveries.size(), 1u);
  EXPECT_EQ(w.servers[3]->deliveries.size(), 1u);
  // Path: server1 -> leaf1 -> root -> leaf2 -> {server2, server4}
  // = 1 + 1 + 1 + 2 = 5 sends total.
  EXPECT_EQ(w.net.stats().sent, 5u);
}

TEST(GdsResolveTest, FindsNamesAcrossTheTree) {
  World w;
  w.build(2, 3, 8);
  bool found = false;
  std::string owner;
  w.servers[0]->client().resolve("server-8", [&](bool f, const std::string& o) {
    found = f;
    owner = o;
  });
  w.net.run_until(SimTime::seconds(1));
  EXPECT_TRUE(found);
  EXPECT_FALSE(owner.empty());
}

TEST(GdsResolveTest, UnknownNameReportsNotFound) {
  World w;
  w.build(2, 2, 2);
  bool called = false, found = true;
  w.servers[0]->client().resolve("ghost", [&](bool f, const std::string&) {
    called = true;
    found = f;
  });
  w.net.run_until(SimTime::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
}

TEST(GdsFailureTest, BroadcastSurvivesInnerNodeFailureViaReparent) {
  GdsConfig config;
  config.heartbeat_interval = SimTime::millis(200);
  config.heartbeat_miss_limit = 2;
  World w;
  w.build(2, 3, 8, config);

  // Kill an inner (stratum 2) node; its children re-parent to the root.
  GdsServer* inner = w.tree.nodes[1];
  ASSERT_EQ(inner->stratum(), 2);
  w.net.crash(inner->id());
  w.net.run_until(SimTime::seconds(8));  // heartbeats + registration refresh

  for (auto* s : w.servers) s->deliveries.clear();
  w.servers[7]->client().broadcast(kTestPayload, {});
  w.net.run_until(SimTime::seconds(12));

  // Servers registered at the dead node's leaf children must still get the
  // broadcast (their GDS nodes re-parented to the root).
  int received = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    received += static_cast<int>(w.servers[i]->deliveries.size());
  }
  EXPECT_EQ(received, 7) << "all other servers reachable after re-parent";
  std::uint64_t reparents = 0;
  for (auto* node : w.tree.nodes) reparents += node->stats().reparents;
  EXPECT_GE(reparents, 2u);
}

TEST(GdsFailureTest, GdsRestartRecoversRegistrationsFromJournal) {
  World w;
  w.build(2, 2, 4);

  GdsServer* leaf = w.tree.nodes[1];
  const std::size_t before = leaf->registered_count();
  EXPECT_GT(before, 0u);
  w.net.crash(leaf->id());
  w.net.run_until(SimTime::seconds(1));
  w.net.restart(leaf->id());
  w.net.run_until(SimTime::millis(1100));  // let on_restart execute
  // Registrations are journaled: replay restores them without waiting
  // for the clients' periodic refresh.
  EXPECT_EQ(leaf->registered_count(), before);

  // And broadcasts flow again end-to-end.
  for (auto* s : w.servers) s->deliveries.clear();
  w.servers[0]->client().broadcast(kTestPayload, {});
  w.net.run_until(SimTime::seconds(8));
  int received = 0;
  for (std::size_t i = 1; i < w.servers.size(); ++i) {
    received += static_cast<int>(w.servers[i]->deliveries.size());
  }
  EXPECT_EQ(received, 3);
}

TEST(GdsFailureTest, SiblingRingSurvivesRootDeath) {
  GdsConfig config;
  config.heartbeat_interval = SimTime::millis(200);
  config.heartbeat_miss_limit = 2;
  World w;
  w.build(2, 2, 4, config);
  // Root dies; the stratum-2 nodes fall back to their sibling ring, which
  // keeps the directory connected (the cyclic parent pointers are safe
  // because broadcast dedup suppresses the redundant path).
  w.net.crash(w.tree.root()->id());
  w.net.run_until(SimTime::seconds(5));
  for (auto* s : w.servers) s->deliveries.clear();
  w.servers[0]->client().broadcast(kTestPayload, {});
  w.net.run_until(SimTime::seconds(10));
  EXPECT_EQ(w.servers[1]->deliveries.size(), 1u);
  EXPECT_EQ(w.servers[2]->deliveries.size(), 1u);
  EXPECT_EQ(w.servers[3]->deliveries.size(), 1u);
}

TEST(GdsUnregisterTest, NameRemovedUpTheTree) {
  World w;
  w.build(2, 2, 2);
  EXPECT_TRUE(w.tree.root()->knows_name("server-1"));
  w.servers[0]->client().unregister();
  w.net.run_until(SimTime::seconds(1));
  EXPECT_FALSE(w.tree.root()->knows_name("server-1"));
  EXPECT_TRUE(w.tree.root()->knows_name("server-2"));
}

TEST(GdsMergeTest, IndependentTreesFederateAtRuntime) {
  // Two separately grown directory networks (each with its own root and
  // servers). Before the merge, broadcasts stay within each network;
  // after the joining root adopts a node of the other tree as its parent,
  // broadcasts and name resolution span both.
  sim::Network net{44};
  GdsTree tree_a = build_tree(net, 2, 2);
  GdsTree tree_b = build_tree(net, 2, 2, GdsConfig{}, "gdsb");

  std::vector<FakeServer*> servers;
  for (int i = 0; i < 4; ++i) {
    auto* s = net.make_node<FakeServer>("server-" + std::to_string(i + 1));
    const GdsTree& tree = i < 2 ? tree_a : tree_b;
    s->attach_gds(tree.leaf_for(static_cast<std::size_t>(i))->id());
    servers.push_back(s);
  }
  net.start();
  net.run_until(SimTime::millis(200));

  servers[0]->client().broadcast(kTestPayload, {});
  net.run_until(SimTime::millis(600));
  EXPECT_EQ(servers[1]->deliveries.size(), 1u);
  EXPECT_TRUE(servers[2]->deliveries.empty());  // other network
  EXPECT_TRUE(servers[3]->deliveries.empty());
  EXPECT_FALSE(tree_a.root()->knows_name("server-3"));

  // Merge: tree B's root joins under tree A's root.
  tree_b.root()->adopt_parent(tree_a.root()->id());
  net.run_until(net.now() + SimTime::seconds(1));
  EXPECT_TRUE(tree_a.root()->knows_name("server-3"));
  EXPECT_TRUE(tree_a.root()->knows_name("server-4"));

  for (auto* s : servers) s->deliveries.clear();
  servers[0]->client().broadcast(kTestPayload, {});
  net.run_until(net.now() + SimTime::seconds(1));
  EXPECT_EQ(servers[1]->deliveries.size(), 1u);
  EXPECT_EQ(servers[2]->deliveries.size(), 1u);
  EXPECT_EQ(servers[3]->deliveries.size(), 1u);

  // Point-to-point across the former boundary.
  servers[3]->client().relay("server-1", kTestPayload, {});
  net.run_until(net.now() + SimTime::seconds(1));
  EXPECT_EQ(servers[0]->deliveries.size(), 1u);
}

TEST(GdsMergeTest, ResolveWorksAcrossMergedTrees) {
  sim::Network net{45};
  GdsTree tree_a = build_tree(net, 2, 2);
  GdsTree tree_b = build_tree(net, 2, 2, GdsConfig{}, "gdsb");
  auto* s1 = net.make_node<FakeServer>("server-1");
  s1->attach_gds(tree_a.leaf_for(0)->id());
  auto* s2 = net.make_node<FakeServer>("server-2");
  s2->attach_gds(tree_b.leaf_for(0)->id());
  net.start();
  net.run_until(SimTime::millis(200));

  bool found = true;
  s1->client().resolve("server-2",
                       [&](bool f, const std::string&) { found = f; });
  net.run_until(net.now() + SimTime::seconds(1));
  EXPECT_FALSE(found) << "pre-merge: other network invisible";

  tree_b.root()->adopt_parent(tree_a.root()->id());
  net.run_until(net.now() + SimTime::seconds(1));
  s1->client().resolve("server-2",
                       [&](bool f, const std::string&) { found = f; });
  net.run_until(net.now() + SimTime::seconds(1));
  EXPECT_TRUE(found) << "post-merge: resolvable through the joined root";
}

TEST(GdsRelayTest, TtlExhaustionCountsUnroutable) {
  // A relay whose target never resolves must die by TTL, not loop.
  World w;
  w.build(2, 3, 2);
  wire::Envelope env;
  env.type = wire::MessageType::kGdsRelay;
  env.src = "server-1";
  env.ttl = 2;  // fewer hops than the tree's height
  gds::RelayBody body;
  body.origin_server = "server-1";
  body.dst_server = "server-2";
  wire::Writer bw;
  body.encode(bw);
  env.body = std::move(bw).take();
  // Inject at a leaf that does not know server-2 directly.
  GdsServer* leaf = w.tree.nodes.back();
  w.net.send(w.servers[0]->id(), leaf->id(), env.pack());
  w.net.run_until(w.net.now() + SimTime::seconds(1));
  std::uint64_t unroutable = 0;
  for (auto* node : w.tree.nodes) unroutable += node->stats().unroutable;
  // The relay climbs two hops and dies at the root with ttl 0 — exactly
  // one unroutable count, and the target never hears anything.
  EXPECT_EQ(unroutable, 1u);
  EXPECT_TRUE(w.servers[1]->deliveries.empty());
}

TEST(GdsHeartbeatTest, StaleAckFromOldParentIgnored) {
  GdsConfig config;
  config.heartbeat_interval = SimTime::millis(200);
  config.heartbeat_miss_limit = 2;
  World w;
  w.build(2, 3, 4, config);
  GdsServer* child = w.tree.nodes[3];  // stratum 3
  const NodeId old_parent = child->parent();
  w.net.crash(old_parent);
  w.net.run_until(w.net.now() + SimTime::seconds(3));
  EXPECT_NE(child->parent(), old_parent);  // re-parented to the root
  const NodeId new_parent = child->parent();
  // The old parent coming back does not flip the child again.
  w.net.restart(old_parent);
  w.net.run_until(w.net.now() + SimTime::seconds(3));
  EXPECT_EQ(child->parent(), new_parent);
}

// --- latency-aware adaptive parent selection ------------------------------

GdsConfig adaptive_config() {
  GdsConfig config;
  config.adaptive_parent = true;
  return config;
}

TEST(GdsAdaptiveTest, ReparentsTowardCloserProperAncestorRepeatedly) {
  World w;
  w.build(2, 3, 4, adaptive_config());
  GdsServer* child = w.tree.nodes[3];             // stratum 3
  GdsServer* stratum2 = w.tree.nodes[1];          // original parent
  GdsServer* root = w.tree.nodes[0];
  ASSERT_EQ(child->parent(), stratum2->id());

  // Phase 1: the assigned parent's link degrades; the root (the other
  // proper ancestor) is much closer. The child must switch under the
  // stratum constraint — the new parent sits on a strictly lower stratum.
  w.net.set_path(child->id(), stratum2->id(), {.latency = SimTime::millis(60)});
  w.net.set_path(child->id(), root->id(), {.latency = SimTime::millis(5)});
  w.net.run_until(w.net.now() + SimTime::seconds(15));
  EXPECT_EQ(child->parent(), root->id());
  EXPECT_EQ(child->stats().adaptive_reparents, 1u);
  EXPECT_LT(root->stratum(), child->stratum());

  // Phase 2: conditions invert; the child re-parents again, still to a
  // strictly-lower-stratum ancestor. RTT estimates are EWMA-smoothed, so
  // give the new readings time to cross the hysteresis threshold.
  w.net.set_path(child->id(), stratum2->id(), {.latency = SimTime::millis(5)});
  w.net.set_path(child->id(), root->id(), {.latency = SimTime::millis(80)});
  w.net.run_until(w.net.now() + SimTime::seconds(25));
  EXPECT_EQ(child->parent(), stratum2->id());
  EXPECT_EQ(child->stats().adaptive_reparents, 2u);
  EXPECT_LT(stratum2->stratum(), child->stratum());

  // The tree still floods exactly-once after repeated adaptive switches.
  w.servers[0]->client().broadcast(kTestPayload, {});
  w.net.run_until(w.net.now() + SimTime::seconds(2));
  for (std::size_t i = 1; i < w.servers.size(); ++i) {
    EXPECT_EQ(w.servers[i]->deliveries.size(), 1u) << "server " << i;
  }
}

TEST(GdsAdaptiveTest, SiblingRingNeverChosenEvenWhenClosest) {
  // A stratum-2 node's only proper ancestor is the root; its sibling-ring
  // entries are failover-only. Even with a sibling one millisecond away
  // and the root a hundred, RTT-driven selection must not cross strata.
  World w;
  w.build(2, 3, 4, adaptive_config());
  GdsServer* node = w.tree.nodes[1];     // stratum 2
  GdsServer* sibling = w.tree.nodes[2];  // stratum 2 (ring fallback)
  GdsServer* root = w.tree.nodes[0];
  w.net.set_path(node->id(), sibling->id(), {.latency = SimTime::millis(1)});
  w.net.set_path(node->id(), root->id(), {.latency = SimTime::millis(100)});
  w.net.run_until(w.net.now() + SimTime::seconds(20));
  EXPECT_EQ(node->parent(), root->id());
  EXPECT_EQ(node->stats().adaptive_reparents, 0u);
}

TEST(GdsAdaptiveTest, HysteresisNeverOscillatesOnJitteryMatrix) {
  // Two proper ancestors with near-equal base latency under heavy
  // symmetric jitter: every smoothed estimate wobbles, but none crosses
  // the 25% improvement bar, so the parent never flaps.
  World w;
  w.build(2, 3, 4, adaptive_config());
  GdsServer* child = w.tree.nodes[3];
  GdsServer* stratum2 = w.tree.nodes[1];
  GdsServer* root = w.tree.nodes[0];
  const NodeId original_parent = child->parent();
  w.net.set_path(child->id(), stratum2->id(),
                 {.latency = SimTime::millis(20), .jitter = SimTime::millis(8)});
  w.net.set_path(child->id(), root->id(),
                 {.latency = SimTime::millis(19), .jitter = SimTime::millis(8)});
  w.net.run_until(w.net.now() + SimTime::seconds(60));
  EXPECT_EQ(child->parent(), original_parent);
  EXPECT_EQ(child->stats().adaptive_reparents, 0u);
  EXPECT_GT(child->stats().rtt_samples, 0u);
}

TEST(GdsAdaptiveTest, NonAdaptiveConfigSendsNoProbes) {
  World w;
  w.build(2, 3, 4);  // default config: adaptive off
  w.net.run_until(w.net.now() + SimTime::seconds(10));
  for (GdsServer* node : w.tree.nodes) {
    EXPECT_EQ(node->stats().rtt_probes_sent, 0u);
    EXPECT_EQ(node->stats().rtt_samples, 0u);
    EXPECT_EQ(node->stats().adaptive_reparents, 0u);
  }
}

TEST(GdsParamTest, BroadcastScalesAcrossShapes) {
  struct Shape {
    int fanout, depth, servers;
  };
  for (const Shape& shape : std::vector<Shape>{
           {2, 2, 4}, {2, 4, 16}, {4, 3, 20}, {1, 5, 5}}) {
    World w;
    w.build(shape.fanout, shape.depth, shape.servers);
    w.servers[0]->client().broadcast(kTestPayload, {});
    w.net.run_until(SimTime::seconds(2));
    for (std::size_t i = 1; i < w.servers.size(); ++i) {
      EXPECT_EQ(w.servers[i]->deliveries.size(), 1u)
          << "fanout=" << shape.fanout << " depth=" << shape.depth
          << " server=" << i;
    }
  }
}

}  // namespace
}  // namespace gsalert::gds

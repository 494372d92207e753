// The three benchmark workloads, generated from the seed. Why each one
// exists and which layers it loads is recorded in METRICS.md.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "harness.h"
#include "profiles/parser.h"
#include "workload/generators.h"

namespace perfbench {

using gs::SimTime;

namespace {

SimTime ms(std::int64_t n) { return SimTime::millis(n); }

/// Hosts, schemas and the initial collections of every server.
struct Library {
  std::vector<gs::workload::MetadataSchema> schemas;      // one per host
  std::vector<gs::workload::CollectionGen> gens;          // one per source
  std::vector<std::size_t> gen_of;                        // per collection
  std::vector<std::vector<gs::docmodel::Document>> docs;  // per collection
  gs::DocumentId next_doc = 1;
};

/// `sources` > 0 draws each collection's documents from one of that many
/// source schemas (round-robin) instead of its host's own schema.
Library make_library(Inputs& in, gs::Rng& rng, std::uint64_t seed,
                     int collections_per_server,
                     const gs::workload::CollectionGenConfig& config,
                     const std::string& name_prefix, int sources = 0) {
  Library lib;
  for (int s = 0; s < in.spec.servers; ++s) {
    in.hosts.push_back("Host" + std::to_string(s));
    lib.schemas.push_back(
        gs::workload::MetadataSchema::for_host(in.hosts.back(), seed));
  }
  std::vector<gs::workload::MetadataSchema> source_schemas = lib.schemas;
  if (sources > 0) {
    source_schemas.clear();
    for (int k = 0; k < sources; ++k) {
      source_schemas.push_back(gs::workload::MetadataSchema::for_host(
          "Source" + std::to_string(k), seed));
    }
  }
  lib.gens.reserve(source_schemas.size());
  for (const auto& schema : source_schemas) {
    lib.gens.emplace_back(rng, schema, config);
  }
  for (int s = 0; s < in.spec.servers; ++s) {
    for (int c = 0; c < collections_per_server; ++c) {
      const std::size_t gen_index =
          sources > 0 ? in.collections.size() % lib.gens.size()
                      : static_cast<std::size_t>(s);
      auto& gen = lib.gens[gen_index];
      const std::string name = name_prefix + std::to_string(c);
      CollectionInput coll;
      coll.server = static_cast<std::size_t>(s);
      coll.config = gen.make_config(name);
      coll.data = gen.make_data_set(lib.next_doc, config.docs);
      lib.next_doc += static_cast<gs::DocumentId>(config.docs);
      lib.docs.push_back(coll.data.docs());
      lib.gen_of.push_back(gen_index);
      in.refs.push_back(gs::CollectionRef{in.hosts[coll.server], name});
      in.collections.push_back(std::move(coll));
    }
  }
  return lib;
}

Op rebuild_op(Library& lib, std::size_t coll, SimTime due, int fresh_docs) {
  Op op;
  op.due = due;
  op.kind = OpKind::kRebuild;
  op.target = coll;
  auto& gen = lib.gens[lib.gen_of[coll]];
  for (int i = 0; i < fresh_docs; ++i) {
    op.fresh.push_back(gen.make_document(lib.next_doc++));
  }
  auto& docs = lib.docs[coll];
  docs.insert(docs.end(), op.fresh.begin(), op.fresh.end());
  op.data = gs::docmodel::DataSet{docs};
  return op;
}

SubInput parsed(std::size_t client, std::string text) {
  auto profile = gs::profiles::parse_profile(text);
  if (!profile.ok()) {
    throw std::runtime_error("generated profile does not parse: " + text);
  }
  SubInput sub;
  sub.client = client;
  sub.text = std::move(text);
  sub.profile = std::move(profile).take();
  return sub;
}

/// Collection picks that visit every collection once per pass, in a fresh
/// seeded order each pass. Uniform random picks would leave some
/// collections unrebuilt and others rebuilt many times, and with Zipf
/// profile popularity that alone moves the notification count by tens
/// of percent from one seed to the next.
class EvenPicks {
 public:
  EvenPicks(gs::Rng& rng, std::size_t n) : rng_(rng), order_(n), pos_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t next() {
    if (pos_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_.engine());
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  gs::Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_;
};

/// Profiles whose kinds follow `kind_weights` exactly (a repeating
/// schedule) instead of by independent draws; everything else about each
/// profile is drawn by workload::ProfileGen.
class ProfileMix {
 public:
  ProfileMix(gs::Rng& rng, const gs::workload::ProfileGenConfig& config) {
    for (std::size_t k = 0; k < config.kind_weights.size(); ++k) {
      gs::workload::ProfileGenConfig one = config;
      one.kind_weights.assign(config.kind_weights.size(), 0.0);
      one.kind_weights[k] = 1.0;
      gens_.emplace_back(rng, one);
      for (int w = 0; w < static_cast<int>(config.kind_weights[k]); ++w) {
        schedule_.push_back(k);
      }
    }
  }
  std::string next(const Inputs& in, const Library& lib) {
    const std::size_t kind = schedule_[count_++ % schedule_.size()];
    return gens_[kind].make_profile(in.hosts, in.refs, lib.schemas);
  }

 private:
  std::vector<gs::workload::ProfileGen> gens_;
  std::vector<std::size_t> schedule_;
  std::size_t count_ = 0;
};

template <typename T>
void param(Inputs& in, const char* name, T value) {
  in.params.emplace_back(name, std::to_string(value));
}

// flood_wide: the paper's federated flooding case. Many servers, few
// subscribers each, so every event crosses every GDS node and is
// filtered against a tiny index at every server.
Inputs flood_wide(std::uint64_t seed) {
  constexpr int kServers = 256, kCollections = 2, kDocs = 10,
                kProfilesPerClient = 4, kEvents = 1200, kFresh = 2;
  constexpr std::int64_t kGapMs = 10;
  Inputs in;
  in.spec.servers = kServers;
  in.spec.clients_per_server = 1;
  in.spec.topology = "multi-region";
  gs::Rng rng{seed};
  Library lib = make_library(in, rng, seed, kCollections,
                             {.docs = kDocs}, "C");
  // Every micro-level watch scoped to one collection, as real users
  // subscribe: an unscoped watch matches across all 256 servers, and a
  // handful of them would swing the notification count by 2x per seed.
  gs::workload::ProfileGenConfig profile_config;
  profile_config.scope_probability = 1.0;
  ProfileMix mix{rng, profile_config};
  const std::size_t clients = static_cast<std::size_t>(kServers);
  for (std::size_t c = 0; c < clients; ++c) {
    for (int k = 0; k < kProfilesPerClient; ++k) {
      in.subs.push_back(parsed(c, mix.next(in, lib)));
    }
  }
  in.initial_subs = in.subs.size();
  EvenPicks picks{rng, in.collections.size()};
  for (int e = 0; e < kEvents; ++e) {
    in.ops.push_back(
        rebuild_op(lib, picks.next(), ms(1000 + kGapMs * e), kFresh));
  }
  in.drain = SimTime::seconds(3);
  param(in, "servers", kServers);
  param(in, "clients", clients);
  param(in, "collections", in.collections.size());
  param(in, "docs_per_collection", kDocs);
  param(in, "subscriptions", in.subs.size());
  param(in, "events", kEvents);
  param(in, "event_gap_ms", kGapMs);
  return in;
}

// subscriber_scale: one server, a Zipf subscription load over ~10k
// collections and ~1k clients, credit-managed delivery with a policy
// mix; a steady drip, then a rebuild storm over the hottest collections.
Inputs subscriber_scale(std::uint64_t seed) {
  constexpr int kCollections = 10'000, kDocs = 2, kClients = 1024,
                kSubscriptions = 60'000, kDrip = 800, kStormTargets = 3,
                kStormRounds = 8;
  Inputs in;
  in.spec.servers = 1;
  in.spec.clients_per_server = kClients;
  // Jitter keeps sim latencies seed-dependent, as on a real LAN.
  in.spec.path = {.latency = ms(10), .jitter = ms(4)};
  in.spec.alerting.delivery.credits = 8;
  in.spec.alerting.delivery.queue_capacity = 4096;
  in.spec.alerting.delivery.default_window = ms(100);
  // Size-triggered compaction would snapshot the whole profile table
  // over and over during the load; restart replays the full log.
  in.spec.compact_threshold_bytes = 0;
  in.local_subscribe = true;
  in.sink_clients = true;
  gs::Rng rng{seed};
  // One host, but its collections mirror many source libraries: with a
  // single schema, one seed's draw of attribute count and value length
  // would set every document's size, and the wire bytes with it.
  Library lib = make_library(in, rng, seed, kCollections,
                             {.docs = kDocs, .terms_per_doc = 6}, "c",
                             /*sources=*/64);
  gs::workload::SubscriptionGen gen{rng, in.refs};
  for (int i = 0; i < kSubscriptions; ++i) {
    SubInput sub = parsed(static_cast<std::size_t>(i % kClients),
                          gen.make_subscription());
    // 3/5 immediate, 1/5 coalesce, 1/5 periodic digest: the median
    // falls inside the immediate cluster, not on a class boundary where
    // a percent more digest subscribers would move it by tens of ms.
    switch (i % 5) {
      case 3:
        sub.policy = {gs::alerting::DeliveryMode::kCoalesce, ms(100)};
        break;
      case 4:
        sub.policy = {gs::alerting::DeliveryMode::kDigest, ms(300)};
        break;
      default:
        break;
    }
    in.subs.push_back(std::move(sub));
  }
  in.initial_subs = in.subs.size();
  // Drip targets follow the subscriptions' Zipf(0.7) popularity, drawn
  // by stratified sampling of its CDF (every rank gets its expected
  // share, +-1) in a seeded order. Independent draws would leave the
  // hottest rank's pick count, and with it the notification volume,
  // varying by +-25% between seeds.
  std::vector<double> cdf(kCollections);
  double total = 0;
  for (int r = 0; r < kCollections; ++r) {
    total += 1.0 / std::pow(r + 1.0, 0.7);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  std::vector<std::size_t> drip;
  for (int k = 0; k < kDrip; ++k) {
    const double u = (k + rng.uniform()) / kDrip * total;
    drip.push_back(static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  std::shuffle(drip.begin(), drip.end(), rng.engine());
  for (int k = 0; k < kDrip; ++k) {
    in.ops.push_back(rebuild_op(lib, drip[static_cast<std::size_t>(k)],
                                ms(1000 + 10 * k), 1));
  }
  const std::int64_t storm = 1000 + 10 * kDrip + 1000;
  for (int round = 0; round < kStormRounds; ++round) {
    for (int target = 0; target < kStormTargets; ++target) {
      in.ops.push_back(rebuild_op(
          lib, static_cast<std::size_t>(target),
          ms(storm + 5 * (round * kStormTargets + target)), 1));
    }
  }
  in.drain = SimTime::seconds(5);
  param(in, "servers", 1);
  param(in, "clients", kClients);
  param(in, "collections", kCollections);
  param(in, "subscriptions", kSubscriptions);
  param(in, "drip_events", kDrip);
  param(in, "storm_events", kStormTargets * kStormRounds);
  return in;
}

// churn_partition: distributed collections (auxiliary profiles and the
// rename cascade), query/doc-heavy profiles over larger collections,
// subscribe/cancel churn between rebuilds, and one partition that heals.
Inputs churn_partition(std::uint64_t seed) {
  constexpr int kServers = 64, kClientsPerServer = 2, kCollections = 3,
                kDocs = 30, kLinks = 24, kProfilesPerClient = 12, kTicks = 30,
                kRebuildsPerTick = 20, kChurnPerTick = 2, kPartitionTick = 10,
                kHealTick = 20;
  constexpr std::int64_t kTickMs = 4000;
  // The partition cuts a quarter of the servers off from the GDS tree,
  // the other servers and their own clients. Notifications such a
  // server raises for its clients arrive after the heal; they stay well
  // under 1% of all samples, so e2e_p99_ms does not flip between the
  // network tail and the heal from one seed to the next.
  constexpr std::size_t kIsland = kServers / 4;
  Inputs in;
  in.spec.servers = kServers;
  in.spec.clients_per_server = kClientsPerServer;
  in.spec.topology = "mobile-churn";
  gs::Rng rng{seed};
  Library lib = make_library(in, rng, seed, kCollections, {.docs = kDocs}, "C");
  // Credit-managed delivery: notifications for a client cut off from its
  // server are retransmitted after the heal instead of lost.
  in.spec.alerting.delivery.credits = 8;
  // Super on a lower-indexed server than the sub keeps the include graph
  // acyclic (as Scenario::setup_distributed does). Both ends stay on one
  // side of the partition: a forward across it is retransmitted after
  // the heal and re-announced then, to whoever subscribed meanwhile, so
  // ground truth taken at publish time would call those deliveries
  // spurious.
  for (int attempt = 0; static_cast<int>(in.links.size()) < kLinks &&
                        attempt < kLinks * 8;
       ++attempt) {
    const std::size_t sub_server = 1 + rng.index(kServers - 1);
    const std::size_t lo = sub_server < kIsland ? 0 : kIsland;
    if (sub_server == lo) continue;
    const std::size_t super_server = lo + rng.index(sub_server - lo);
    const std::pair<std::size_t, std::size_t> link{
        super_server * kCollections + rng.index(kCollections),
        sub_server * kCollections + rng.index(kCollections)};
    if (std::find(in.links.begin(), in.links.end(), link) == in.links.end()) {
      in.links.push_back(link);
    }
  }
  gs::workload::ProfileGenConfig profile_config;
  profile_config.kind_weights = {1, 1, 1, 1, 4, 3};  // query/doc heavy
  profile_config.scope_probability = 1.0;  // see flood_wide
  ProfileMix mix{rng, profile_config};
  const std::size_t clients =
      static_cast<std::size_t>(kServers * kClientsPerServer);
  for (std::size_t c = 0; c < clients; ++c) {
    for (int k = 0; k < kProfilesPerClient; ++k) {
      in.subs.push_back(parsed(c, mix.next(in, lib)));
    }
  }
  in.initial_subs = in.subs.size();
  for (std::size_t s = 0; s < kIsland; ++s) in.island.push_back(s);

  // Each tick: churn at its start, rebuilds 0.5-1.0 s in, then quiet
  // until every flood (and renamed re-flood) has landed, so a
  // subscription change never races an event in flight. During the
  // partition only clients that can reach their server churn (a user
  // acts through their own server); the heal tick has no churn, so
  // retransmitted traffic drains through it first.
  const auto cut_off = [&](std::size_t client) {
    return client / kClientsPerServer < kIsland;
  };
  EvenPicks picks{rng, in.collections.size()};
  std::vector<std::size_t> active(in.initial_subs);
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  for (int t = 0; t < kTicks; ++t) {
    const std::int64_t t0 = 1000 + kTickMs * t;
    const bool partitioned = t >= kPartitionTick && t < kHealTick;
    if (t == kPartitionTick || t == kHealTick) {
      Op op;
      op.due = ms(t0);
      op.kind = t == kPartitionTick ? OpKind::kPartition : OpKind::kHeal;
      in.ops.push_back(std::move(op));
    }
    if (t != kHealTick) {
      std::vector<std::size_t> added;
      for (int k = 0; k < kChurnPerTick; ++k) {
        std::size_t pick = rng.index(active.size());
        while (partitioned && cut_off(in.subs[active[pick]].client)) {
          pick = rng.index(active.size());
        }
        Op cancel;
        cancel.due = ms(t0);
        cancel.kind = OpKind::kCancel;
        cancel.target = active[pick];
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
        in.ops.push_back(std::move(cancel));

        std::size_t client = rng.index(clients);
        while (partitioned && cut_off(client)) client = rng.index(clients);
        Op subscribe;
        subscribe.due = ms(t0);
        subscribe.kind = OpKind::kSubscribe;
        subscribe.target = in.subs.size();
        in.subs.push_back(parsed(client, mix.next(in, lib)));
        added.push_back(subscribe.target);
        in.ops.push_back(std::move(subscribe));
      }
      // Cancellable from the next tick on, once acked.
      active.insert(active.end(), added.begin(), added.end());
    }
    for (int k = 0; k < kRebuildsPerTick; ++k) {
      in.ops.push_back(
          rebuild_op(lib, picks.next(), ms(t0 + 500 + 25 * k), 2));
    }
  }
  in.drain = SimTime::seconds(4);
  param(in, "servers", kServers);
  param(in, "clients", clients);
  param(in, "collections", in.collections.size());
  param(in, "docs_per_collection", kDocs);
  param(in, "distributed_links", in.links.size());
  param(in, "initial_subscriptions", in.initial_subs);
  param(in, "churn_subscriptions", in.subs.size() - in.initial_subs);
  param(in, "events", kTicks * kRebuildsPerTick);
  param(in, "partition_ticks", kHealTick - kPartitionTick);
  return in;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "flood_wide", "subscriber_scale", "churn_partition"};
  return names;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  if (workload == "flood_wide") return flood_wide(seed);
  if (workload == "subscriber_scale") return subscriber_scale(seed);
  if (workload == "churn_partition") return churn_partition(seed);
  throw std::invalid_argument("unknown workload " + workload);
}

}  // namespace perfbench

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/latency.h"
#include "obs/trace.h"
#include "profiles/event_context.h"
#include "wire/codec.h"

namespace perfbench {

using gs::SimTime;

// --- spans -------------------------------------------------------------------

int SpanLog::open(const char* name, std::uint64_t event) {
  if (!keep_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), event,
                        ns_between(origin_, Clock::now()), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      ns_between(origin_, Clock::now());
  stack_.pop_back();
}

// --- quantiles ---------------------------------------------------------------

Quantile nearest_rank(const std::vector<double>& sorted, double q) {
  Quantile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), out.value));
  return out;
}

Quantile resolvable_tail(const std::vector<double>& sorted,
                         std::string* label) {
  static const std::pair<double, const char*> kTails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  for (const auto& [q, name] : kTails) {
    const double beyond_rank =
        static_cast<double>(sorted.size()) * (1.0 - q);
    if (beyond_rank >= 10.0 || q == 0.5) {
      if (label) *label = name;
      return nearest_rank(sorted, q);
    }
  }
  return {};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- world -------------------------------------------------------------------

// The paper's hybrid service as workload::Scenario builds it for the
// gsalert strategy (same node creation order, so zoo regions line up),
// minus Scenario's always-armed span sink and inline oracle.
struct World {
  explicit World(std::uint64_t seed) : net(seed ^ 0x5CE) {}
  gs::sim::Network net;
  gs::gds::GdsTree tree;
  std::vector<gs::gsnet::GreenstoneServer*> servers;
  std::vector<gs::alerting::AlertingService*> services;
  std::vector<gs::alerting::Client*> clients;
};

std::unique_ptr<World> build_world(const Inputs& in, std::uint64_t seed) {
  auto w = std::make_unique<World>(seed);
  const WorldSpec& spec = in.spec;
  w->net.set_default_path(spec.path);
  if (!spec.topology.empty()) {
    std::optional<gs::sim::Topology> topo =
        gs::sim::topology_by_name(spec.topology);
    if (!topo) throw std::invalid_argument("unknown topology " + spec.topology);
    w->net.set_topology(*std::move(topo));
  }
  // Scenario's tree: fan-out 3, deep enough for one leaf per 4 servers.
  const int n = spec.servers;
  constexpr int kFanout = 3;
  const int leaves_needed = std::max(1, (n + 3) / 4);
  int depth = 1;
  for (int leaves = 1; leaves < leaves_needed; leaves *= kFanout) ++depth;
  w->tree = gs::gds::build_tree(w->net, kFanout, std::max(depth, 2));

  for (int i = 0; i < n; ++i) {
    gs::gsnet::ServerConfig config;
    config.journal.compact_threshold_bytes = spec.compact_threshold_bytes;
    auto* server = w->net.make_node<gs::gsnet::GreenstoneServer>(
        in.hosts[static_cast<std::size_t>(i)], config);
    auto service = std::make_unique<gs::alerting::AlertingService>(
        spec.alerting);
    w->services.push_back(service.get());
    server->set_extension(std::move(service));
    server->attach_gds(w->tree.leaf_for(static_cast<std::size_t>(i))->id());
    w->servers.push_back(server);
    for (int c = 0; c < spec.clients_per_server; ++c) {
      auto* client = w->net.make_node<gs::alerting::Client>(
          "client-" + std::to_string(i) + "-" + std::to_string(c));
      client->set_home(server->id());
      w->clients.push_back(client);
    }
  }
  for (auto* a : w->servers) {
    for (auto* b : w->servers) {
      if (a != b) a->set_host_ref(b->name(), b->id());
    }
  }
  w->net.start();
  w->net.run_until(w->net.now() + SimTime::millis(200));
  return w;
}

// --- counters ----------------------------------------------------------------

struct Counters {
  std::uint64_t actions = 0, heap_spills = 0;
  std::uint64_t messages = 0, bytes_sent = 0, bytes_copied = 0,
                bytes_shared = 0;
  std::uint64_t broadcasts = 0, duplicates_suppressed = 0;
  std::uint64_t retransmits = 0, timeouts = 0, parked = 0, flushed = 0,
                expired = 0;
  std::uint64_t eq_probe_hits = 0, candidates = 0, residual_evals = 0,
                predicate_hits = 0, predicate_misses = 0,
                query_cache_hits = 0;
  double match_us_sum = 0.0;
  std::uint64_t match_count = 0;
  std::uint64_t body_encodes = 0, aux_forwards = 0, renames = 0,
                notifications_sent = 0;
  std::uint64_t enqueued = 0, digests_sent = 0, stalls = 0,
                max_queue_depth = 0, spilled = 0;
  std::uint64_t journal_appends = 0, journal_bytes = 0, journal_commits = 0;
};

void add_endpoint(Counters& c, const gs::transport::EndpointStats& st) {
  c.retransmits += st.retransmits;
  c.timeouts += st.timeouts;
}

void add_journal(Counters& c, const gs::journal::Journal* j) {
  if (j == nullptr) return;
  c.journal_appends += j->stats().appends;
  c.journal_bytes += j->stats().bytes_appended;
  c.journal_commits += j->stats().commits;
}

Counters read_counters(World& w) {
  Counters c;
  c.actions = w.net.scheduler().stats().executed;
  c.heap_spills = w.net.scheduler().stats().heap_spills;
  const gs::sim::NetStats& ns = w.net.stats();
  c.messages = ns.sent;
  c.bytes_sent = ns.bytes_sent;
  c.bytes_copied = ns.bytes_copied;
  c.bytes_shared = ns.bytes_shared;
  for (const gs::gds::GdsServer* g : w.tree.nodes) {
    c.broadcasts += g->stats().broadcasts_seen;
    c.duplicates_suppressed += g->stats().duplicates_suppressed;
    c.parked += g->park_stats().parked;
    c.flushed += g->park_stats().flushed;
    c.expired += g->park_stats().expired;
    add_journal(c, g->journal());
  }
  for (gs::gsnet::GreenstoneServer* s : w.servers) {
    add_endpoint(c, s->endpoint_stats());
    add_endpoint(c, s->gds().endpoint_stats());
    add_journal(c, s->journal());
  }
  for (const gs::alerting::Client* client : w.clients) {
    add_endpoint(c, client->endpoint_stats());
  }
  for (const gs::alerting::AlertingService* a : w.services) {
    c.retransmits += a->channel_stats().retransmits +
                     a->delivery().channel_stats().retransmits;
    const gs::profiles::MatchStats& m = a->match_stats();
    c.eq_probe_hits += m.eq_probe_hits;
    c.candidates += m.candidates;
    c.residual_evals += m.residual_evals;
    c.predicate_hits += m.predicate_cache_hits;
    c.predicate_misses += m.predicate_cache_misses;
    c.query_cache_hits += m.query_cache_hits;
    c.match_us_sum += a->match_cpu_us().mean() *
                      static_cast<double>(a->match_cpu_us().count());
    c.match_count += a->match_cpu_us().count();
    const gs::alerting::AlertingStats& st = a->stats();
    c.body_encodes += st.notify_body_encodes;
    c.aux_forwards += st.aux_forwards;
    c.renames += st.renames;
    c.notifications_sent += st.notifications_sent;
    const gs::alerting::DeliveryStats& d = a->delivery().stats();
    c.enqueued += d.enqueued;
    c.digests_sent += d.digests_sent;
    c.stalls += d.stalls;
    c.max_queue_depth = std::max(c.max_queue_depth, d.max_queue_depth);
    c.spilled += d.spilled;
  }
  return c;
}

// --- notifications and the oracle -------------------------------------------

/// What a client saw, reduced to what the oracle needs.
struct Seen {
  std::uint32_t client = 0;
  gs::SubscriptionId sub = 0;
  SimTime at;
  gs::CollectionRef collection;
  gs::CollectionRef physical;
  std::vector<std::string> via;
  std::uint64_t version = 0;
};

std::string event_key(const gs::CollectionRef& collection,
                      const std::vector<std::string>& via,
                      const gs::CollectionRef& physical,
                      std::uint64_t version) {
  std::string key = collection.str() + "|";
  for (const std::string& hop : via) key += hop + ">";
  return key + "|" + physical.str() + "|" + std::to_string(version);
}

/// Runtime state of one subscription input.
struct SubState {
  gs::SubscriptionId id = 0;  // 0 until acked
  /// Active for the ops with ordinal in [from, until).
  std::uint64_t from = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t until = std::numeric_limits<std::uint64_t>::max();
};

/// One logical announcement a client may be told about: a rebuild, or
/// its renamed re-announcement at a transitive super-collection.
struct TruthEvent {
  gs::docmodel::Event event;
  SimTime due;
  std::uint64_t op = 0;
};

struct Verdict {
  std::uint64_t expected = 0, delivered = 0, matched = 0, missed = 0,
                spurious = 0, duplicates = 0, unsound = 0;
  std::vector<double> latency_ms;
};

constexpr std::uint32_t kUnknown = std::numeric_limits<std::uint32_t>::max();

std::uint64_t pack(std::uint32_t sub, std::uint32_t event) {
  return (static_cast<std::uint64_t>(sub) << 32) | event;
}

/// Ground truth: every (subscription, event) pair where the subscription
/// was acked before and not cancelled before the publish, and the
/// profile matches the event (profiles::Profile::matches, the naive
/// evaluator the index is tested against). Candidates are pre-filtered
/// by one macro-level equality per conjunction — a necessary condition,
/// so the filter never drops a true match.
Verdict judge(const Inputs& in, const std::vector<SubState>& subs,
              const std::vector<TruthEvent>& events,
              const std::vector<Seen>& seen) {
  Verdict v;
  std::unordered_map<std::string, std::vector<std::uint32_t>> by_anchor;
  std::vector<std::string> anchor_attrs;
  std::vector<std::uint32_t> unanchored;
  for (std::uint32_t s = 0; s < subs.size(); ++s) {
    if (subs[s].id == 0) continue;
    const gs::profiles::Profile& p = in.subs[s].profile;
    std::vector<std::string> anchors;
    bool all_anchored = !p.dnf.empty();
    for (const gs::profiles::Conjunction& conj : p.dnf) {
      const auto it = std::find_if(
          conj.preds.begin(), conj.preds.end(),
          [](const gs::profiles::Predicate& pred) {
            return pred.op == gs::profiles::Op::kEq && !pred.is_doc_level();
          });
      if (it == conj.preds.end()) {
        all_anchored = false;
        break;
      }
      anchors.push_back(it->attribute + '\x1f' + it->value);
      if (std::find(anchor_attrs.begin(), anchor_attrs.end(),
                    it->attribute) == anchor_attrs.end()) {
        anchor_attrs.push_back(it->attribute);
      }
    }
    if (!all_anchored) {
      unanchored.push_back(s);
      continue;
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    for (const std::string& a : anchors) by_anchor[a].push_back(s);
  }

  std::vector<std::uint64_t> expected;
  std::vector<std::uint32_t> stamp(subs.size(), kUnknown);
  for (std::uint32_t e = 0; e < events.size(); ++e) {
    const gs::profiles::EventContext ctx =
        gs::profiles::EventContext::from(events[e].event);
    const std::uint64_t op = events[e].op;
    const auto consider = [&](std::uint32_t s) {
      if (stamp[s] == e) return;
      stamp[s] = e;
      if (subs[s].from > op || op >= subs[s].until) return;
      if (in.subs[s].profile.matches(ctx)) expected.push_back(pack(s, e));
    };
    for (const std::string& attr : anchor_attrs) {
      const auto it = by_anchor.find(attr + '\x1f' + ctx.macro(attr));
      if (it == by_anchor.end()) continue;
      for (std::uint32_t s : it->second) consider(s);
    }
    for (std::uint32_t s : unanchored) consider(s);
  }

  std::unordered_map<std::string, std::uint32_t> event_index;
  for (std::uint32_t e = 0; e < events.size(); ++e) {
    const gs::docmodel::Event& ev = events[e].event;
    event_index.emplace(event_key(ev.collection, ev.via, ev.physical_origin,
                                  ev.build_version),
                        e);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> sub_index;
  for (std::uint32_t s = 0; s < subs.size(); ++s) {
    if (subs[s].id != 0) {
      sub_index.emplace((static_cast<std::uint64_t>(in.subs[s].client) << 40) |
                            subs[s].id,
                        s);
    }
  }
  std::vector<std::uint64_t> delivered;
  delivered.reserve(seen.size());
  v.latency_ms.reserve(seen.size());
  for (const Seen& n : seen) {
    const auto e = event_index.find(
        event_key(n.collection, n.via, n.physical, n.version));
    const auto s = sub_index.find(
        (static_cast<std::uint64_t>(n.client) << 40) | n.sub);
    const std::uint32_t ei = e == event_index.end() ? kUnknown : e->second;
    const std::uint32_t si = s == sub_index.end() ? kUnknown : s->second;
    if (ei != kUnknown) {
      v.latency_ms.push_back((n.at - events[ei].due).as_millis());
    }
    delivered.push_back(pack(si, ei));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(delivered.begin(), delivered.end());
  std::sort(v.latency_ms.begin(), v.latency_ms.end());
  v.expected = expected.size();
  v.delivered = delivered.size();
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] == delivered[i - 1]) v.duplicates += 1;
  }
  std::vector<std::uint64_t> extra;
  std::set_difference(delivered.begin(), delivered.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  v.spurious = extra.size();
  v.matched = v.delivered - v.spurious;
  v.missed = v.expected - v.matched;
  // A spurious delivery is a timing disagreement if the profile does
  // match the event (e.g. a subscription racing a late flood), and a
  // filter error if it does not.
  for (const std::uint64_t key : extra) {
    const auto si = static_cast<std::uint32_t>(key >> 32);
    const auto ei = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    if (si == kUnknown || ei == kUnknown ||
        !in.subs[si].profile.matches(
            gs::profiles::EventContext::from(events[ei].event))) {
      v.unsound += 1;
    }
  }
  return v;
}

/// Rebuild expectation plus the paper's rename cascade (§4.2): every
/// transitive super-collection re-announces the event under its own
/// name, with the via chain cutting loops (mirrors Scenario).
void add_truth(const Inputs& in, std::size_t coll, std::uint64_t version,
               const Op& op, SimTime due, std::uint64_t ordinal,
               std::vector<TruthEvent>& out) {
  gs::docmodel::Event base;
  base.type = gs::docmodel::EventType::kCollectionRebuilt;
  base.collection = in.refs[coll];
  base.physical_origin = base.collection;
  base.build_version = version;
  base.docs = op.fresh;
  out.push_back(TruthEvent{base, due, ordinal});
  std::vector<gs::docmodel::Event> frontier{base};
  while (!frontier.empty()) {
    const gs::docmodel::Event current = std::move(frontier.back());
    frontier.pop_back();
    for (const auto& [super_i, sub_i] : in.links) {
      const gs::CollectionRef& super = in.refs[super_i];
      if (in.refs[sub_i] != current.collection) continue;
      if (super == current.collection ||
          std::find(current.via.begin(), current.via.end(), super.str()) !=
              current.via.end()) {
        continue;
      }
      gs::docmodel::Event renamed = current;
      renamed.collection = super;
      renamed.via.push_back(current.collection.str());
      out.push_back(TruthEvent{renamed, due, ordinal});
      frontier.push_back(std::move(renamed));
    }
  }
}

// --- profiler ----------------------------------------------------------------

/// Self time per frame name (ns), summed over every call path, from the
/// profiler's collapsed stacks ("a;b;c <self_us>").
std::map<std::string, double> self_ns_by_frame(const std::string& folded) {
  std::map<std::string, double> out;
  std::istringstream lines{folded};
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string path = line.substr(0, space);
    const std::size_t semi = path.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? path : path.substr(semi + 1);
    out[leaf] += std::stod(line.substr(space + 1)) * 1000.0;
  }
  return out;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

// --- one round --------------------------------------------------------------

RoundResult run_round(const Inputs& in, std::uint64_t seed, bool traced) {
  RoundResult r;
  SpanLog log{traced};

  // Harness: copy the generated data the calls below consume.
  Clock::time_point g0 = Clock::now();
  std::vector<gs::docmodel::DataSet> initial;
  initial.reserve(in.collections.size());
  for (const CollectionInput& c : in.collections) initial.push_back(c.data);
  std::int64_t generate_ns = ns_between(g0, Clock::now());

  if (gs::obs::Profiler::current() != nullptr || gs::obs::active()) {
    r.failures.push_back("a profiler or span sink was installed before set-up");
  }

  // ---- set-up: world, collections, distributed links, subscriptions ----
  // Declared before the world: its nodes hold callbacks into these.
  std::vector<SubState> subs(in.subs.size());
  std::uint64_t ops_issued = 0;
  std::vector<Seen> seen;
  std::unique_ptr<World> w;
  const Clock::time_point s0 = Clock::now();
  const int setup_span = log.open("setup");
  log.call("setup.world", 0, [&] { w = build_world(in, seed); });
  if (in.sink_clients) {
    seen.reserve(1 << 16);
    for (std::uint32_t c = 0; c < w->clients.size(); ++c) {
      w->clients[c]->set_notification_sink(
          [&seen, c](gs::SubscriptionId sub, const gs::docmodel::Event& ev,
                     SimTime at) {
            seen.push_back(Seen{c, sub, at, ev.collection, ev.physical_origin,
                                ev.via, ev.build_version});
          });
    }
  }
  log.call("setup.collections", 0, [&] {
    for (std::size_t i = 0; i < in.collections.size(); ++i) {
      const CollectionInput& c = in.collections[i];
      const gs::Status st = w->servers[c.server]->add_collection(
          c.config, std::move(initial[i]));
      if (!st.is_ok()) {
        r.failures.push_back("add_collection: " + st.error().message);
      }
    }
    w->net.run_until(w->net.now() + SimTime::seconds(1));
  });
  if (!in.links.empty()) {
    log.call("setup.links", 0, [&] {
      for (const auto& [super_i, sub_i] : in.links) {
        const CollectionInput& super = in.collections[super_i];
        const gs::Status st = w->servers[super.server]->add_sub_collection(
            super.config.name, in.refs[sub_i]);
        if (!st.is_ok()) {
          r.failures.push_back("add_sub_collection: " + st.error().message);
        }
      }
      w->net.run_until(w->net.now() + SimTime::seconds(3));
    });
  }
  const auto subscribe_client = [&](std::size_t i) {
    const SubInput& s = in.subs[i];
    w->clients[s.client]->subscribe(
        s.text, [&subs, &ops_issued, i](gs::Result<gs::SubscriptionId> res) {
          if (!res.ok()) return;
          subs[i].id = res.value();
          subs[i].from = ops_issued;
        });
  };
  {
    const int load_span = log.open("setup.subscribe_load");
    if (in.local_subscribe) {
      // Server-side load in batches of 1024 (one span each); every call
      // is timed on its own for profiles.subscribe_call_us.
      r.subscribe_call_us.reserve(in.initial_subs);
      for (std::size_t b = 0; b < in.initial_subs; b += 1024) {
        const int batch = log.open("subscribe_batch");
        for (std::size_t i = b; i < std::min(in.initial_subs, b + 1024); ++i) {
          const SubInput& s = in.subs[i];
          gs::alerting::AlertingService* service =
              w->services[s.client / static_cast<std::size_t>(
                                         in.spec.clients_per_server)];
          const Clock::time_point t0 = Clock::now();
          gs::Result<gs::SubscriptionId> res = service->subscribe_local(
              w->clients[s.client]->id(), s.text);
          if (res.ok() &&
              s.policy.mode != gs::alerting::DeliveryMode::kImmediate) {
            service->set_delivery_policy(res.value(), s.policy);
          }
          r.subscribe_call_us.push_back(
              static_cast<double>(ns_between(t0, Clock::now())) / 1000.0);
          if (!res.ok()) {
            r.failures.push_back("subscribe_local: " + res.error().message);
            continue;
          }
          subs[i].id = res.value();
          subs[i].from = 0;
        }
        log.close(batch);
      }
    } else {
      for (std::size_t i = 0; i < in.initial_subs; ++i) subscribe_client(i);
      // Until acked: the load ends when the last ack lands (bounded).
      const SimTime give_up = w->net.now() + SimTime::seconds(30);
      const auto all_acked = [&] {
        for (std::size_t i = 0; i < in.initial_subs; ++i) {
          if (subs[i].id == 0) return false;
        }
        return true;
      };
      while (!all_acked() && w->net.now() < give_up) {
        w->net.run_until(w->net.now() + SimTime::millis(50));
      }
    }
    log.close(load_span);
  }
  log.close(setup_span);
  r.setup_s = static_cast<double>(ns_between(s0, Clock::now())) / 1e9;
  for (std::size_t i = 0; i < in.initial_subs; ++i) {
    r.attempted += 1;
    if (subs[i].id == 0) {
      r.failed += 1;
      r.failures.push_back("initial subscription " + std::to_string(i) +
                           " never acked");
    }
  }

  // ---- timed phase: the fixed sim-time schedule, as fast as it runs ----
  std::vector<std::size_t> stored_before(w->clients.size(), 0);
  for (std::size_t c = 0; c < w->clients.size(); ++c) {
    stored_before[c] = w->clients[c]->notifications().size();
  }
  const std::size_t seen_before = seen.size();
  gs::wire::reset_writer_stats();
  const Counters before = read_counters(*w);
  std::optional<gs::obs::Profiler> profiler;
  if (traced) profiler.emplace();
  if (profiler) profiler->enable();

  std::int64_t timed_ns = 0;
  std::int64_t run_until_ns = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> rebuilt;  // op, version
  std::uint64_t event_id = 0;
  std::vector<gs::NodeId> island;
  for (std::size_t s : in.island) island.push_back(w->servers[s]->id());
  // Op due times count from the start of the timed phase.
  const SimTime epoch = w->net.now();
  const int timed_span = log.open("timed");
  gs::docmodel::DataSet next_data;
  for (std::size_t k = 0; k < in.ops.size(); ++k) {
    const Op& op = in.ops[k];
    const std::int64_t slice = log.call("run_until", event_id, [&] {
      w->net.run_until(epoch + op.due);
    });
    run_until_ns += slice;
    timed_ns += slice;
    r.attempted += 1;
    switch (op.kind) {
      case OpKind::kRebuild: {
        g0 = Clock::now();
        next_data = op.data;  // harness copy, off the clock
        generate_ns += ns_between(g0, Clock::now());
        const CollectionInput& c = in.collections[op.target];
        gs::gsnet::GreenstoneServer* server = w->servers[c.server];
        gs::Status st;
        event_id = k + 1;
        const std::int64_t ns =
            log.call("rebuild_collection", event_id, [&] {
              st = server->rebuild_collection(c.config.name,
                                              std::move(next_data));
            });
        timed_ns += ns;
        r.rebuild_call_us.push_back(static_cast<double>(ns) / 1000.0);
        if (!st.is_ok()) {
          r.failed += 1;
          r.failures.push_back("rebuild_collection: " + st.error().message);
          break;
        }
        r.events += 1;
        rebuilt.emplace_back(
            k, server->collection(c.config.name)->build_version);
        break;
      }
      case OpKind::kSubscribe:
        timed_ns +=
            log.call("subscribe", 0, [&] { subscribe_client(op.target); });
        break;
      case OpKind::kCancel: {
        SubState& s = subs[op.target];
        if (s.id == 0) {
          r.failed += 1;
          r.failures.push_back("cancel of unacked subscription " +
                               std::to_string(op.target));
          break;
        }
        timed_ns += log.call("cancel", 0, [&] {
          w->clients[in.subs[op.target].client]->cancel(s.id);
        });
        s.until = ops_issued;
        break;
      }
      case OpKind::kPartition:
        timed_ns += log.call("partition", 0,
                             [&] { w->net.set_partition({island}); });
        break;
      case OpKind::kHeal:
        timed_ns += log.call("heal", 0, [&] { w->net.clear_partition(); });
        break;
    }
    ops_issued += 1;
  }
  const SimTime end =
      epoch + (in.ops.empty() ? SimTime::zero() : in.ops.back().due) + in.drain;
  {
    const std::int64_t slice = log.call("run_until", event_id,
                                        [&] { w->net.run_until(end); });
    run_until_ns += slice;
    timed_ns += slice;
  }
  log.close(timed_span);
  if (profiler) profiler->disable();
  r.timed_s = static_cast<double>(timed_ns) / 1e9;
  const Counters after = read_counters(*w);
  const gs::wire::WriterStats writer = gs::wire::writer_stats();

  // Subscribes issued in the timed phase must be acked by its end.
  for (const Op& op : in.ops) {
    if (op.kind == OpKind::kSubscribe && subs[op.target].id == 0) {
      r.failed += 1;
      r.failures.push_back("subscription " + std::to_string(op.target) +
                           " never acked");
    }
  }
  // Quiescence: every delivery queue and reliable channel drained.
  for (std::size_t i = 0; i < w->services.size(); ++i) {
    const gs::alerting::AlertingService* a = w->services[i];
    if (a->delivery().queue_depth_total() != 0 || a->outbox_size() != 0) {
      r.failures.push_back("server " + std::to_string(i) +
                           " not drained at the end of the run");
    }
  }

  // Notifications received during the timed phase.
  for (std::uint32_t c = 0; c < w->clients.size(); ++c) {
    const auto& got = w->clients[c]->notifications();
    for (std::size_t i = stored_before[c]; i < got.size(); ++i) {
      const gs::alerting::Client::ReceivedNotification& n = got[i];
      seen.push_back(Seen{c, n.subscription_id, n.at, n.event.collection,
                          n.event.physical_origin, n.event.via,
                          n.event.build_version});
    }
  }
  r.notifications = seen.size() - seen_before;
  const std::uint64_t sent =
      after.notifications_sent - before.notifications_sent;
  if (sent != r.notifications) {
    r.failures.push_back("conservation: servers sent " + std::to_string(sent) +
                         " notifications, clients received " +
                         std::to_string(r.notifications));
  }
  r.wire_bytes = after.bytes_sent - before.bytes_sent;

  // Journal fsync latency over the round (set-up included): the journal
  // keeps only a bucketed histogram.
  gs::obs::LatencyHistogram fsync_us;
  for (gs::gsnet::GreenstoneServer* s : w->servers) {
    if (const gs::journal::Journal* j = s->journal()) {
      fsync_us.merge(j->fsync_us());
    }
  }

  // ---- restart: crash every alerting server, time restart + replay ----
  std::uint64_t replayed = 0;
  {
    const int restart_span = log.open("restart");
    std::int64_t restart_ns = 0;
    for (std::size_t i = 0; i < w->servers.size(); ++i) {
      const gs::NodeId id = w->servers[i]->id();
      const std::size_t subs_before = w->services[i]->subscription_count();
      w->net.crash(id);
      restart_ns += log.call("restart_server", 0, [&] {
        w->net.restart(id);
        w->net.run_until(w->net.now());
      });
      r.attempted += 1;
      if (const gs::journal::Journal* j = w->servers[i]->journal()) {
        replayed += j->stats().records_replayed;
      }
      if (w->services[i]->subscription_count() != subs_before) {
        r.failed += 1;
        r.failures.push_back(
            "server " + std::to_string(i) + " recovered " +
            std::to_string(w->services[i]->subscription_count()) +
            " subscriptions, had " + std::to_string(subs_before));
      }
    }
    log.close(restart_span);
    r.restart_s = static_cast<double>(restart_ns) / 1e9;
  }
  r.peak_rss_mb = peak_rss_mb();

  // ---- oracle, after the run ----
  const Clock::time_point o0 = Clock::now();
  std::vector<TruthEvent> truth;
  for (const auto& [k, version] : rebuilt) {
    add_truth(in, in.ops[k].target, version, in.ops[k], epoch + in.ops[k].due,
              k, truth);
  }
  seen.erase(seen.begin(),
             seen.begin() + static_cast<std::ptrdiff_t>(seen_before));
  Verdict v = judge(in, subs, truth, seen);
  r.oracle_s = static_cast<double>(ns_between(o0, Clock::now())) / 1e9;
  r.expected = v.expected;
  r.missed = v.missed;
  r.delivered = v.delivered;
  r.spurious = v.spurious;
  r.latency_ms = std::move(v.latency_ms);
  if (v.unsound != 0) {
    r.failures.push_back(std::to_string(v.unsound) +
                         " notifications whose event does not match the "
                         "subscription's profile");
  }
  if (v.duplicates != 0) {
    r.failures.push_back(std::to_string(v.duplicates) +
                         " duplicate notifications");
  }
  // On a healthy network the delivered set must equal the expected set.
  // Under a partition, misses and subscriptions racing a delayed event
  // are measured outcomes (delivered_ratio, precision), not failures.
  if (in.island.empty() && (v.missed != 0 || v.spurious != 0)) {
    r.failures.push_back(std::to_string(v.missed) + " of " +
                         std::to_string(v.expected) +
                         " expected notifications never delivered, " +
                         std::to_string(v.spurious) + " not expected");
  }
  if (r.events == 0 || v.delivered == 0) {
    r.failures.push_back("nothing published or delivered");
  }
  if (gs::obs::Profiler::current() != nullptr || gs::obs::active()) {
    r.failures.push_back("a profiler or span sink was left installed");
  }
  r.generate_s = static_cast<double>(generate_ns) / 1e9;

  {
    std::ostringstream fp;
    const Quantile p50 = nearest_rank(r.latency_ms, 0.5);
    const Quantile p99 = nearest_rank(r.latency_ms, 0.99);
    fp << "events=" << r.events << " notifications=" << r.notifications
       << " expected=" << r.expected << " missed=" << r.missed
       << " spurious=" << r.spurious << " wire_bytes=" << r.wire_bytes
       << " actions=" << after.actions - before.actions
       << " p50_us=" << std::llround(p50.value * 1000)
       << " p99_us=" << std::llround(p99.value * 1000)
       << " replayed=" << replayed;
    r.fingerprint = fp.str();
  }

  // ---- per-layer metrics (traced rounds) ----
  if (traced) {
    const double ev = static_cast<double>(r.events);
    const auto d = [&](std::uint64_t Counters::*f) {
      return static_cast<double>(after.*f - before.*f);
    };
    const auto L = [&r](const char* name, const char* unit, double value) {
      r.layers[name] = {value, unit};
    };
    L("sim.run_until_ns_per_event", "ns/event",
      per(static_cast<double>(run_until_ns), ev));
    L("sim.actions_per_event", "1/event",
      per(d(&Counters::actions), ev));
    L("sim.heap_spills", "count",
      d(&Counters::heap_spills));
    L("wire.messages_per_event", "1/event",
      per(d(&Counters::messages), ev));
    L("wire.bytes_copied_per_event", "B/event",
      per(d(&Counters::bytes_copied), ev));
    L("wire.bytes_shared_per_event", "B/event",
      per(d(&Counters::bytes_shared), ev));
    L("wire.writer_grows_per_event", "1/event",
      per(static_cast<double>(writer.grows), ev));
    L("wire.reserve_shortfalls", "count",
      static_cast<double>(writer.reserve_shortfalls));
    L("gds.broadcasts_per_event", "1/event",
      per(d(&Counters::broadcasts), ev));
    L("gds.duplicates_suppressed", "count",
      d(&Counters::duplicates_suppressed));
    L("transport.retransmits", "count",
      d(&Counters::retransmits));
    L("transport.timeouts", "count",
      d(&Counters::timeouts));
    L("transport.park.parked", "count",
      d(&Counters::parked));
    L("transport.park.flushed", "count",
      d(&Counters::flushed));
    L("transport.park.expired", "count",
      d(&Counters::expired));
    L("profiles.match_us_per_event", "us/event",
      per(after.match_us_sum - before.match_us_sum, d(&Counters::match_count)));
    L("profiles.eq_probe_hits_per_event", "1/event",
      per(d(&Counters::eq_probe_hits), ev));
    L("profiles.candidates_per_event", "1/event",
      per(d(&Counters::candidates), ev));
    L("profiles.residual_evals_per_event", "1/event",
      per(d(&Counters::residual_evals), ev));
    L("profiles.predicate_cache_hit_ratio", "ratio",
      per(d(&Counters::predicate_hits),
            d(&Counters::predicate_hits) + d(&Counters::predicate_misses)));
    L("profiles.query_cache_hits", "count",
      d(&Counters::query_cache_hits));
    L("alerting.notify_body_encodes_per_event", "1/event",
      per(d(&Counters::body_encodes), ev));
    L("alerting.aux_forwards", "count",
      d(&Counters::aux_forwards));
    L("alerting.renames", "count",
      d(&Counters::renames));
    L("alerting.notifications_sent", "count",
      d(&Counters::notifications_sent));
    L("delivery.enqueued", "count",
      d(&Counters::enqueued));
    L("delivery.digests_sent", "count",
      d(&Counters::digests_sent));
    L("delivery.stalls", "count",
      d(&Counters::stalls));
    L("delivery.max_queue_depth", "count",
      static_cast<double>(after.max_queue_depth));
    L("delivery.spilled", "count",
      d(&Counters::spilled));
    L("client.notifications_received", "count",
      static_cast<double>(r.notifications));
    L("journal.appends_per_event", "1/event",
      per(d(&Counters::journal_appends), ev));
    L("journal.bytes_appended", "B",
      d(&Counters::journal_bytes));
    L("journal.commits", "count",
      d(&Counters::journal_commits));
    L("journal.fsync_us_p50", "us",
      fsync_us.p50());
    L("journal.records_replayed", "count",
      static_cast<double>(replayed));
    L("journal.recover_ns_per_record", "ns/record",
      per(r.restart_s * 1e9, static_cast<double>(replayed)));

    // Self time per layer from the profiler tree of the timed phase. The
    // harness frames (run_until, rebuild_collection, ...) are the roots;
    // the service's own scopes nest under them.
    r.folded_stacks = profiler->collapsed_stacks();
    const std::map<std::string, double> self =
        self_ns_by_frame(r.folded_stacks);
    const auto self_of = [&](const char* frame) {
      const auto it = self.find(frame);
      return it == self.end() ? 0.0 : it->second;
    };
    const double dispatch = self_of("sim.dispatch");
    L("cost.dispatch_self.ns_per_event", "ns/event",
      per(dispatch, ev));
    L("cost.gds.ns_per_event", "ns/event",
      per(self_of("gds.handle_broadcast"), ev));
    L("cost.alerting.ns_per_event", "ns/event",
      per(self_of("alerting.filter_and_notify"), ev));
    L("cost.journal.ns_per_event", "ns/event",
      per(self_of("journal.commit") + self_of("journal.compact"), ev));
    // Every timed nanosecond sits in a harness frame, whose self time
    // belongs to the layer it calls. Dispatch self time does not: it
    // lumps delivery, client decode, wire and transport, which have no
    // in-program scopes yet.
    L("cost.unattributed_pct", "%",
      100.0 * per(dispatch, static_cast<double>(timed_ns)));
    r.spans = log.spans();
  }
  return r;
}

}  // namespace perfbench

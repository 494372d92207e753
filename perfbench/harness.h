// Benchmark harness: builds an alerting world from generated inputs,
// drives a fixed sim-time schedule through the public node APIs, times
// every call into the system from outside, and judges the notifications
// against a ground-truth oracle after the run. Nothing here is compiled
// into the service libraries.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "docmodel/collection.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "obs/profiler.h"
#include "profiles/profile.h"
#include "sim/network.h"

namespace perfbench {

namespace gs = ::gsalert;
using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans: one per outside-timed call into the system. Kept in memory and
// written out when the run ends; only traced rounds keep them.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;          // index into spans(), -1 for a root
    std::uint64_t event = 0;  // id shared by the spans of one publish
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(bool keep) : keep_(keep), origin_(Clock::now()) {}

  int open(const char* name, std::uint64_t event = 0);
  void close(int id);

  /// Run `fn` as one call into the system and return its wall time in
  /// nanoseconds. The call is also a profiler frame, so in traced rounds
  /// the service's own scopes nest under it.
  template <typename Fn>
  std::int64_t call(const char* name, std::uint64_t event, Fn&& fn) {
    const int id = open(name, event);
    const Clock::time_point t0 = Clock::now();
    {
      gs::obs::ProfileScope scope(name);
      fn();
    }
    const std::int64_t ns = ns_between(t0, Clock::now());
    close(id);
    return ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool keep_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
/// Exact nearest-rank quantile over sorted samples, with the number of
/// samples strictly above it.
struct Quantile {
  double value = 0.0;
  std::size_t count = 0;   // samples in the distribution
  std::size_t beyond = 0;  // samples strictly greater than value
};
Quantile nearest_rank(const std::vector<double>& sorted, double q);
/// Highest of p99.9/p99/p90/p50 with at least ten samples beyond its
/// rank ("the tail this many samples can resolve"); name in `label`.
Quantile resolvable_tail(const std::vector<double>& sorted,
                         std::string* label);
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Generated inputs. Everything here is made from the seed before the
// first round; rounds only copy from it.
struct WorldSpec {
  int servers = 1;
  int clients_per_server = 1;
  std::string topology;  // zoo name; empty keeps the uniform `path`
  gs::sim::PathConfig path{.latency = gs::SimTime::millis(10)};
  gs::alerting::AlertingConfig alerting;
  /// Journal compaction threshold of every Greenstone server (0 = off).
  std::size_t compact_threshold_bytes = 64 * 1024;
};

struct CollectionInput {
  std::size_t server = 0;
  gs::docmodel::CollectionConfig config;
  gs::docmodel::DataSet data;
};

struct SubInput {
  std::size_t client = 0;
  std::string text;
  gs::profiles::Profile profile;  // parsed once, for the oracle only
  gs::alerting::DeliveryPolicy policy;
};

enum class OpKind { kRebuild, kSubscribe, kCancel, kPartition, kHeal };

struct Op {
  gs::SimTime due;
  OpKind kind = OpKind::kRebuild;
  /// kRebuild: collection index; kSubscribe/kCancel: SubInput index.
  std::size_t target = 0;
  gs::docmodel::DataSet data;                   // kRebuild: full new set
  std::vector<gs::docmodel::Document> fresh;    // kRebuild: added docs
};

struct Inputs {
  WorldSpec spec;
  std::vector<std::string> hosts;
  std::vector<CollectionInput> collections;
  std::vector<gs::CollectionRef> refs;  // index-aligned with collections
  /// (super, sub) collection indices: distributed-collection links.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  std::vector<SubInput> subs;
  std::size_t initial_subs = 0;  // subs[0..initial) load during set-up
  /// Load via AlertingService::subscribe_local (server side) instead of
  /// the client protocol.
  bool local_subscribe = false;
  /// Clients hand notifications to a streaming sink instead of storing.
  bool sink_clients = false;
  std::vector<Op> ops;
  gs::SimTime drain;  // run past the last op so every flood lands
  /// Servers kPartition cuts off from everything else, their own
  /// clients and the GDS tree included.
  std::vector<std::size_t> island;
  /// Size parameters, stamped next to every result.
  std::vector<std::pair<std::string, std::string>> params;
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed);
const std::vector<std::string>& workload_names();

// ---------------------------------------------------------------------------
/// One round: fresh world, set-up, timed phase, restart, checks.
struct RoundResult {
  double setup_s = 0.0;
  double timed_s = 0.0;    // sum of timed calls (publish + run_until ...)
  double restart_s = 0.0;  // crash-restart + replay of every server
  std::uint64_t events = 0;
  std::uint64_t notifications = 0;
  std::uint64_t expected = 0;
  std::uint64_t missed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t spurious = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<double> latency_ms;  // sorted, one per delivered notification
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // failed checks, human readable
  /// Deterministic outcome of the round; equal seeds must agree.
  std::string fingerprint;
  double oracle_s = 0.0;
  double generate_s = 0.0;
  /// Per-layer metrics (name -> value, unit), filled for traced rounds.
  std::map<std::string, std::pair<double, std::string>> layers;
  std::vector<double> rebuild_call_us;
  std::vector<double> subscribe_call_us;
  std::vector<SpanLog::Span> spans;  // traced rounds only
  std::string folded_stacks;         // traced rounds only
};

RoundResult run_round(const Inputs& inputs, std::uint64_t seed,
                      bool traced);

}  // namespace perfbench

// Seed-sweep property tests: randomized topology x workload x fault
// schedule, all six invariant checkers armed. Any failing seed is a
// one-line repro:   ./tests/chaos_test --seed=N   (--no-dedup disables
// GDS duplicate suppression; --root-crash pins the root-failover
// schedule instead of the seed-derived one).
//
// The sweep is sharded so ctest -j runs shards in parallel. Seed count
// scales with GSALERT_CHAOS_SEEDS (total across shards, default 300).
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/chaos.h"
#include "sim/invariants.h"
#include "sim/topology.h"
#include "workload/chaos_runner.h"

namespace gsalert::workload {

ChaosRunConfig config_for_seed(std::uint64_t seed) {
  ChaosRunConfig config;
  config.seed = seed;
  config.n_servers = 5 + static_cast<int>(seed % 6);
  config.gds_fanout = 2 + static_cast<int>(seed % 3);
  config.clients_per_server = 1 + static_cast<int>(seed % 2);
  config.profiles_per_client = 2;
  config.distributed_links = static_cast<int>(seed % 4);
  config.chaos.crashes = 1 + static_cast<int>(seed % 3);
  config.chaos.blocks = static_cast<int>(seed % 3);
  config.chaos.partitions = static_cast<int>((seed / 2) % 2);
  config.chaos.loss_bursts = static_cast<int>((seed / 3) % 2);
  config.chaos.duplication_windows = static_cast<int>((seed / 5) % 2);
  config.chaos.reorder_windows = static_cast<int>((seed / 7) % 2);
  // Every fifth seed shrinks the journal compaction threshold so the
  // sweep crashes nodes right next to (and between) compaction cycles,
  // with the strict crash-durability invariant still armed.
  if (seed % 5 == 0) config.journal_compact_bytes = 4096;
  // Every seventh seed runs on a WAN topology-zoo world instead of the
  // uniform mesh: region-matrix latencies, targeted link/region spikes,
  // correlated regional failures, adaptive re-parenting on half of them,
  // and post-heal mediated fan-outs that must come back complete.
  if (seed % 7 == 2) {
    const std::vector<std::string>& zoo = sim::topology_zoo();
    config.sim_topology = zoo[(seed / 7) % zoo.size()];
    config.adaptive_tree = (seed / 7) % 2 == 0;
    config.chaos.link_spikes = 1;
    config.chaos.region_spikes = 1;
    config.chaos.regional_failures = static_cast<int>((seed / 14) % 2);
    config.mediator_queries = 2;
  }
  return config;
}

/// A schedule guaranteed to exercise the root-failover sibling ring:
/// the GDS root (always NodeId 1 — build_world creates the tree first)
/// dies long enough for its children to fall back to the ring, with
/// publishes flowing while the cycle is live. Replayable from the
/// command line via --root-crash.
sim::ChaosSchedule root_crash_schedule() {
  sim::Fault crash{.kind = sim::FaultKind::kCrash,
                   .start = SimTime::millis(500),
                   .end = SimTime::millis(6500),
                   .node = NodeId{1}};
  return sim::ChaosSchedule{{crash}};
}

namespace {

constexpr int kShards = 10;

int seeds_per_shard() {
  int total = 300;
  if (const char* env = std::getenv("GSALERT_CHAOS_SEEDS")) {
    total = std::max(kShards, std::atoi(env));
  }
  return total / kShards;
}

class ChaosSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSweep, InvariantsHoldAcrossSeeds) {
  const int per_shard = seeds_per_shard();
  for (int i = 0; i < per_shard; ++i) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 1000 + 1 +
        static_cast<std::uint64_t>(i);
    const ChaosRunConfig config = config_for_seed(seed);
    const ChaosReport report = run_chaos(config);
    if (report.ok()) continue;
    const sim::ChaosSchedule minimized =
        minimize_schedule(config, report.schedule);
    const ChaosReport min_report = run_chaos_with(config, minimized);
    ADD_FAILURE() << "chaos seed " << seed << " violated invariants:\n"
                  << sim::format_violations(report.violations)
                  << report.trace << "minimized repro ("
                  << minimized.faults().size() << " fault(s)):\n"
                  << min_report.trace
                  << "replay: ./tests/chaos_test --seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ChaosSweep,
                         ::testing::Range(0, kShards),
                         [](const auto& info) {
                           return "shard_" + std::to_string(info.param);
                         });

TEST(ChaosReplay, SeedReplayIsByteIdentical) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const ChaosRunConfig config = config_for_seed(seed);
    const ChaosReport first = run_chaos(config);
    const ChaosReport second = run_chaos(config);
    // DESIGN §8: the whole run — fault schedule, interleaving, checker
    // verdicts — must reproduce byte for byte from the seed.
    EXPECT_EQ(first.trace, second.trace) << "seed " << seed;
    EXPECT_EQ(first.ok(), second.ok()) << "seed " << seed;
  }
}

// The reason this harness exists: a deliberately broken build (GDS
// duplicate suppression off) must be caught by the sweep, with the
// repro seed printed. The root-crash schedule makes the sibling ring
// live, so un-deduplicated broadcasts loop until TTL exhaustion.
TEST(ChaosInjectedBug, DedupDisabledIsCaughtBySweep) {
  std::vector<std::uint64_t> caught;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChaosRunConfig config = config_for_seed(seed);
    config.gds_dedup = false;
    const ChaosReport report =
        run_chaos_with(config, root_crash_schedule());
    if (report.ok()) continue;
    caught.push_back(seed);
    bool exactly_once = false;
    for (const sim::Violation& v : report.violations) {
      exactly_once = exactly_once || v.invariant == "gds-exactly-once";
    }
    EXPECT_TRUE(exactly_once)
        << "seed " << seed << " failed for an unexpected reason:\n"
        << sim::format_violations(report.violations);
    // A violating run must carry the flight-recorder dump in its trace:
    // the per-node history that names the exact hop that broke.
    EXPECT_NE(report.trace.find("--- flight recorder"), std::string::npos)
        << "seed " << seed
        << " violated an invariant but the trace has no flight dump";
    EXPECT_NE(report.trace.find("gds-broadcast"), std::string::npos)
        << "flight dump for seed " << seed << " records no broadcast hops";
  }
  ASSERT_FALSE(caught.empty())
      << "disabling GDS dedup was not caught by any sweep seed";
  std::cout << "injected dedup bug caught; repro seeds:";
  for (const std::uint64_t seed : caught) {
    std::cout << " " << seed << " (./tests/chaos_test --seed=" << seed
              << " --no-dedup --root-crash)";
  }
  std::cout << "\n";
}

TEST(ChaosInjectedBug, HealthyBuildSurvivesSameSchedule) {
  ChaosRunConfig config = config_for_seed(1);
  const ChaosReport report =
      run_chaos_with(config, root_crash_schedule());
  EXPECT_TRUE(report.ok()) << sim::format_violations(report.violations)
                           << report.trace;
}

// Torn-write chaos class: every crash lands on a disk whose fsync lies
// (random prefixes of unflushed appends survive, the last flushed batch
// may tear back, and a bit near the tail can flip). The strict
// crash-durability invariant is legally void here — an acked dedup key
// can be torn out of the log — so full checks are off. What must still
// hold: recovery never crashes a node (torn tails are repaired, not
// fatal), wire conservation, and post-heal liveness (the final healthy
// publishes still reach subscribers).
TEST(ChaosTornWrites, RecoverySurvivesTornLogsAcrossSeeds) {
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL, 95ULL, 140ULL}) {
    ChaosRunConfig config = config_for_seed(seed);
    config.full_checks = false;
    config.storage_faults.torn_write = 1.0;
    config.storage_faults.bit_flip = 0.25;
    config.journal_compact_bytes = 4096;  // tear near compactions too
    config.chaos.crashes = 3;
    const ChaosReport report = run_chaos(config);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << " (wire conservation under torn writes):\n"
        << sim::format_violations(report.violations) << report.trace;
    EXPECT_GT(report.outcome.delivered_matching, 0u)
        << "seed " << seed << " delivered nothing despite healing";
  }
}

// Torn-write fault draws come from the network Rng, so even the
// misbehaving-disk runs replay byte for byte from the seed.
TEST(ChaosTornWrites, TornRunReplaysByteIdentical) {
  ChaosRunConfig config = config_for_seed(13);
  config.full_checks = false;
  config.storage_faults.torn_write = 1.0;
  config.storage_faults.bit_flip = 0.25;
  config.journal_compact_bytes = 4096;
  const ChaosReport first = run_chaos(config);
  const ChaosReport second = run_chaos(config);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.ok(), second.ok());
}

TEST(ChaosMinimize, ShrinksFailingScheduleToCulprit) {
  ChaosRunConfig config = config_for_seed(2);
  config.gds_dedup = false;
  // Root crash (the culprit) plus three unrelated knob windows.
  std::vector<sim::Fault> faults = root_crash_schedule().faults();
  faults.push_back(sim::Fault{.kind = sim::FaultKind::kLatencySpike,
                              .start = SimTime::millis(7000),
                              .end = SimTime::millis(8000),
                              .latency = SimTime::millis(100)});
  faults.push_back(sim::Fault{.kind = sim::FaultKind::kDuplication,
                              .start = SimTime::millis(8100),
                              .end = SimTime::millis(8900),
                              .prob = 0.2});
  faults.push_back(sim::Fault{.kind = sim::FaultKind::kReorder,
                              .start = SimTime::millis(9000),
                              .end = SimTime::millis(9800),
                              .prob = 0.5,
                              .latency = SimTime::millis(30)});
  const sim::ChaosSchedule full{std::move(faults)};
  ASSERT_FALSE(run_chaos_with(config, full).ok());

  const sim::ChaosSchedule minimized = minimize_schedule(config, full);
  EXPECT_LT(minimized.faults().size(), full.faults().size());
  EXPECT_FALSE(run_chaos_with(config, minimized).ok());
  // The crash must survive minimization — it is what arms the ring.
  bool has_crash = false;
  for (const sim::Fault& f : minimized.faults()) {
    has_crash = has_crash || f.kind == sim::FaultKind::kCrash;
  }
  EXPECT_TRUE(has_crash);
}

}  // namespace
}  // namespace gsalert::workload

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool dedup = true;
  bool root_crash = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      try {
        std::size_t used = 0;
        seed = std::stoull(arg.substr(7), &used);
        if (used != arg.substr(7).size()) throw std::invalid_argument{arg};
      } catch (const std::exception&) {
        std::cerr << "chaos_test: --seed expects an unsigned integer, got '"
                  << arg.substr(7) << "'\n";
        return 2;
      }
      have_seed = true;
    } else if (arg == "--no-dedup") {
      dedup = false;
    } else if (arg == "--root-crash") {
      root_crash = true;
    } else {
      std::cerr << "chaos_test: unknown argument '" << arg
                << "' (flags: --seed=N [--no-dedup] [--root-crash])\n";
      return 2;
    }
  }
  if (!have_seed) return RUN_ALL_TESTS();

  // Replay mode: one seed, full trace on stdout, exit code = verdict.
  // --root-crash swaps the seed-derived schedule for the pinned
  // root-failover schedule the injected-bug test uses.
  using namespace gsalert;
  workload::ChaosRunConfig config = workload::config_for_seed(seed);
  config.gds_dedup = dedup;
  const workload::ChaosReport report =
      root_crash
          ? workload::run_chaos_with(config,
                                     workload::root_crash_schedule())
          : workload::run_chaos(config);
  std::cout << report.trace;
  if (report.ok()) {
    std::cout << "PASS\n";
    return 0;
  }
  std::cout << "violations:\n"
            << sim::format_violations(report.violations);
  const sim::ChaosSchedule minimized =
      workload::minimize_schedule(config, report.schedule);
  const workload::ChaosReport min_report =
      workload::run_chaos_with(config, minimized);
  std::cout << "minimized repro (" << minimized.faults().size()
            << " fault(s)):\n"
            << min_report.trace << "FAIL\n";
  return 1;
}

// perfbench: the repository benchmark.
//
//   perfbench --workload <flood_wide|subscriber_scale|churn_partition>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Repeats rounds (fresh world, set-up, timed phase, restart, oracle) of
// one workload until --seconds of wall time have passed, then prints a
// report and, as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics (no profiler, no span sink).
// --trace 1 alternates untraced and traced rounds and reports per-layer
// metrics from the traced ones; spans and profiler stacks of the last
// traced round go to .bench_out/. Exit status is 1 when any correctness
// check failed, 2 on bad arguments. METRICS.md defines every metric.
#include <sys/utsname.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !have_workload) return false;
  for (const std::string& name : workload_names()) {
    if (name == args.workload) return true;
  }
  return false;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Host and build facts, stamped next to every result.
std::string facts_json(const Args& args, const Inputs& in, std::size_t rounds) {
  utsname host{};
  uname(&host);
  std::string out = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"rounds\": " + std::to_string(rounds) +
                    ", \"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"threads_used\": 1, \"sim_shards\": 1" +
                    ", \"host\": " +
                    json_string(std::string(host.sysname) + " " +
                                host.release + " " + host.machine) +
                    ", \"compiler\": " +
                    json_string(std::string(PERFBENCH_COMPILER) + " (" +
                                __VERSION__ + ")") +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
                    ", \"topology\": " +
                    json_string(in.spec.topology.empty() ? "uniform"
                                                         : in.spec.topology) +
                    ", \"params\": {";
  for (std::size_t i = 0; i < in.params.size(); ++i) {
    out += (i ? ", " : "") + json_string(in.params[i].first) + ": " +
           in.params[i].second;
  }
  return out + "}}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_trace(const Args& args, const std::string& facts,
                 const RoundResult& r) {
  const std::filesystem::path dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string stem =
      args.workload + "-seed" + std::to_string(args.seed);
  std::ofstream out{dir / (stem + ".trace.json")};
  out << "{\"facts\": " << facts << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const SpanLog::Span& s = r.spans[i];
    out << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": "
        << json_string(s.name) << ", \"parent\": " << s.parent
        << ", \"event\": " << s.event << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "\n ]}\n";
  std::ofstream folded{dir / (stem + ".folded")};
  folded << r.folded_stacks;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:");
    for (const std::string& name : workload_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  const Clock::time_point start = Clock::now();
  const Inputs inputs = make_inputs(args.workload, args.seed);
  const double input_s =
      static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  const auto elapsed = [&] {
    return static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  };

  // Rounds until the time is spent; a trace run alternates untraced and
  // traced rounds so both see the same machine state.
  std::vector<RoundResult> plain, traced;
  while (true) {
    const bool trace_round = args.trace && plain.size() > traced.size();
    RoundResult r = run_round(inputs, args.seed, trace_round);
    std::fprintf(stderr, "[perfbench] %s round %zu%s: setup %.3fs timed %.3fs "
                 "restart %.3fs oracle %.3fs\n",
                 args.workload.c_str(), plain.size() + traced.size() + 1,
                 trace_round ? " (traced)" : "", r.setup_s, r.timed_s,
                 r.restart_s, r.oracle_s);
    (trace_round ? traced : plain).push_back(std::move(r));
    const bool enough = !args.trace || !traced.empty();
    if (enough && elapsed() >= args.seconds) break;
  }

  std::vector<const RoundResult*> all;
  for (const RoundResult& r : plain) all.push_back(&r);
  for (const RoundResult& r : traced) all.push_back(&r);

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    for (const std::string& f : r->failures) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    if (r->fingerprint != all.front()->fingerprint) {
      correct = false;
      std::printf("CHECK FAILED: rounds of one seed disagree:\n  %s\n  %s\n",
                  all.front()->fingerprint.c_str(), r->fingerprint.c_str());
    }
  }

  const std::string facts = facts_json(args, inputs, all.size());
  std::printf("facts %s\n", facts.c_str());
  const RoundResult& first = *all.front();
  std::printf("outcome %s\n", first.fingerprint.c_str());

  const auto across = [](const std::vector<RoundResult>& rounds, auto&& f) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(f(r));
    return median(std::move(v));
  };
  const auto events_per_s = [](const RoundResult& r) {
    return static_cast<double>(r.events) / r.timed_s;
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Quantile p50 = nearest_rank(first.latency_ms, 0.5);
    const Quantile p99 = nearest_rank(first.latency_ms, 0.99);
    std::printf("latency samples %zu: p50 %.3f ms (%zu beyond), p99 %.3f ms "
                "(%zu beyond)\n",
                p50.count, p50.value, p50.beyond, p99.value, p99.beyond);
    std::printf("oracle: expected %" PRIu64 ", delivered %" PRIu64
                ", missed %" PRIu64 " (miss_ratio %.6f), spurious %" PRIu64
                " (spurious_ratio %.6f)\n",
                first.expected, first.delivered, first.missed,
                ratio(first.missed, first.expected), first.spurious,
                ratio(first.spurious, first.delivered));
    const std::uint64_t matched = first.delivered - first.spurious;
    metrics = {
        {"setup_s", across(plain, [](auto& r) { return r.setup_s; }), "s"},
        {"events_per_s", across(plain, events_per_s), "1/s"},
        {"notifications_per_s", across(plain, [](auto& r) {
           return static_cast<double>(r.notifications) / r.timed_s;
         }), "1/s"},
        {"e2e_p50_ms", p50.value, "ms"},
        {"e2e_p99_ms", p99.value, "ms"},
        {"delivered_ratio", ratio(matched, first.expected), "ratio"},
        {"precision", ratio(matched, first.delivered), "ratio"},
        {"wire_bytes_per_event", ratio(first.wire_bytes, first.events), "B"},
        {"restart_s", across(plain, [](auto& r) { return r.restart_s; }), "s"},
        // After the first round: later rounds only add allocator
        // fragmentation, and their number depends on the host's speed.
        {"peak_rss_mb", first.peak_rss_mb, "MiB"},
    };
  } else {
    for (const auto& [name, value_unit] : traced.front().layers) {
      metrics.push_back({name, across(traced, [&](auto& r) {
                           return r.layers.at(name).first;
                         }), value_unit.second});
    }
    const auto call_quantiles = [&](const char* name, auto member) {
      std::vector<double> pooled;
      for (const RoundResult& r : traced) {
        pooled.insert(pooled.end(), (r.*member).begin(), (r.*member).end());
      }
      std::sort(pooled.begin(), pooled.end());
      std::string label;
      const Quantile p50 = nearest_rank(pooled, 0.5);
      const Quantile tail = resolvable_tail(pooled, &label);
      std::printf("%s: %zu calls, p50 %.3f us (%zu beyond), tail = %s %.3f us "
                  "(%zu beyond)\n",
                  name, p50.count, p50.value, p50.beyond, label.c_str(),
                  tail.value, tail.beyond);
      metrics.push_back({std::string(name) + ".p50", p50.value, "us"});
      metrics.push_back({std::string(name) + ".tail", tail.value, "us"});
    };
    call_quantiles("gsnet.rebuild_call_us", &RoundResult::rebuild_call_us);
    call_quantiles("profiles.subscribe_call_us",
                   &RoundResult::subscribe_call_us);
    std::vector<double> oracle, generate;
    for (const RoundResult* r : all) {
      oracle.push_back(r->oracle_s);
      generate.push_back(r->generate_s + input_s);
    }
    metrics.push_back({"harness.oracle_s", median(oracle), "s"});
    metrics.push_back({"harness.generate_s", median(generate), "s"});
    const double plain_eps = across(plain, events_per_s);
    const double traced_eps = across(traced, events_per_s);
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (plain_eps - traced_eps) / plain_eps, "%"});
    write_trace(args, facts, traced.back());
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

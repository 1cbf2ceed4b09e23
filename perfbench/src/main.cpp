// kairos_perfbench — one admission benchmark for Kairos.
//
//   kairos_perfbench --workload <crisp_serial|crisp_service|mesh10k_service>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: whether every correctness check held,
// the operations attempted and failed, and the metrics — the end-to-end set
// with --trace 0, the per-layer set with --trace 1 (which also records the
// benchmark's spans and writes them as Chrome trace JSON). Every metric of
// the run, both sets, goes to standard error as one "perfbench all:" line,
// so the tracing overhead can be read off the traced run.
//
// Exit codes: 0 correct; 1 a correctness check failed (the result is still
// printed); 2 the run could not be set up or was invalid as a measurement;
// 64 bad arguments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "record.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Run;

struct Metric {
  const char* name;
  const char* unit;
  double value;
  bool integral;
};

std::string number(double value, bool integral) {
  if (integral) return std::to_string(static_cast<long long>(value));
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::vector<Metric> end_to_end(const Run& run) {
  return {
      {"setup_s", "s", run.setup_s, false},
      {"decisions_per_s", "1/s", run.decisions_per_s, false},
      {"decision_p50_ms", "ms", run.decision_p50_ms, false},
      {"decision_p99_ms", "ms", run.decision_p99_ms, false},
      {"admitted", "count", static_cast<double>(run.admitted), true},
      {"mean_hops", "hops",
       run.hops_count > 0 ? run.hops_sum / static_cast<double>(run.hops_count)
                          : 0.0,
       false},
      {"heap_in_use_mb", "MiB", run.heap_in_use_mb, false},
  };
}

/// The per-layer metrics every workload measures (BENCHMARK.json's list).
std::vector<Metric> per_layer(const Run& run) {
  const auto rejected = [&run](kairos::core::Phase phase) {
    return static_cast<double>(run.rejected[static_cast<std::size_t>(phase)]);
  };
  using kairos::core::Phase;
  return {
      {"core.binding_ms", "ms", run.binding_ms.value(), false},
      {"core.mapping_ms", "ms", run.mapping_ms.value(), false},
      {"core.routing_ms", "ms", run.routing_ms.value(), false},
      {"core.validation_ms", "ms", run.validation_ms.value(), false},
      {"core.validation_p50_ms", "ms", run.validation_p50_ms,
       false},
      {"core.remove_ms", "ms", run.remove_ms.value(), false},
      {"core.rejected.binding", "count", rejected(Phase::kBinding), true},
      {"core.rejected.mapping", "count", rejected(Phase::kMapping), true},
      {"core.rejected.routing", "count", rejected(Phase::kRouting), true},
      {"core.rejected.validation", "count", rejected(Phase::kValidation),
       true},
      {"platform.snapshot_ms", "ms", run.snapshot_ms.value(), false},
      {"platform.rss_setup_mb", "MiB", run.rss_setup_mb, false},
      {"platform.rss_growth_mb", "MiB", run.rss_growth_mb, false},
      {"alloc.peak_rss_mb", "MiB", run.peak_rss_mb, false},
      {"alloc.heap_growth_mb", "MiB", run.heap_in_use_mb - run.heap_setup_mb,
       false},
  };
}

/// The per-layer metrics of one path only: the exclusive admit() of
/// crisp_serial, or the service and load generator of the open loops.
/// Reported on standard error with the rest, not in the result line, whose
/// per-layer set is the same for every workload.
std::vector<Metric> path_layer(const Run& run) {
  if (!run.open_loop) {
    return {{"core.admit_overhead_ms", "ms", run.admit_overhead_ms.value(),
             false}};
  }
  return {
      {"service.submit_us", "us", run.submit_us.value(), false},
      {"service.overhead_p50_ms", "ms", run.service_overhead_ms.quantile(0.5),
       false},
      {"service.overhead_p99_ms", "ms",
       run.service_overhead_ms.quantile(0.99), false},
      {"service.commit_conflicts", "count",
       static_cast<double>(run.commit_conflicts), true},
      {"service.fallbacks", "count", static_cast<double>(run.fallbacks), true},
      {"service.batches", "count", static_cast<double>(run.batches), true},
      {"service.cross_shard_commits", "count",
       static_cast<double>(run.cross_shard_commits), true},
      {"service.requests_per_batch", "count", run.requests_per_batch, false},
      {"loadgen.lateness_p99_ms", "ms", run.lateness_ms.quantile(0.99), false},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(metrics[i].name).append("\": {\"value\": ");
    out.append(number(metrics[i].value, metrics[i].integral));
    out.append(", \"unit\": \"").append(metrics[i].unit).append("\"}");
  }
  out += "}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: kairos_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 64;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto result = std::from_chars(text, end, out);
  return result.ec == std::errc() && result.ptr == end && end != text;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) return usage();
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 3600) {
        return usage();
      }
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage();
      options.trace = trace == 1;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds == 0) return usage();
  if (options.trace_path.empty()) {
    options.trace_path = "trace_" + options.workload + ".json";
  }

  Run run;
  bool valid = false;
  if (options.workload == "crisp_serial") {
    valid = perfbench::run_crisp_serial(options, run);
  } else if (options.workload == "crisp_service") {
    valid = perfbench::run_crisp_service(options, run);
  } else if (options.workload == "mesh10k_service") {
    valid = perfbench::run_mesh10k_service(options, run);
  } else {
    return usage();
  }
  if (!valid) {
    std::fprintf(stderr, "perfbench: %s produced no valid measurement\n",
                 options.workload.c_str());
    return 2;
  }

  for (const std::string& violation : run.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", violation.c_str());
  }
  const bool correct = run.violations.empty();
  std::vector<Metric> all = end_to_end(run);
  const std::vector<Metric> layers = per_layer(run);
  const std::vector<Metric> path = path_layer(run);
  all.insert(all.end(), layers.begin(), layers.end());
  all.insert(all.end(), path.begin(), path.end());
  std::fprintf(stderr, "perfbench all: {\"workload\": \"%s\", \"seed\": %llu, "
               "\"trace\": %d, \"decisions\": %ld, \"metrics\": %s}\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0, run.decisions, metrics_json(all).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              metrics_json(options.trace ? layers : end_to_end(run)).c_str());
  return correct ? 0 : 1;
}

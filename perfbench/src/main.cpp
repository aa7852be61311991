// perfbench — the repository's benchmark driver (see perfbench/README.md).
//
//   perfbench --workload <compile_cold|tydid_warm|tydid_edit|sim_shards4>
//             --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <perfbench dir> --work-dir <dir> --tydid <path>
//   perfbench --print-pins --data-dir <perfbench dir>
//
// Prints a human-readable report, then as the last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit 0
// when every output matched its pin, 1 otherwise, 2 on bad usage or a
// failed set-up.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>

#include "perfbench/src/bench.hpp"

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"parser.ms_per_compile", "ms"},
    {"elab.ms_per_compile", "ms"},
    {"sugar.ms_per_compile", "ms"},
    {"ir.lower_ms_per_compile", "ms"},
    {"drc.ms_per_compile", "ms"},
    {"ir.emit_ms_per_compile", "ms"},
    {"vhdl.ms_per_compile", "ms"},
    {"driver.compile_ms", "ms"},
    {"driver.unattributed_ms", "ms"},
    {"driver.phase_coverage", "ratio"},
    {"parser.cache_hit_ratio", "ratio"},
    {"elab.memo_hit_ratio", "ratio"},
    {"vhdl.port_cache_hit_ratio", "ratio"},
    {"driver.parse_cache_entries", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.request_ms", "ms"},
    {"server.transport_ms", "ms"},
    {"server.rss_kb_per_1k_requests", "kB"},
    {"server.vm_maps_per_1k_requests", "count"},
    {"journal.appends_per_request", "count"},
    {"journal.bytes", "bytes"},
    {"sim.build_graph_ms", "ms"},
    {"sim.shard.run_ms", "ms"},
    {"sim.shard.rounds_per_run", "count"},
    {"sim.shard.barrier_wait_ms", "ms"},
    {"sim.events_per_round", "count"},
    {"sim.shard.imbalance", "ratio"},
    {"sim_events_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload <compile_cold|tydid_warm|"
               "tydid_edit|sim_shards4> --seed <n> --seconds <s> "
               "--trace <0|1> --data-dir <dir> --work-dir <dir> "
               "--tydid <path>\n"
               "       perfbench --print-pins --data-dir <dir>\n";
  return 2;
}

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

std::string governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string g;
  return in >> g ? g : "unreadable";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  std::string work_dir;
  bool print_pins = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-pins") {
      print_pins = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      ctx.workload = value;
    } else if (arg == "--seed") {
      ctx.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (arg == "--trace") {
      ctx.trace = value == "1";
    } else if (arg == "--data-dir") {
      ctx.data_dir = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--tydid") {
      ctx.tydid_path = value;
    } else {
      return usage();
    }
  }
  if (ctx.data_dir.empty()) return usage();
  if (print_pins) {
    perfbench::print_compile_pins(std::cout);
    perfbench::print_sim_pins(ctx, std::cout);
    return 0;
  }
  const bool daemon =
      ctx.workload == "tydid_warm" || ctx.workload == "tydid_edit";
  if (!have_seed || work_dir.empty() || ctx.seconds <= 0.0 ||
      (daemon && ctx.tydid_path.empty()) ||
      (!daemon && ctx.workload != "compile_cold" &&
       ctx.workload != "sim_shards4")) {
    return usage();
  }
  std::string error;
  if (!ctx.pins.load(ctx.data_dir + "/pins.txt", error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  // A dead daemon must surface as a failed request, not kill the client.
  ::signal(SIGPIPE, SIG_IGN);

  ctx.run_dir = work_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(ctx.run_dir);

  const perfbench::HostSample host_before = perfbench::HostSample::take();
  perfbench::RunResult r;
  int status = 0;
  try {
    if (daemon) {
      r = perfbench::run_tydid(ctx, ctx.workload == "tydid_edit");
    } else if (ctx.workload == "compile_cold") {
      r = perfbench::run_compile_cold(ctx);
    } else {
      r = perfbench::run_sim_shards(ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    status = 2;
  }
  std::filesystem::remove_all(ctx.run_dir);
  if (status != 0) return status;
  const perfbench::HostSample host_after = perfbench::HostSample::take();

  const perfbench::Summary sum = perfbench::summarize(r.latencies_ms, r.window_s);
  std::map<std::string, double> e2e = {
      {"setup_s", r.setup_s},          {"ops_per_s", sum.ops_per_s},
      {"latency_p50_ms", sum.p50},     {"latency_p90_ms", sum.p90},
      {"latency_p99_ms", sum.p99},     {"peak_rss_mb", r.peak_rss_mb},
  };
  const std::string trace_path = work_dir + "/traces/" + ctx.workload +
                                 "-seed" + std::to_string(ctx.seed) + ".json";
  if (ctx.trace) {
    r.layer["trace.overhead_ratio"] = r.trace_overhead;
    std::filesystem::create_directories(work_dir + "/traces");
    if (!perfbench::write_trace(trace_path, r.spans)) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
    }
  }

  // The human-readable report.
  const bool correct = r.oracle_ok && r.mismatches == 0;
  std::printf("perfbench %s seed %llu, %s run of %.1f s\n",
              ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed),
              ctx.trace ? "traced" : "untraced", ctx.seconds);
  std::printf("environment: nproc %ld, hardware_concurrency %u, governor %s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), governor().c_str());
  const double ticks = host_after.total_ticks - host_before.total_ticks;
  std::printf(
      "host: loop speed %.4g /us before the run, %.4g after; steal %.2f%% of "
      "CPU time during it\n",
      host_before.loop_speed, host_after.loop_speed,
      ticks > 0.0
          ? 100.0 * (host_after.steal_ticks - host_before.steal_ticks) / ticks
          : 0.0);
  std::printf(
      "ops: %llu attempted, %llu failed (error_rate %.6g), %llu mismatched "
      "outputs, %zu latency samples in %.2f s\n",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 0.0,
      static_cast<unsigned long long>(r.mismatches), r.latencies_ms.size(),
      r.window_s);
  if (!ctx.trace) {
    std::printf("samples beyond: p50 %zu, p90 %zu, p99 %zu\n",
                sum.beyond_p50, sum.beyond_p90, sum.beyond_p99);
    for (const Metric& m : kEndToEnd) {
      std::printf("  %-34s %14.6g %s\n", m.name, e2e[m.name], m.unit);
    }
  } else {
    std::printf("per-layer (n/a reads 0):\n");
    for (const Metric& m : kPerLayer) {
      std::printf("  %-34s %14.6g %s\n", m.name, r.layer[m.name], m.unit);
    }
    std::printf("trace: %s\n", trace_path.c_str());
  }
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : ctx.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd)) {
    const double v = ctx.trace ? r.layer[m.name] : e2e[m.name];
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

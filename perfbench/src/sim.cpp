// sim_shards4: the simulation kernel and the shard barrier. Each op is one
// simulation at shards = min(4, nproc) with exact acks and generic
// stimuli: sim::build_sim_graph, then sim::shard::run_sharded, timed
// apart. The design cycles in a seeded order over a grid where sharding
// pays and two cut-heavy designs where it loses; packet counts give each
// design a comparable share of host time.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/bench.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/shard/runtime.hpp"

namespace perfbench {

namespace sim = tydi::sim;

namespace {

struct Design {
  std::string name;
  int packets = 0;
  tydi::driver::CompileResult compiled;
  sim::SimOptions options;
  // Per-design lane totals.
  std::uint64_t runs = 0;
  double build_ms = 0.0;
  double run_ms = 0.0;
  double rounds = 0.0;
  double barrier_wait_ms = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::vector<double> latencies_ms;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<Design> compile_designs(const Context& ctx, int shards) {
  std::vector<Design> designs(3);
  designs[0].name = "pipeline_grid_16x8";
  designs[0].packets = 5000;
  designs[1].name = "parallelize_c32";
  designs[1].packets = 20000;
  designs[2].name = "tpch_q19";
  designs[2].packets = 20000;
  const char* tops[] = {"grid_top", "partest_top"};
  for (int i = 0; i < 2; ++i) {
    tydi::driver::CompileOptions options;
    options.top = tops[i];
    options.emit_vhdl = false;
    designs[i].compiled = tydi::driver::compile_source(
        read_file(ctx.data_dir + "/designs/" + designs[i].name + ".td"),
        options);
  }
  designs[2].compiled =
      tydi::tpch::compile_query(*tydi::tpch::find_query("TPC-H 19"));
  for (Design& d : designs) {
    if (!d.compiled.success()) {
      throw std::runtime_error(d.name + " failed to compile:\n" +
                               d.compiled.report());
    }
    d.options.max_time_ns = 1.0e9;
    d.options.record_trace = false;
    d.options.shards = shards;
    d.options.ack_mode = sim::AckMode::kExact;
    d.options.stimuli = sim::generic_stimuli(d.compiled.design, d.packets);
  }
  return designs;
}

std::uint64_t output_packets(const sim::SimResult& result) {
  std::uint64_t n = 0;
  for (const auto& [port, packets] : result.top_outputs) n += packets.size();
  return n;
}

}  // namespace

void print_sim_pins(const Context& ctx, std::ostream& out) {
  for (Design& d : compile_designs(ctx, 1)) {
    tydi::support::DiagnosticEngine diags;
    const sim::SimResult result =
        sim::Engine(d.compiled.design, diags).run(d.options);
    out << "sim." << d.name << ".events " << result.events_processed << "\n"
        << "sim." << d.name << ".outputs " << output_packets(result) << "\n"
        << "sim." << d.name << ".deadlock " << (result.deadlock ? 1 : 0)
        << "\n";
  }
}

RunResult run_sim_shards(const Context& ctx) {
  RunResult r;
  const int shards = static_cast<int>(parallelism());
  std::vector<Design> designs;
  r.setup_s = timed_setup([&] { designs = compile_designs(ctx, shards); },
                          [] {});

  auto& reg = tydi::obs::MetricsRegistry::global();
  tydi::obs::Counter& rounds = reg.counter("tydi.sim.rounds");
  tydi::obs::Histogram& barrier_us = reg.histogram("tydi.sim.barrier_wait_us");

  const std::vector<std::size_t> order =
      Rng(ctx.seed).permutation(designs.size());
  r.spans.resize(1);
  SpanLog& log = r.spans[0];
  std::uint64_t ops = 0;

  auto op = [&](std::size_t) -> double {
    const std::uint64_t op_id = ++ops;
    Design& d = designs[order[op_id % order.size()]];
    const double rounds0 = static_cast<double>(rounds.value());
    const double barrier0 = barrier_us.sum();
    tydi::support::DiagnosticEngine diags;
    const std::int64_t t0 = SpanLog::now_ns();
    sim::SimGraph graph;
    const bool built =
        sim::build_sim_graph(d.compiled.design, d.options, diags, graph);
    const std::int64_t t1 = SpanLog::now_ns();
    const sim::SimResult result =
        built ? sim::shard::run_sharded(graph, d.options, diags)
              : sim::SimResult{};
    const std::int64_t t2 = SpanLog::now_ns();
    const bool ok =
        built && !result.aborted &&
        ctx.pins.count_matches("sim." + d.name + ".deadlock",
                               result.deadlock ? 1 : 0) &&
        ctx.pins.count_matches("sim." + d.name + ".events",
                               result.events_processed) &&
        ctx.pins.count_matches("sim." + d.name + ".outputs",
                               output_packets(result));
    if (log.enabled()) {
      const std::int32_t root = log.add("op", op_id, -1, t0, SpanLog::now_ns());
      log.add("sim.build_graph", op_id, root, t0, t1);
      log.add("sim.shard.run", op_id, root, t1, t2);
    }
    if (!ok) {
      if (built && !result.aborted) ++r.mismatches;
      return -1.0;
    }
    const double op_ms = static_cast<double>(t2 - t0) / 1e6;
    d.latencies_ms.push_back(op_ms);
    ++d.runs;
    d.build_ms += static_cast<double>(t1 - t0) / 1e6;
    d.run_ms += static_cast<double>(t2 - t1) / 1e6;
    d.rounds += static_cast<double>(rounds.value()) - rounds0;
    d.barrier_wait_ms += (barrier_us.sum() - barrier0) / 1000.0;
    std::uint64_t max_events = 0;
    std::uint64_t sum_events = 0;
    for (const sim::ShardForensics& f : result.shard_forensics) {
      max_events = std::max(max_events, f.events_processed);
      sum_events += f.events_processed;
    }
    if (sum_events > 0) {
      d.imbalance += static_cast<double>(max_events) *
                     static_cast<double>(result.shard_forensics.size()) /
                     static_cast<double>(sum_events);
    }
    d.events += result.events_processed;
    return op_ms;
  };
  // One simulation at a time: its shards already use the cores.
  const bool peak_reset = reset_peak_rss();
  run_windows(ctx, r, [&](double seconds, bool traced) {
    log.set_enabled(traced);
    return closed_loop(1, seconds, r, op);
  });
  r.peak_rss_mb =
      proc_status_kb(static_cast<int>(::getpid()), "VmHWM") / 1024.0;
  if (!peak_reset) r.notes.push_back(kPeakNotReset);

  double runs = 0.0;
  double build_ms = 0.0;
  double run_ms = 0.0;
  double rounds_total = 0.0;
  double barrier_ms = 0.0;
  double imbalance = 0.0;
  double events = 0.0;
  std::ostringstream lanes;
  lanes << "sim lanes (shards " << shards << "):";
  for (Design& d : designs) {
    runs += static_cast<double>(d.runs);
    build_ms += d.build_ms;
    run_ms += d.run_ms;
    rounds_total += d.rounds;
    barrier_ms += d.barrier_wait_ms;
    events += static_cast<double>(d.events);
    imbalance += d.imbalance;
    if (d.runs == 0) continue;
    std::sort(d.latencies_ms.begin(), d.latencies_ms.end());
    const double n = static_cast<double>(d.runs);
    char row[256];
    std::snprintf(
        row, sizeof(row),
        "\n  %-20s runs %5llu  p50 %8.3f ms  build %6.3f ms  run %8.3f ms  "
        "events/s %.4g  rounds/run %.0f  barrier %.3f ms  imbalance %.3f",
        d.name.c_str(), static_cast<unsigned long long>(d.runs),
        quantile(d.latencies_ms, 0.5), d.build_ms / n, d.run_ms / n,
        static_cast<double>(d.events) / (d.build_ms + d.run_ms) * 1000.0,
        d.rounds / n, d.barrier_wait_ms / n, d.imbalance / n);
    lanes << row;
  }
  r.notes.push_back(lanes.str());
  if (runs > 0.0) {
    r.layer["sim.build_graph_ms"] = build_ms / runs;
    r.layer["sim.shard.run_ms"] = run_ms / runs;
    r.layer["sim.shard.rounds_per_run"] = rounds_total / runs;
    r.layer["sim.shard.barrier_wait_ms"] = barrier_ms / runs;
    r.layer["sim.shard.imbalance"] = imbalance / runs;
    r.layer["sim_events_per_s"] = events / (build_ms + run_ms) * 1000.0;
  }
  if (rounds_total > 0.0) {
    r.layer["sim.events_per_round"] = events / rounds_total;
  }
  return r;
}

}  // namespace perfbench

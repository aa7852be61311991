// Shared pieces of the perfbench driver: the run context, seeded
// randomness, latency statistics, the in-memory span log of the traced
// run, output digests and pins, and /proc probes.
//
// The benchmark measures the program from the outside: it times its own
// calls into the public entry points (driver::CompileSession::compile,
// service::request, sim::build_sim_graph, sim::shard::run_sharded) and
// reads counters the program already publishes. Nothing here adds tracing
// inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/tpch/tpch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: a small seeded generator whose sequence is fixed by the
/// seed on every platform (std distributions are implementation-defined).
class Rng {
 public:
  /// `stream` separates the generators of concurrent clients of one run.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : state_(seed * 1000003ULL + stream) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }
  /// 0..n-1 in a seeded order (Fisher-Yates).
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[below(i)]);
    }
    return order;
  }

 private:
  std::uint64_t state_;
};

/// Output digests pinned in perfbench/pins.txt: one `key value` pair per
/// line. Text outputs pin "<fnv1a64 hex>:<bytes>", counts pin integers.
class Pins {
 public:
  [[nodiscard]] bool load(const std::string& path, std::string& error);
  /// True when `text` matches the digest pinned under `key`.
  [[nodiscard]] bool text_matches(const std::string& key,
                                  std::string_view text) const;
  /// True when `value` equals the count pinned under `key`.
  [[nodiscard]] bool count_matches(const std::string& key,
                                   std::uint64_t value) const;

 private:
  [[nodiscard]] const std::string* find(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

[[nodiscard]] std::string text_digest(std::string_view text);

/// Reference outputs: texts whose digests matched their pins at set-up.
/// Ops compare their payloads byte for byte with these, which is as strict
/// as hashing every payload and much cheaper.
class Oracle {
 public:
  /// Keeps `text` as the reference of `key` when it matches the pin,
  /// otherwise records a mismatch.
  void verify(const Pins& pins, const std::string& key, std::string text);
  void fail(std::string message) { mismatches_.push_back(std::move(message)); }
  [[nodiscard]] bool matches(const std::string& key,
                             const std::string& text) const {
    const auto it = texts_.find(key);
    return it != texts_.end() && it->second == text;
  }
  [[nodiscard]] const std::vector<std::string>& mismatches() const {
    return mismatches_;
  }

 private:
  std::map<std::string, std::string> texts_;
  std::vector<std::string> mismatches_;
};

/// Where and how one run executes.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (generated sources, journals, socket);
  /// relative to the working directory so socket paths stay short.
  std::string run_dir;
  /// The benchmark's own input files (pins.txt, designs/).
  std::string data_dir;
  std::string tydid_path;
  Pins pins;
};

/// One recorded span. Spans of one op share `op`; `parent` is the index of
/// the enclosing span in the same log (-1 for the op's root span).
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span log, kept in memory and written out when the run ends.
/// Recording is off outside the traced window, so untraced ops pay one
/// branch.
class SpanLog {
 public:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Records a finished span and returns its index (-1 when disabled).
  std::int32_t add(const char* name, std::uint64_t op, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, op, parent, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Fixes the end of a span recorded before its children were known.
  void close(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Writes the span logs (one per client thread) as a Chrome trace-event
/// JSON file. Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::vector<SpanLog>& logs);

/// min(4, online CPUs): the closed-loop client count and the shard count.
[[nodiscard]] std::size_t parallelism();

/// Linear-interpolated quantile of an ascending-sorted sample.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q);
/// Samples strictly above `value` in an ascending-sorted sample.
[[nodiscard]] std::size_t beyond(const std::vector<double>& sorted,
                                 double value);
[[nodiscard]] double median(std::vector<double> values);

/// The end-to-end view of one window: throughput and the latency
/// percentiles over all of its successful ops, with the number of samples
/// beyond each percentile.
struct Summary {
  double ops_per_s = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t beyond_p50 = 0;
  std::size_t beyond_p90 = 0;
  std::size_t beyond_p99 = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> latencies_ms,
                                double window_s);

/// /proc/<pid>/status field in kB ("VmHWM", "VmRSS"); 0 when unreadable.
[[nodiscard]] double proc_status_kb(int pid, const char* field);
/// Number of mappings in /proc/<pid>/maps (VMAs); 0 when unreadable.
[[nodiscard]] std::size_t proc_map_count(int pid);
/// Resets this process's VmHWM to its current RSS (/proc/self/clear_refs),
/// so a later VmHWM read covers only what ran in between. False when the
/// kernel refuses.
bool reset_peak_rss();
/// Report note for a run whose peak could not be reset.
inline constexpr const char* kPeakNotReset =
    "peak_rss_mb: VmHWM could not be reset, so it covers the whole process";

/// The host around a run, printed with the report so that a slow host can
/// be told apart from a slow program: on a shared machine the speed of a
/// core can move by tens of percent from one minute to the next.
struct HostSample {
  /// Iterations per microsecond of a fixed single-thread integer loop.
  double loop_speed = 0.0;
  /// Cumulative CPU time from the first line of /proc/stat (clock ticks).
  double steal_ticks = 0.0;
  double total_ticks = 0.0;
  [[nodiscard]] static HostSample take();
};

/// The result of one timed window of a workload.
struct Window {
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  [[nodiscard]] double ops_per_s() const {
    return seconds > 0.0 ? static_cast<double>(attempted - failed) / seconds
                         : 0.0;
  }
};

/// Everything one run reports. Workloads fill what applies to them;
/// main() prints the metric lists of BENCHMARK.json from it.
struct RunResult {
  bool oracle_ok = true;
  std::uint64_t mismatches = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  /// Length of the timed window(s), s.
  double window_s = 0.0;
  /// Latency (ms) of every op that succeeded.
  std::vector<double> latencies_ms;
  double peak_rss_mb = 0.0;
  /// Traced run only: traced over untraced ops_per_s.
  double trace_overhead = 0.0;
  std::map<std::string, double> layer;
  /// Extra report rows (environment, sim lanes, defects), printed as is.
  std::vector<std::string> notes;
  std::vector<SpanLog> spans;
};

/// One Table IV case as the benchmark compiles it. `key` names its pins
/// ("q1_nosugar", "q1", "q3", "q5", "q6", "q19").
struct Case {
  std::string key;
  const tydi::tpch::QueryCase* query = nullptr;
  std::vector<tydi::driver::NamedSource> sources;
  tydi::driver::CompileOptions options;
};
/// The six cases in Table IV order.
[[nodiscard]] std::vector<Case> table4_cases();

/// Compiles every case with a sessionless driver::compile (IR and VHDL)
/// and verifies both texts against the pins (`tpch.<key>.<mode>`).
void check_compile_pins(const Pins& pins, const std::vector<Case>& cases,
                        Oracle& oracle);

/// Prints the pins of the compile outputs: both emit modes of every case
/// (`tpch.<key>.<mode>`) and the VHDL of every FILE job (`file.<key>.vhdl`).
void print_compile_pins(std::ostream& out);
/// Prints the pins of the sim designs, from single-shard runs.
void print_sim_pins(const Context& ctx, std::ostream& out);

RunResult run_compile_cold(const Context& ctx);
RunResult run_tydid(const Context& ctx, bool edit);
RunResult run_sim_shards(const Context& ctx);

/// Runs `setup` nine times and returns the median wall time in seconds.
/// The state the last repetition leaves is what the timed window uses.
/// `teardown` undoes a repetition before the next one starts; it is not
/// timed, so set-up time does not include shutting down what set-up built.
template <typename F, typename T>
double timed_setup(F&& setup, T&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < 9; ++i) {
    if (i > 0) teardown();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  return median(std::move(times));
}

/// Runs the timed window(s) of a workload. `window(seconds, traced)` runs
/// closed-loop ops until `seconds` have passed. The untraced run is one
/// window of ctx.seconds. The traced run splits it into quarters, untraced,
/// traced, traced, untraced, so it can report its own overhead with any
/// linear drift of the workload (caches that keep growing) cancelled out.
template <typename F>
void run_windows(const Context& ctx, RunResult& r, F&& window) {
  if (!ctx.trace) {
    const Window w = window(ctx.seconds, false);
    r.attempted = w.attempted;
    r.failed = w.failed;
    r.window_s = w.seconds;
    return;
  }
  Window plain;
  Window traced;
  for (const bool on : {false, true, true, false}) {
    const Window w = window(ctx.seconds / 4.0, on);
    Window& sum = on ? traced : plain;
    sum.attempted += w.attempted;
    sum.failed += w.failed;
    sum.seconds += w.seconds;
  }
  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;
  r.window_s = plain.seconds + traced.seconds;
  r.trace_overhead =
      plain.ops_per_s() > 0.0 ? traced.ops_per_s() / plain.ops_per_s() : 0.0;
}

/// Layer metric of each pipeline phase, in driver::kPipelinePhases order.
inline constexpr const char* kPhaseLayers[] = {
    "parser.ms_per_compile", "elab.ms_per_compile",  "sugar.ms_per_compile",
    "ir.lower_ms_per_compile", "drc.ms_per_compile", "ir.emit_ms_per_compile",
    "vhdl.ms_per_compile"};
static_assert(std::size(kPhaseLayers) ==
              std::size(tydi::driver::kPipelinePhases));

/// Runs ops in a closed loop on `clients` threads until `seconds` have
/// passed: a client starts its next op only when the previous one has
/// finished. `op(client)` returns the op's latency in ms, or a negative
/// value when it failed; successful ops add their latency to `r`.
template <typename Op>
Window closed_loop(std::size_t clients, double seconds, RunResult& r,
                   Op&& op) {
  std::vector<Window> per_client(clients);
  std::vector<std::vector<double>> latencies(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto loop = [&](std::size_t c) {
    while (Clock::now() < deadline) {
      double ms = -1.0;
      try {
        ms = op(c);
      } catch (const std::exception&) {
        // A throwing op is a failed op; the thread must still be joined.
      }
      ++per_client[c].attempted;
      if (ms < 0.0) {
        ++per_client[c].failed;
      } else {
        latencies[c].push_back(ms);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  Window w;
  w.seconds = ms_between(start, Clock::now()) / 1000.0;
  for (std::size_t c = 0; c < clients; ++c) {
    w.attempted += per_client[c].attempted;
    w.failed += per_client[c].failed;
    r.latencies_ms.insert(r.latencies_ms.end(), latencies[c].begin(),
                          latencies[c].end());
  }
  return w;
}

/// Hits over attempts; 0 when nothing was attempted.
[[nodiscard]] inline double hit_ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace perfbench

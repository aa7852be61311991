// compile_cold: what a `tydic` user pays. Each op is one
// CompileSession::compile of a Table IV case; every round of six cases
// runs in a seeded order through a fresh session, so the parser and the
// elaborator miss their caches within the round's first compiles. There
// is no service and no transport. min(4, nproc) clients compile side by
// side, each alone in its own sessions.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <ostream>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

namespace driver = tydi::driver;

namespace {

/// Index of `phase` in kPipelinePhases (whose entries also serve as span
/// names, which need static storage); past the end when unknown.
std::size_t phase_index(const std::string& phase) {
  std::size_t i = 0;
  while (i < std::size(driver::kPipelinePhases) &&
         phase != driver::kPipelinePhases[i]) {
    ++i;
  }
  return i;
}

}  // namespace

std::vector<Case> table4_cases() {
  std::vector<Case> cases;
  for (const tydi::tpch::QueryCase& query : tydi::tpch::queries()) {
    Case c;
    c.key = "q";
    c.key += query.id.substr(query.id.find(' ') + 1);
    if (!query.sugaring) c.key += "_nosugar";
    c.query = &query;
    c.sources = tydi::tpch::query_sources(query);
    c.options = tydi::tpch::query_options(query);
    cases.push_back(std::move(c));
  }
  return cases;
}

void check_compile_pins(const Pins& pins, const std::vector<Case>& cases,
                        Oracle& oracle) {
  // The cases compile side by side: a multi-threaded set-up drifts less
  // with the speed of the host than a single thread does.
  std::vector<driver::CompileResult> results(cases.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = driver::compile(cases[i].sources, cases[i].options);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& key = cases[i].key;
    if (!results[i].success()) {
      oracle.fail("tpch." + key + ": compile failed");
      continue;
    }
    oracle.verify(pins, "tpch." + key + ".ir", std::move(results[i].ir_text));
    oracle.verify(pins, "tpch." + key + ".vhdl",
                  std::move(results[i].vhdl_text));
  }
}

void print_compile_pins(std::ostream& out) {
  for (const Case& c : table4_cases()) {
    const driver::CompileResult both = driver::compile(c.sources, c.options);
    out << "tpch." << c.key << ".ir " << text_digest(both.ir_text) << "\n"
        << "tpch." << c.key << ".vhdl " << text_digest(both.vhdl_text)
        << "\n";
    if (!c.query->sugaring) continue;
    // What the daemon's FILE verb compiles: default options, VHDL only.
    driver::CompileOptions file_options;
    file_options.top = c.options.top;
    file_options.emit_ir = false;
    const driver::CompileResult file = driver::compile(c.sources, file_options);
    out << "file." << c.key << ".vhdl " << text_digest(file.vhdl_text)
        << "\n";
  }
}

RunResult run_compile_cold(const Context& ctx) {
  RunResult r;
  std::vector<Case> cases;
  Oracle oracle;
  r.setup_s = timed_setup([&] {
    cases = table4_cases();
    oracle = Oracle();
    check_compile_pins(ctx.pins, cases, oracle);
  }, [] {});
  r.oracle_ok = oracle.mismatches().empty();
  r.notes = oracle.mismatches();

  auto& reg = tydi::obs::MetricsRegistry::global();
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  auto memo_hits = [&] {
    return counter("tydi.memo.streamlet_hits") +
           counter("tydi.memo.impl_hits");
  };
  auto memo_misses = [&] {
    return counter("tydi.memo.misses") + counter("tydi.memo.stale");
  };
  const double parse_hits0 = counter("tydi.parse.cache_hits");
  const double parse_misses0 = counter("tydi.parse.cache_misses");
  const double memo_hits0 = memo_hits();
  const double memo_misses0 = memo_misses();
  const double port_hits0 = counter("tydi.vhdl.port_cache_hits");
  const double port_misses0 = counter("tydi.vhdl.port_cache_misses");

  // Each client is one user compiling alone: its own sessions, one round
  // of the six cases per fresh session, in its own seeded order.
  struct Client {
    Client(std::uint64_t seed, std::size_t id) : rng(seed, id) {}
    Rng rng;
    std::unique_ptr<driver::CompileSession> session;
    std::vector<std::size_t> order;
    std::size_t next = 0;
    std::uint64_t ops = 0;
    std::uint64_t rounds = 0;
    double parse_cache_entries = 0.0;
    // Traced ops only: compiles, their span time and phase time (ms).
    std::uint64_t traced_compiles = 0;
    double compile_ms = 0.0;
    double phase_ms[std::size(driver::kPipelinePhases)] = {};
  };
  const std::size_t clients = parallelism();
  std::vector<Client> state;
  for (std::size_t c = 0; c < clients; ++c) {
    state.emplace_back(ctx.seed, c);
  }
  r.spans.resize(clients);
  std::atomic<std::uint64_t> mismatches{0};

  auto op = [&](std::size_t client) -> double {
    Client& me = state[client];
    SpanLog& log = r.spans[client];
    if (me.next == me.order.size()) {
      if (me.session) {
        me.parse_cache_entries +=
            static_cast<double>(me.session->parse_cache_size());
        ++me.rounds;
      }
      me.session = std::make_unique<driver::CompileSession>();
      me.order = me.rng.permutation(cases.size());
      me.next = 0;
    }
    const Case& c = cases[me.order[me.next++]];
    const std::uint64_t op_id = (static_cast<std::uint64_t>(client) << 48) |
                                ++me.ops;
    const std::int64_t start = SpanLog::now_ns();
    const driver::CompileResult result =
        me.session->compile(c.sources, c.options);
    const std::int64_t compiled = SpanLog::now_ns();
    const bool ok = result.success() &&
                    oracle.matches("tpch." + c.key + ".ir", result.ir_text) &&
                    oracle.matches("tpch." + c.key + ".vhdl", result.vhdl_text);
    if (log.enabled()) {
      const std::int32_t root =
          log.add("op", op_id, -1, start, SpanLog::now_ns());
      const std::int32_t compile =
          log.add("driver.compile", op_id, root, start, compiled);
      ++me.traced_compiles;
      me.compile_ms += static_cast<double>(compiled - start) / 1e6;
      // The compile's phases as children laid end to end from phase_ms.
      std::int64_t at = start;
      for (const driver::PhaseTimings::Entry& e : result.phase_ms) {
        const std::size_t i = phase_index(e.phase);
        if (i < std::size(me.phase_ms)) me.phase_ms[i] += e.ms;
        const auto ns = static_cast<std::int64_t>(e.ms * 1e6);
        log.add(i < std::size(me.phase_ms) ? driver::kPipelinePhases[i]
                                           : "phase.unknown",
                op_id, compile, at, at + ns);
        at += ns;
      }
      log.add("oracle.check", op_id, root, compiled, SpanLog::now_ns());
    }
    if (!ok) {
      if (result.success()) ++mismatches;
      return -1.0;
    }
    return static_cast<double>(compiled - start) / 1e6;
  };
  const bool peak_reset = reset_peak_rss();
  run_windows(ctx, r, [&](double seconds, bool traced) {
    for (SpanLog& log : r.spans) log.set_enabled(traced);
    return closed_loop(clients, seconds, r, op);
  });
  r.mismatches = mismatches;
  r.peak_rss_mb =
      proc_status_kb(static_cast<int>(::getpid()), "VmHWM") / 1024.0;
  if (!peak_reset) r.notes.push_back(kPeakNotReset);

  double compiles = 0.0;
  double compile_ms = 0.0;
  double phase_ms[std::size(driver::kPipelinePhases)] = {};
  for (const Client& me : state) {
    compiles += static_cast<double>(me.traced_compiles);
    compile_ms += me.compile_ms;
    for (std::size_t i = 0; i < std::size(phase_ms); ++i) {
      phase_ms[i] += me.phase_ms[i];
    }
  }
  if (compiles > 0.0) {
    double phases_ms = 0.0;
    for (std::size_t i = 0; i < std::size(phase_ms); ++i) {
      r.layer[kPhaseLayers[i]] = phase_ms[i] / compiles;
      phases_ms += phase_ms[i];
    }
    r.layer["driver.compile_ms"] = compile_ms / compiles;
    r.layer["driver.unattributed_ms"] = (compile_ms - phases_ms) / compiles;
    r.layer["driver.phase_coverage"] = phases_ms / compile_ms;
  }
  r.layer["parser.cache_hit_ratio"] =
      hit_ratio(counter("tydi.parse.cache_hits") - parse_hits0,
                counter("tydi.parse.cache_misses") - parse_misses0);
  r.layer["elab.memo_hit_ratio"] =
      hit_ratio(memo_hits() - memo_hits0, memo_misses() - memo_misses0);
  r.layer["vhdl.port_cache_hit_ratio"] =
      hit_ratio(counter("tydi.vhdl.port_cache_hits") - port_hits0,
                counter("tydi.vhdl.port_cache_misses") - port_misses0);
  double entries = 0.0;
  double rounds = 0.0;
  for (const Client& me : state) {
    entries += me.parse_cache_entries;
    rounds += static_cast<double>(me.rounds);
  }
  r.layer["driver.parse_cache_entries"] = rounds > 0.0 ? entries / rounds : 0.0;
  return r;
}

}  // namespace perfbench

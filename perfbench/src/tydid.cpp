// tydid_warm and tydid_edit: closed-loop clients against a spawned `tydid`
// daemon. Each op is one service::request — the same one-connection-per-
// request client that `tydid --request` uses. The daemon is probed only
// from outside: its METRICS and STATS verbs and /proc/<pid>.
//
// tydid_warm sends `TPCH <n> <vhdl|ir>`; after the warm pass every compile
// hits the memo, so the back half of the pipeline, the queue and the
// transport dominate. tydid_edit sends `FILE` jobs over generated sources
// and, before one op in four, makes a comment-only edit: the edit
// invalidates memo entries, misses the parse cache and forces a journal
// append, next to reads of the same caches.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/service/server.hpp"

extern char** environ;

namespace perfbench {

namespace service = tydi::service;

namespace {

/// The spawned daemon. The destructor kills and reaps it if it is still
/// running, so no exit path leaves a process behind.
class Daemon {
 public:
  Daemon(const std::string& tydid, const std::string& dir)
      : socket_(dir + "/s") {
    const std::string journal = dir + "/journal";
    const std::string log = dir + "/tydid.log";
    std::vector<std::string> args = {tydid,     "--socket", socket_,
                                     "--workers", "2",      "--journal",
                                     journal};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, tydid.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + tydid);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      service::Response pong;
      if (service::request(socket_, "PING", pong).is_ok() && pong.ok()) break;
      if (!alive() || Clock::now() > deadline) {
        // The destructor does not run for a failed constructor.
        ::kill(pid_, SIGKILL);
        reap(/*block=*/true);
        throw std::runtime_error("tydid did not answer PING (see " + log +
                                 ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (alive()) ::kill(pid_, SIGKILL);
    reap(/*block=*/true);
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// False once the daemon has exited (it is reaped then).
  bool alive() { return !reap(/*block=*/false); }

  /// Sends one meta request; "" when it fails.
  std::string meta(const char* verb) {
    service::Response response;
    if (!service::request(socket_, verb, response).is_ok() || !response.ok()) {
      return "";
    }
    return response.payload;
  }

  /// SHUTDOWN, then waits up to 10 s for the drain before killing.
  void shutdown() {
    service::Response bye;
    (void)service::request(socket_, "SHUTDOWN", bye);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (alive() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 private:
  /// True when the daemon has been reaped.
  bool reap(bool block) {
    std::lock_guard lock(mu_);
    if (reaped_) return true;
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
    if (rc == pid_ || (rc < 0 && errno == ECHILD)) reaped_ = true;
    return reaped_;
  }

  std::string socket_;
  pid_t pid_ = -1;
  std::mutex mu_;
  bool reaped_ = false;
};

/// `"key":`, the form a key takes in the METRICS JSON.
std::string json_key(std::string_view key) {
  std::string out = "\"";
  out.append(key);
  out.append("\":");
  return out;
}

/// A value from the METRICS JSON: `section` is counters, gauges or
/// histograms; `field` picks count/sum of a histogram. 0 when absent (an
/// instrument the daemon has not touched yet is not registered).
double metric(const std::string& json, const char* section,
              const std::string& name, const char* field = nullptr) {
  std::vector<std::string> path = {json_key(section), json_key(name)};
  if (field != nullptr) path.push_back(json_key(field));
  std::size_t at = 0;
  for (const std::string& key : path) {
    at = json.find(key, at);
    if (at == std::string::npos) return 0.0;
    at += key.size();
  }
  return std::atof(json.c_str() + at);
}

/// A `name value` line of the STATS payload; 0 when absent.
double stat(const std::string& stats, const std::string& name) {
  std::istringstream lines(stats);
  std::string key;
  double value = 0.0;
  while (lines >> key >> value) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Request of the timed window at which peak_rss_mb reads the daemon's
/// VmHWM. A 7 s run of either workload makes more, even when the host
/// runs at half its usual speed.
constexpr std::uint64_t kPeakAtRequests = 2500;

/// What the daemon publishes, read once after the warm pass and once at
/// the end of the run.
struct Probe {
  std::string metrics;
  std::string stats;
  double rss_kb = 0.0;
  double hwm_kb = 0.0;
  std::size_t maps = 0;

  static Probe take(Daemon& d) {
    Probe p;
    p.metrics = d.meta("METRICS");
    p.stats = d.meta("STATS");
    p.rss_kb = proc_status_kb(d.pid(), "VmRSS");
    p.hwm_kb = proc_status_kb(d.pid(), "VmHWM");
    p.maps = proc_map_count(d.pid());
    return p;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    return metric(metrics, "counters", name);
  }
  [[nodiscard]] double hist(const std::string& name, const char* field) const {
    return metric(metrics, "histograms", name, field);
  }
};

/// One request kind: the wire line, its output pin, and (edit workload)
/// the query file an edit of this kind's own source rewrites.
struct Kind {
  std::string line;
  std::string pin;
  std::string top;
  std::size_t file = 0;
};

/// A generated source file and its pristine text.
struct SourceFile {
  std::string path;
  std::string text;
};

/// Comment-only edit by atomic write-then-rename. The comment is unique per
/// edit, so every edit is a new content hash for the daemon's caches.
void edit_file(const SourceFile& f, std::size_t client, std::uint64_t n) {
  const std::string tmp = f.path + ".tmp" + std::to_string(client);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << f.text << "\n// perfbench edit " << client << "." << n << "\n";
  }
  std::rename(tmp.c_str(), f.path.c_str());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

RunResult run_tydid(const Context& ctx, bool edit) {
  RunResult r;
  const std::size_t clients = parallelism();
  const std::vector<Case> cases = table4_cases();

  // Sources of the FILE jobs: the shared Fletcher file (index 0) plus one
  // file per sugared query, written from tpch::query_sources.
  std::vector<SourceFile> files;
  std::vector<Kind> kinds;
  if (edit) {
    files.push_back(
        {ctx.run_dir + "/fletcher.td", tydi::tpch::fletcher_source()});
    for (const Case& c : cases) {
      if (!c.query->sugaring) continue;
      files.push_back({ctx.run_dir + "/" + c.key + ".td",
                       std::string(c.query->source)});
      kinds.push_back({"FILE " + files[0].path + "," + files.back().path +
                           " " + c.options.top + " vhdl",
                       "file." + c.key + ".vhdl", c.options.top,
                       files.size() - 1});
    }
  } else {
    for (const Case& c : cases) {
      if (!c.query->sugaring) continue;
      const std::string n = c.query->id.substr(c.query->id.find(' ') + 1);
      for (const char* mode : {"vhdl", "ir"}) {
        kinds.push_back({"TPCH " + n + " " + mode,
                         "tpch." + c.key + "." + mode, c.options.top, 0});
      }
    }
  }

  Oracle oracle;
  auto check = [&](const Kind& k, const tydi::support::Status& transport,
                   const service::Response& response) {
    return transport.is_ok() && response.ok() &&
           oracle.matches(k.pin, response.payload);
  };

  std::unique_ptr<Daemon> daemon;
  int generation = 0;
  r.setup_s = timed_setup([&] {
    oracle = Oracle();
    check_compile_pins(ctx.pins, cases, oracle);
    for (const SourceFile& f : files) write_file(f.path, f.text);
    // Sessionless compile of each FILE job exactly as the daemon sees it.
    for (const Kind& k : kinds) {
      if (!edit) break;
      tydi::driver::CompileOptions options;
      options.top = k.top;
      options.emit_ir = false;
      tydi::driver::CompileResult result = tydi::driver::compile(
          {{files[0].path, files[0].text},
           {files[k.file].path, files[k.file].text}},
          options);
      oracle.verify(ctx.pins, k.pin, std::move(result.vhdl_text));
    }
    // A fresh directory, so a fresh journal, per daemon.
    const std::string dir = ctx.run_dir + "/d" + std::to_string(generation++);
    ::mkdir(dir.c_str(), 0755);
    daemon = std::make_unique<Daemon>(ctx.tydid_path, dir);
    for (const Kind& k : kinds) {  // the untimed warm pass
      service::Response response;
      const tydi::support::Status st =
          service::request(daemon->socket(), k.line, response);
      if (!check(k, st, response)) {
        oracle.fail(k.line + ": warm-pass response differs from pin");
      }
    }
  }, [&] {
    daemon->shutdown();
    daemon.reset();
  });
  r.oracle_ok = oracle.mismatches().empty();
  r.notes = oracle.mismatches();

  const Probe before = Probe::take(*daemon);
  r.spans.resize(clients);
  std::atomic<std::uint64_t> mismatches{0};
  // The daemon's VmHWM when the timed window has made kPeakAtRequests
  // requests. A fixed request count, not the end of the window, so that
  // the figure does not rise with throughput while defect 1 grows the RSS
  // with every request.
  std::atomic<std::uint64_t> requests_made{0};
  std::atomic<double> peak_kb{0.0};

  // Per-client state: seeded request stream, op count, successful ms.
  struct Client {
    Client(std::uint64_t seed, std::size_t id) : rng(seed, id) {}
    Rng rng;
    std::uint64_t ops = 0;
    std::uint64_t edits = 0;
    std::uint64_t ok = 0;
    double ok_ms = 0.0;
  };
  std::vector<Client> state;
  for (std::size_t c = 0; c < clients; ++c) {
    state.emplace_back(ctx.seed, c);
  }
  auto op = [&](std::size_t client) -> double {
    Client& me = state[client];
    SpanLog& log = r.spans[client];
    const Kind& k = kinds[me.rng.below(kinds.size())];
    const std::uint64_t op_id = (static_cast<std::uint64_t>(client) << 48) |
                                ++me.ops;
    const std::int64_t op_start = SpanLog::now_ns();
    const std::int32_t root = log.add("op", op_id, -1, op_start, op_start);
    if (edit && me.rng.below(4) == 0) {
      const SourceFile& target = files[me.rng.below(8) == 0 ? 0 : k.file];
      edit_file(target, client, ++me.edits);
      log.add("edit", op_id, root, op_start, SpanLog::now_ns());
    }
    const std::int64_t start = SpanLog::now_ns();
    service::Response response;
    const tydi::support::Status st =
        service::request(daemon->socket(), k.line, response);
    const std::int64_t end = SpanLog::now_ns();
    if (++requests_made == kPeakAtRequests) {
      peak_kb = proc_status_kb(daemon->pid(), "VmHWM");
    }
    log.add("service.request", op_id, root, start, end);
    const bool ok = check(k, st, response);
    log.close(root, SpanLog::now_ns());
    if (ok) {
      const double ms = static_cast<double>(end - start) / 1e6;
      ++me.ok;
      me.ok_ms += ms;
      return ms;
    }
    if (st.is_ok() && response.ok()) ++mismatches;
    if (!st.is_ok() && !daemon->alive()) {
      // The daemon is gone: the rest of the window's ops fail. Pace them
      // at this client's latency so far instead of spinning.
      const double pace =
          me.ok > 0 ? me.ok_ms / static_cast<double>(me.ok) : 1.0;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(std::max(pace, 1.0)));
    }
    return -1.0;
  };
  run_windows(ctx, r, [&](double seconds, bool traced) {
    for (SpanLog& log : r.spans) log.set_enabled(traced);
    return closed_loop(clients, seconds, r, op);
  });
  r.mismatches = mismatches;

  if (!daemon->alive()) {
    // The daemon is gone: no /proc and no counters to read at the end.
    r.peak_rss_mb = std::max(peak_kb.load(), before.hwm_kb) / 1024.0;
    r.notes.push_back("daemon exited mid-run; later ops counted as failed");
    return r;
  }
  const Probe after = Probe::take(*daemon);
  if (peak_kb == 0.0) {
    // Too few requests to reach the fixed count: the end of the run is
    // the nearest reading.
    peak_kb = after.hwm_kb;
    r.notes.push_back("peak_rss_mb: fewer than " +
                      std::to_string(kPeakAtRequests) +
                      " requests, read at the end of the run");
  }
  r.peak_rss_mb = peak_kb / 1024.0;
  const double requests = static_cast<double>(r.attempted);
  const double compiles = after.counter("tydi.compile.total") -
                          before.counter("tydi.compile.total");
  auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  auto hist_mean = [&](const std::string& name) {
    const double n = after.hist(name, "count") - before.hist(name, "count");
    return n > 0.0 ? (after.hist(name, "sum") - before.hist(name, "sum")) / n
                   : 0.0;
  };
  if (compiles > 0.0) {
    for (std::size_t i = 0; i < std::size(kPhaseLayers); ++i) {
      const std::string h = std::string("tydi.compile.phase_ms.") +
                            tydi::driver::kPipelinePhases[i];
      r.layer[kPhaseLayers[i]] =
          (after.hist(h, "sum") - before.hist(h, "sum")) / compiles;
    }
  }
  r.layer["parser.cache_hit_ratio"] = hit_ratio(
      delta("tydi.parse.cache_hits"), delta("tydi.parse.cache_misses"));
  r.layer["elab.memo_hit_ratio"] = hit_ratio(
      delta("tydi.memo.streamlet_hits") + delta("tydi.memo.impl_hits"),
      delta("tydi.memo.misses") + delta("tydi.memo.stale"));
  r.layer["vhdl.port_cache_hit_ratio"] =
      hit_ratio(delta("tydi.vhdl.port_cache_hits"),
                delta("tydi.vhdl.port_cache_misses"));
  r.layer["driver.parse_cache_entries"] = stat(after.stats, "parse_cache");
  const double queue_wait = hist_mean("tydi.service.queue_wait_ms");
  const double request_ms = hist_mean("tydi.service.request_ms");
  r.layer["service.queue_wait_ms"] = queue_wait;
  r.layer["service.request_ms"] = request_ms;
  if (!r.latencies_ms.empty()) {
    double sum = 0.0;
    for (const double ms : r.latencies_ms) sum += ms;
    r.layer["server.transport_ms"] =
        sum / static_cast<double>(r.latencies_ms.size()) - queue_wait -
        request_ms;
  }
  r.layer["server.rss_kb_per_1k_requests"] =
      (after.rss_kb - before.rss_kb) / requests * 1000.0;
  r.layer["server.vm_maps_per_1k_requests"] =
      (static_cast<double>(after.maps) - static_cast<double>(before.maps)) /
      requests * 1000.0;
  r.layer["journal.appends_per_request"] =
      delta("tydi.journal.appends") / requests;
  r.layer["journal.bytes"] = stat(after.stats, "journal_bytes");

  std::ostringstream defects;
  defects << "daemon: VMAs " << before.maps << " -> " << after.maps
          << ", RSS " << before.rss_kb / 1024.0 << " -> "
          << after.rss_kb / 1024.0 << " MB, VmHWM " << peak_kb / 1024.0
          << " MB after " << kPeakAtRequests << " and "
          << after.hwm_kb / 1024.0 << " MB after " << r.attempted
          << " requests; parse cache "
          << stat(before.stats, "parse_cache") << " -> "
          << stat(after.stats, "parse_cache") << " entries";
  if (edit) {
    std::uint64_t total_edits = 0;
    for (const Client& me : state) total_edits += me.edits;
    defects << " after " << total_edits << " edits";
  }
  r.notes.push_back(defects.str());
  std::ifstream max_maps("/proc/sys/vm/max_map_count");
  double map_limit = 0.0;
  const double maps_per_request =
      r.layer["server.vm_maps_per_1k_requests"] / 1000.0;
  if (max_maps >> map_limit && maps_per_request > 0.0) {
    std::ostringstream crash;
    crash << "daemon: at " << maps_per_request
          << " VMAs per request, vm.max_map_count " << map_limit
          << " is reached after ~"
          << static_cast<long long>(
                 (map_limit - static_cast<double>(after.maps)) /
                     maps_per_request +
                 requests)
          << " requests";
    r.notes.push_back(crash.str());
  }
  daemon->shutdown();
  return r;
}

}  // namespace perfbench

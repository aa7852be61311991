// Run guard + watchdog for the simulation runtime.
//
// A `RunGuard` is the single stop-signal shared by every shard thread, the
// barrier, and the watchdog: one atomic flag plus the cause that raised it.
// Kernels contribute to a global processed-event counter and poll the flag
// every few hundred events, so a stop request (budget exceeded, watchdog
// fired) drains the run within microseconds instead of at the next barrier.
//
// The `Watchdog` is a monitor thread that polls the guard:
//  - *no-progress*: the global event counter has not moved for
//    `watchdog_timeout_ms`. Barrier rounds alone do NOT count as progress —
//    the canonical livelock (withheld acks in credit mode) spins rounds
//    forever while processing zero events, and a round-based monitor would
//    never fire;
//  - *wall-clock budget*: total run time exceeded `wall_clock_budget_ms`;
//  - *RSS budget*: resident set size exceeded `rss_budget_mb` (the live
//    figure from support::current_rss_mb, /proc/self/statm).
//
// When any trigger fires the watchdog calls `request_stop(cause)`; shard
// threads and the abortable barrier observe the flag, unwind cooperatively,
// and the runtime converts the partial state into SimResult::aborted with
// per-shard forensics. The watchdog never kills threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace tydi::sim {

/// Why a run was asked to stop. kNone means the run completed on its own.
enum class StopCause : std::uint8_t {
  kNone = 0,
  kWatchdogNoProgress,
  kMaxEvents,
  kWallClock,
  kRss,
};

[[nodiscard]] std::string_view to_string(StopCause cause);

/// Shared stop-signal for one simulation run. All methods are thread-safe.
class RunGuard {
 public:
  /// Adds processed events to the global counter and returns the new total.
  /// Relaxed: the counter is monotonic telemetry, not a synchronization
  /// point.
  std::uint64_t add_events(std::uint64_t n) {
    return events_.fetch_add(n, std::memory_order_relaxed) + n;
  }

  [[nodiscard]] std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// First caller wins; later causes are ignored so forensics report the
  /// original trigger.
  void request_stop(StopCause cause) {
    StopCause expected = StopCause::kNone;
    cause_.compare_exchange_strong(expected, cause,
                                   std::memory_order_relaxed);
    stop_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  [[nodiscard]] StopCause cause() const {
    return cause_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<StopCause> cause_{StopCause::kNone};
  std::atomic<std::uint64_t> events_{0};
};

/// Monitor thread enforcing the no-progress timeout and the run budgets.
/// Construct after the guard, destroy (or stop()) before reading results.
class Watchdog {
 public:
  struct Config {
    /// No-progress window in ms; <= 0 disables the no-progress trigger.
    double timeout_ms = 0.0;
    /// Total wall-clock budget in ms; <= 0 disables.
    double wall_clock_budget_ms = 0.0;
    /// Resident-set budget in MiB; 0 disables.
    std::uint64_t rss_budget_mb = 0;

    [[nodiscard]] bool enabled() const {
      return timeout_ms > 0.0 || wall_clock_budget_ms > 0.0 ||
             rss_budget_mb > 0;
    }
  };

  Watchdog(RunGuard& guard, Config config);
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Joins the monitor thread. Idempotent.
  void stop();

 private:
  void run();

  RunGuard& guard_;
  Config config_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace tydi::sim

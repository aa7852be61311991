// Run guard for the simulation runtime.
//
// A `RunGuard` is the single stop signal shared by every shard thread and
// the barrier: a support::StopToken plus the global processed-event
// counter. No thread watches a run from outside; each trigger is checked
// where its evidence already is:
//  - max events, the wall-clock budget (the token's deadline) and the RSS
//    budget (support::current_rss_mb, at the first sync and then once per
//    kRssStrideEvents): in the kernel's 256-event guard sync (`sync`);
//  - no progress (the global event counter not moving for
//    `watchdog_timeout_ms`; barrier rounds alone are not progress): in the
//    shard round loop (shard/runtime.cpp, begin_round), with the clock
//    read the barrier arrival already takes.
// A run with no budget set reads no clock and makes no syscall per event.
// Threads unwind cooperatively and the runtime converts the partial state
// into SimResult::aborted with per-shard forensics.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/support/stop.hpp"

namespace tydi::sim {

using support::StopCause;

/// The SimResult::abort_reason of each cause ("watchdog-no-progress",
/// "max-events-budget", "wall-clock-budget", "rss-budget").
[[nodiscard]] std::string_view to_string(StopCause cause);

/// Shared stop signal of one simulation run. All methods are thread-safe.
class RunGuard {
 public:
  /// Events between two RSS reads while an RSS budget is set.
  static constexpr std::uint64_t kRssStrideEvents = 4096;

  /// `max_events` / `rss_budget_mb` 0 and `wall_clock_budget_ms` <= 0
  /// disable the respective budget. The wall clock starts now.
  RunGuard(std::uint64_t max_events, double wall_clock_budget_ms,
           std::uint64_t rss_budget_mb)
      : max_events_(max_events), rss_budget_mb_(rss_budget_mb) {
    token_.tighten_deadline(wall_clock_budget_ms);
  }

  /// Adds `n` processed events to the global counter, checks the event,
  /// wall-clock and RSS budgets, and returns true once the run is stopped.
  bool sync(std::uint64_t n);

  /// Global processed events. Relaxed: the counter is monotonic telemetry,
  /// not a synchronization point.
  [[nodiscard]] std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] support::StopToken& token() { return token_; }

 private:
  support::StopToken token_;
  const std::uint64_t max_events_;
  const std::uint64_t rss_budget_mb_;
  /// Own cache line: every kernel writes it each sync, while barrier
  /// waiters spin-read the token.
  alignas(64) std::atomic<std::uint64_t> events_{0};
};

}  // namespace tydi::sim

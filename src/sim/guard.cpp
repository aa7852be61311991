#include "src/sim/guard.hpp"

#include <algorithm>
#include <chrono>

#include "src/support/rss.hpp"

namespace tydi::sim {

std::string_view to_string(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kWatchdogNoProgress: return "watchdog-no-progress";
    case StopCause::kMaxEvents: return "max-events-budget";
    case StopCause::kWallClock: return "wall-clock-budget";
    case StopCause::kRss: return "rss-budget";
  }
  return "unknown";
}

Watchdog::Watchdog(RunGuard& guard, Config config)
    : guard_(guard), config_(config) {
  if (config_.enabled()) thread_ = std::thread([this] { run(); });
}

void Watchdog::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::run() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto last_progress_at = start;
  std::uint64_t last_events = guard_.events();

  // Poll fast enough that short test timeouts (~100ms) fire promptly but
  // slow enough to be invisible in profiles.
  double poll_ms = 10.0;
  if (config_.timeout_ms > 0.0) {
    poll_ms = std::min(poll_ms, config_.timeout_ms / 4.0);
  }
  if (config_.wall_clock_budget_ms > 0.0) {
    poll_ms = std::min(poll_ms, config_.wall_clock_budget_ms / 4.0);
  }
  poll_ms = std::max(poll_ms, 1.0);
  const auto poll = std::chrono::duration<double, std::milli>(poll_ms);

  std::unique_lock<std::mutex> lock(mu_);
  while (!done_) {
    cv_.wait_for(lock, poll);
    if (done_ || guard_.stop_requested()) return;

    const auto now = Clock::now();
    const std::uint64_t events = guard_.events();
    if (events != last_events) {
      last_events = events;
      last_progress_at = now;
    }

    auto ms_since = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::milli>(now - t).count();
    };
    if (config_.timeout_ms > 0.0 &&
        ms_since(last_progress_at) >= config_.timeout_ms) {
      guard_.request_stop(StopCause::kWatchdogNoProgress);
      return;
    }
    if (config_.wall_clock_budget_ms > 0.0 &&
        ms_since(start) >= config_.wall_clock_budget_ms) {
      guard_.request_stop(StopCause::kWallClock);
      return;
    }
    if (config_.rss_budget_mb > 0 &&
        support::current_rss_mb() >= config_.rss_budget_mb) {
      guard_.request_stop(StopCause::kRss);
      return;
    }
  }
}

}  // namespace tydi::sim

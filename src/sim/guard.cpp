#include "src/sim/guard.hpp"

#include "src/support/rss.hpp"

namespace tydi::sim {

std::string_view to_string(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kNoProgress: return "watchdog-no-progress";
    case StopCause::kMaxEvents: return "max-events-budget";
    case StopCause::kDeadline: return "wall-clock-budget";
    case StopCause::kRss: return "rss-budget";
    case StopCause::kCancelled: return "cancelled";
    case StopCause::kDrain: return "drain";
  }
  return "unknown";
}

bool RunGuard::sync(std::uint64_t n) {
  const std::uint64_t before = events_.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t total = before + n;
  if (max_events_ != 0 && total >= max_events_) {
    token_.request_stop(StopCause::kMaxEvents);
  }
  if (rss_budget_mb_ != 0 &&
      (before == 0 ||
       before / kRssStrideEvents != total / kRssStrideEvents) &&
      support::current_rss_mb() >= rss_budget_mb_) {
    token_.request_stop(StopCause::kRss);
  }
  return token_.poll();
}

}  // namespace tydi::sim

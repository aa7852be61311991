// The one stop primitive of compiles, tydid requests, journal replay and
// simulation runs: a first-cause-wins stop flag plus an optional deadline.
// The owner of the work hands a token down; the work polls it at its own
// safe points and unwinds cooperatively. Nothing watches from another
// thread: the next poll notices a passed deadline and raises kDeadline.
// The first cause sticks, so messages and metrics name the original
// trigger (a compile drained after its client hung up reports the
// disconnect).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace tydi::support {

/// Why work was asked to stop. kNone means it has not been.
enum class StopCause : std::uint8_t {
  kNone = 0,
  kDeadline,    ///< the deadline passed (raised by poll())
  kCancelled,   ///< the requester withdrew (tydid: client disconnected)
  kDrain,       ///< the owner is shutting down (tydid: the drain)
  kNoProgress,  ///< sim: no event processed for the no-progress window
  kMaxEvents,   ///< sim: the global processed-event budget ran out
  kRss,         ///< sim: the resident set exceeded its budget
};

/// All methods are thread-safe.
class StopToken {
 public:
  /// First caller wins; later causes are ignored.
  void request_stop(StopCause cause) { raise(cause); }

  [[nodiscard]] bool stop_requested() const {
    return cause() != StopCause::kNone;
  }
  [[nodiscard]] StopCause cause() const {
    return cause_.load(std::memory_order_acquire);
  }

  /// Moves the deadline to `ms` from now unless it is already sooner: a
  /// deadline never loosens. `ms` <= 0 sets nothing (the configs' "0 =
  /// unlimited").
  void tighten_deadline(double ms) {
    if (!(ms > 0.0)) return;
    const double target = static_cast<double>(now_ns()) + ms * 1e6;
    const std::int64_t wanted = target < static_cast<double>(kNoDeadline)
                                    ? static_cast<std::int64_t>(target)
                                    : kNoDeadline;
    std::int64_t current = deadline_ns_.load(std::memory_order_relaxed);
    while (wanted < current &&
           !deadline_ns_.compare_exchange_weak(current, wanted,
                                               std::memory_order_relaxed)) {
    }
  }

  /// True once stopped; first raises kDeadline when the deadline has
  /// passed. Reads the clock only while a deadline is set, so an
  /// unbudgeted poll is two atomic loads.
  [[nodiscard]] bool poll() const {
    if (stop_requested()) return true;
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == kNoDeadline || now_ns() < deadline) return false;
    raise(StopCause::kDeadline);
    return true;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Const so poll() can record a passed deadline on a const token.
  void raise(StopCause cause) const {
    StopCause expected = StopCause::kNone;
    cause_.compare_exchange_strong(expected, cause, std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  }

  mutable std::atomic<StopCause> cause_{StopCause::kNone};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace tydi::support

// Resident-set probe shared by the tydid admission control (rss_shed_mb)
// and the sim run guard's RSS budget.
#pragma once

#include <cstdint>

namespace tydi::support {

/// Current resident set size in MiB, read from /proc/self/statm — the
/// live figure, not getrusage's ru_maxrss high-water mark, so a threshold
/// crossed once clears again when memory is released. 0 when unavailable.
[[nodiscard]] std::uint64_t current_rss_mb();

}  // namespace tydi::support

// splitmix64 finalizer — the one counter-based hash behind every seeded
// schedule in the repo: sim fault plans (sim/fault.hpp), journal I/O
// faults (support/journal.hpp) and retry jitter (support/retry.hpp). Each
// caller composes it over its own (seed, site, step) tuple; the hash is
// stateless, so one seed fixes one schedule whatever the threads or timing.
#pragma once

#include <cstdint>

namespace tydi::support {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace tydi::support

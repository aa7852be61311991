#include "src/support/rss.hpp"

#include <unistd.h>

#include <cstdio>

namespace tydi::support {

std::uint64_t current_rss_mb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  // Fields are in pages: total program size, then resident set.
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size_pages,
                                 &resident_pages);
  std::fclose(statm);
  const long page_bytes = ::sysconf(_SC_PAGESIZE);
  if (fields != 2 || page_bytes <= 0) return 0;
  return resident_pages * static_cast<std::uint64_t>(page_bytes) >> 20;
}

}  // namespace tydi::support

#include "perfbench/src/bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench {

bool Pins::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read pins file " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (!(fields >> key >> value)) {
      error = "malformed pins line: " + line;
      return false;
    }
    values_[key] = value;
  }
  return true;
}

const std::string* Pins::find(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Pins::text_matches(const std::string& key, std::string_view text) const {
  const std::string* pin = find(key);
  return pin != nullptr && *pin == text_digest(text);
}

bool Pins::count_matches(const std::string& key, std::uint64_t value) const {
  const std::string* pin = find(key);
  return pin != nullptr && *pin == std::to_string(value);
}

void Oracle::verify(const Pins& pins, const std::string& key,
                    std::string text) {
  if (pins.text_matches(key, text)) {
    texts_[key] = std::move(text);
  } else {
    fail(key + ": digest " + text_digest(text) + " differs from pin");
  }
}

std::string text_digest(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buffer) + ":" + std::to_string(text.size());
}

bool write_trace(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  const char* separator = "\n";
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%zu,\"parent\":%d}}",
                   separator, s.name, tid,
                   static_cast<double>(s.start_ns) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(s.op), i, s.parent);
      separator = ",\n";
    }
  }
  std::fputs("\n]}\n", out);
  // Write the file back now, inside this run, so the disk traffic does not
  // slow down whatever runs next.
  const bool ok = std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  return std::fclose(out) == 0 && ok;
}

std::size_t parallelism() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp<long>(cpus, 1, 4));
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::size_t beyond(const std::vector<double>& sorted, double value) {
  return static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

Summary summarize(std::vector<double> latencies_ms, double window_s) {
  Summary out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  if (window_s > 0.0) {
    out.ops_per_s = static_cast<double>(latencies_ms.size()) / window_s;
  }
  out.p50 = quantile(latencies_ms, 0.50);
  out.p90 = quantile(latencies_ms, 0.90);
  out.p99 = quantile(latencies_ms, 0.99);
  out.beyond_p50 = beyond(latencies_ms, out.p50);
  out.beyond_p90 = beyond(latencies_ms, out.p90);
  out.beyond_p99 = beyond(latencies_ms, out.p99);
  return out;
}

double proc_status_kb(int pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0.0;
}

std::size_t proc_map_count(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/maps");
  std::size_t count = 0;
  std::string line;
  while (std::getline(in, line)) ++count;
  return count;
}

HostSample HostSample::take() {
  HostSample h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int i = 0; i < 10; ++i) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    h.total_ticks += ticks;
    if (i == 7) h.steal_ticks = ticks;
  }
  constexpr std::uint64_t kIterations = 20'000'000;
  volatile std::uint64_t x = 1;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  h.loop_speed = static_cast<double>(kIterations) /
                 (ms_between(start, Clock::now()) * 1000.0);
  return h;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench

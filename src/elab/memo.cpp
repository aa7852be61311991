#include "src/elab/memo.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>

#include "src/obs/metrics.hpp"

namespace tydi::elab {

namespace {

/// Process-wide mirrors of MemoStats: every memo in the process folds its
/// hits/misses into the same tydi.memo.* counters so the daemon's METRICS
/// snapshot reports cross-compile cache behaviour without walking
/// sessions. (MemoStats stays the per-memo source of truth.)
struct MemoCounters {
  obs::Counter& streamlet_hits;
  obs::Counter& impl_hits;
  obs::Counter& misses;
  obs::Counter& stale;

  static MemoCounters& get() {
    static MemoCounters* c = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new MemoCounters{reg.counter("tydi.memo.streamlet_hits"),
                              reg.counter("tydi.memo.impl_hits"),
                              reg.counter("tydi.memo.misses"),
                              reg.counter("tydi.memo.stale")};
    }();
    return *c;
  }
};

}  // namespace

std::uint64_t source_hash(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// True when `ok` holds for the entry's own stamp and every dependency stamp.
template <typename Entry, typename Pred>
bool all_stamps(const Entry& entry, Pred ok) {
  if (!ok(entry.stamp)) return false;
  for (const SourceStamp& dep : entry.dep_sources) {
    if (!ok(dep)) return false;
  }
  return true;
}

/// The version of `sym` whose stamps all match the current source hashes,
/// or null; `known` tells whether `sym` has any version. At most one
/// version's *own* stamp can match (a file id has one current hash), so the
/// scan is deterministic.
template <typename Table>
typename Table::mapped_type::value_type current_version(
    const Table& table, Symbol sym, const SourceHashes& hashes,
    bool* known = nullptr) {
  auto it = table.find(sym);
  if (known != nullptr) *known = it != table.end();
  if (it == table.end()) return nullptr;
  for (const auto& entry : it->second) {
    if (all_stamps(*entry, [&](const SourceStamp& s) {
          return s.current(hashes);
        })) {
      return entry;
    }
  }
  return nullptr;
}

/// current_version, counted as a hit, a miss (no version) or stale.
template <typename Table>
typename Table::mapped_type::value_type counted_version(
    const Table& table, Symbol sym, const SourceHashes& hashes,
    MemoStats& stats, support::RelaxedCounter& hits,
    obs::Counter& process_hits) {
  bool known = false;
  auto entry = current_version(table, sym, hashes, &known);
  if (entry != nullptr) {
    ++hits;
    ++process_hits;
  } else if (!known) {
    ++stats.misses;
    ++MemoCounters::get().misses;
  } else {
    ++stats.stale;
    ++MemoCounters::get().stale;
  }
  return entry;
}

/// Replaces the version with the same own stamp (a re-elaboration after a
/// stale lookup), or adds one. Readers holding the old snapshot keep it
/// alive until they are done with it.
template <typename Entry>
void upsert(std::vector<std::shared_ptr<const Entry>>& versions,
            std::shared_ptr<const Entry> entry) {
  for (auto& existing : versions) {
    if (existing->stamp.file == entry->stamp.file &&
        existing->stamp.hash == entry->stamp.hash) {
      existing = std::move(entry);
      return;
    }
  }
  versions.push_back(std::move(entry));
}

bool stamp_less(const SourceStamp& a, const SourceStamp& b) {
  return a.file.value != b.file.value ? a.file.value < b.file.value
                                      : a.hash < b.hash;
}

}  // namespace

std::shared_ptr<const Streamlet> TemplateMemo::find_streamlet(
    Symbol sym, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  auto entry = counted_version(streamlets_, sym, hashes, stats_,
                               stats_.streamlet_hits,
                               MemoCounters::get().streamlet_hits);
  return entry != nullptr ? entry->payload : nullptr;
}

std::shared_ptr<const TemplateMemo::ImplEntry> TemplateMemo::find_impl(
    Symbol sym, const SourceHashes& hashes) {
  std::shared_lock lock(mu_);
  return counted_version(impls_, sym, hashes, stats_, stats_.impl_hits,
                         MemoCounters::get().impl_hits);
}

std::shared_ptr<const Streamlet> TemplateMemo::valid_streamlet(
    Symbol sym, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  auto entry = current_version(streamlets_, sym, hashes);
  return entry != nullptr ? entry->payload : nullptr;
}

std::shared_ptr<const Impl> TemplateMemo::valid_impl(
    Symbol sym, const SourceHashes& hashes) const {
  std::shared_lock lock(mu_);
  auto entry = current_version(impls_, sym, hashes);
  return entry != nullptr ? entry->payload : nullptr;
}

void TemplateMemo::put_streamlet(Symbol sym,
                                 std::shared_ptr<const Streamlet> payload,
                                 SourceStamp stamp,
                                 std::vector<SourceStamp> dep_sources) {
  auto entry = std::make_shared<const StreamletEntry>(
      StreamletEntry{std::move(payload), stamp, std::move(dep_sources)});
  std::unique_lock lock(mu_);
  upsert(streamlets_[sym], std::move(entry));
}

void TemplateMemo::put_impl(Symbol sym, ImplEntry entry) {
  auto shared = std::make_shared<const ImplEntry>(std::move(entry));
  std::unique_lock lock(mu_);
  upsert(impls_[sym], std::move(shared));
}

void TemplateMemo::retain(std::vector<SourceStamp> live) {
  std::sort(live.begin(), live.end(), stamp_less);
  auto is_live = [&](const auto& entry) {
    return all_stamps(*entry, [&](const SourceStamp& s) {
      return std::binary_search(live.begin(), live.end(), s, stamp_less);
    });
  };
  // Moves the retired versions of every symbol out, then erases the emptied
  // symbols. The last reference to a version may free a whole program's
  // ASTs, so they are destroyed after the lock is released.
  std::vector<std::shared_ptr<const void>> dropped;
  auto sweep = [&](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      auto& versions = it->second;
      auto kept =
          std::stable_partition(versions.begin(), versions.end(), is_live);
      std::move(kept, versions.end(), std::back_inserter(dropped));
      versions.erase(kept, versions.end());
      it = versions.empty() ? table.erase(it) : std::next(it);
    }
  };
  std::unique_lock lock(mu_);
  sweep(streamlets_);
  sweep(impls_);
}

std::size_t TemplateMemo::version_count() const {
  std::shared_lock lock(mu_);
  std::size_t versions = 0;
  for (const auto& symbol : streamlets_) versions += symbol.second.size();
  for (const auto& symbol : impls_) versions += symbol.second.size();
  return versions;
}

void TemplateMemo::invalidate() {
  std::unique_lock lock(mu_);
  streamlets_.clear();
  impls_.clear();
}

}  // namespace tydi::elab

// Concurrency tests of the shared compile session: many threads compiling
// through one CompileSession must produce byte-identical output to serial
// standalone compiles — hit or miss, with or without a racing
// invalidation or edit — the parallel compile_batch must be schedule-
// independent, and edit churn must leave both session caches bounded. These tests run under TSan in CI (the sim-shard-tsan job),
// which is where the locking discipline of the memo and parse caches and
// the lock-free publication of per-type lowerings are actually enforced.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/stop.hpp"
#include "src/tpch/tpch.hpp"
#include "src/types/physical.hpp"

namespace tydi {
namespace {

// Serial standalone compile of a query — the golden bytes every concurrent
// compile is compared against.
std::string golden_vhdl(const tpch::QueryCase& q) {
  driver::CompileResult r = tpch::compile_query(q);
  EXPECT_TRUE(r.success()) << r.report();
  return r.vhdl_text;
}

TEST(ConcurrentCompile, SameQueryManyThreadsByteIdentical) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string golden = golden_vhdl(*q);

  driver::CompileSession session;
  constexpr int kThreads = 8;
  std::vector<std::string> vhdl(kThreads);
  std::vector<std::string> reports(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        driver::CompileResult r = tpch::compile_query(*q, session);
        vhdl[t] = r.success() ? r.vhdl_text : "";
        reports[t] = r.report();
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(vhdl[t], golden) << "thread " << t << ": " << reports[t];
  }
}

TEST(ConcurrentCompile, DifferentQueriesManyThreadsByteIdentical) {
  const std::vector<tpch::QueryCase>& queries = tpch::queries();
  std::vector<std::string> goldens(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    goldens[i] = golden_vhdl(queries[i]);
  }

  driver::CompileSession session;
  std::vector<std::string> vhdl(queries.size());
  {
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      pool.emplace_back([&, i]() {
        driver::CompileResult r = tpch::compile_query(queries[i], session);
        vhdl[i] = r.success() ? r.vhdl_text : r.report();
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(vhdl[i], goldens[i]) << queries[i].id << queries[i].note;
  }
}

TEST(ConcurrentCompile, WarmConcurrentCompilesHitRateOne) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  // Warm the session serially; every concurrent compile afterwards must be
  // a pure replay (per-compile hit rate 1.0).
  {
    driver::CompileResult warm = tpch::compile_query(*q, session);
    ASSERT_TRUE(warm.success()) << warm.report();
  }
  constexpr int kThreads = 8;
  std::vector<double> hit_rates(kThreads, 0.0);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        driver::CompileResult r = tpch::compile_query(*q, session);
        hit_rates[t] = r.success() ? r.template_cache.hit_rate() : -1.0;
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hit_rates[t], 1.0) << "thread " << t;
  }
}

TEST(ConcurrentCompile, InvalidationRacingCompilesIsSafe) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 3");
  ASSERT_NE(q, nullptr);
  const std::string golden = golden_vhdl(*q);

  driver::CompileSession session;
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(kThreads);

  std::thread invalidator([&]() {
    // Hammer invalidate() while compiles are in flight: in-flight compiles
    // keep the shared payloads they captured and re-elaborate on their
    // next lookup; outputs must not change.
    while (!done.load(std::memory_order_acquire)) {
      session.invalidate();
      std::this_thread::yield();
    }
  });
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        for (int round = 0; round < kRounds; ++round) {
          driver::CompileResult r = tpch::compile_query(*q, session);
          if (!r.success()) {
            failures[t] = r.report();
            return;
          }
          if (r.vhdl_text != golden) {
            failures[t] = "round " + std::to_string(round) +
                          ": VHDL differs from serial golden";
            return;
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  done.store(true, std::memory_order_release);
  invalidator.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

// First use of a fresh type's lowering from many threads at once: every
// racing builder but one loses the publish and adopts the winner's copy.
TEST(ConcurrentCompile, FirstUseLoweringRacePublishesOneObject) {
  types::StreamParams params;
  params.throughput = 4.0;
  params.dimension = 2;
  params.complexity = 8;
  const types::TypeRef type = types::make_stream(
      types::make_group({{"key", types::make_bit(32)},
                         {"chars", types::make_stream(types::make_bit(8))}}),
      params);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<const types::TypeLowering*> seen(kThreads, nullptr);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kThreads) {
          std::this_thread::yield();
        }
        seen[t] = &types::lowering_of(*type);
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(seen[0], &types::lowering_of(*type));
  EXPECT_EQ(seen[0]->layouts.size(), 2u);
}

// The whole TPC-H batch at --jobs {2,4,8} must reproduce the --jobs 1 run
// byte for byte: same entries in the same order, same emitted texts, and a
// fully warm second round at every worker count.
TEST(ConcurrentCompile, ParallelBatchByteIdenticalAcrossWorkerCounts) {
  std::vector<driver::BatchJob> jobs = tpch::batch_jobs();
  driver::BatchOptions serial_options;
  serial_options.jobs = 1;
  serial_options.keep_texts = true;

  driver::CompileSession serial_session;
  driver::BatchResult serial =
      driver::compile_batch(serial_session, jobs, serial_options);
  ASSERT_TRUE(serial.success()) << serial.render();

  for (int workers : {2, 4, 8}) {
    driver::BatchOptions options;
    options.jobs = workers;
    options.keep_texts = true;
    driver::CompileSession session;
    driver::BatchResult cold = driver::compile_batch(session, jobs, options);
    ASSERT_TRUE(cold.success()) << "jobs=" << workers << "\n" << cold.render();
    ASSERT_EQ(cold.entries.size(), serial.entries.size());
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(cold.entries[i].name, serial.entries[i].name);
      EXPECT_EQ(cold.entries[i].vhdl_text, serial.entries[i].vhdl_text)
          << "jobs=" << workers << " entry " << serial.entries[i].name;
      EXPECT_EQ(cold.entries[i].ir_text, serial.entries[i].ir_text)
          << "jobs=" << workers << " entry " << serial.entries[i].name;
    }
    EXPECT_EQ(cold.bytes_emitted, serial.bytes_emitted) << "jobs=" << workers;

    // Warm round through the same session: every job replays from the memo.
    driver::BatchResult warm = driver::compile_batch(session, jobs, options);
    ASSERT_TRUE(warm.success()) << warm.render();
    EXPECT_EQ(warm.template_cache.hit_rate(), 1.0) << "jobs=" << workers;
    EXPECT_EQ(warm.bytes_emitted, serial.bytes_emitted) << "jobs=" << workers;
  }
}

TEST(ConcurrentCompile, CancellationClassifiesAsAborted) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  driver::CompileOptions options = tpch::query_options(*q);
  support::StopToken stop;
  stop.request_stop(support::StopCause::kCancelled);
  options.stop = &stop;
  driver::CompileResult r =
      session.compile(tpch::query_sources(*q), options);
  EXPECT_FALSE(r.success());
  support::Status status = r.status();
  EXPECT_EQ(status.code(), support::StatusCode::kAborted);
  EXPECT_EQ(status.phase(), "watchdog");
}

TEST(ConcurrentCompile, ExhaustedBudgetClassifiesAsAborted) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileSession session;
  driver::CompileOptions options = tpch::query_options(*q);
  // A sub-microsecond budget is always exceeded by the first phase-boundary
  // check (the parse phase itself takes longer), so this is deterministic.
  support::StopToken stop;
  stop.tighten_deadline(1e-6);
  options.stop = &stop;
  driver::CompileResult r =
      session.compile(tpch::query_sources(*q), options);
  EXPECT_FALSE(r.success());
  EXPECT_EQ(r.status().code(), support::StatusCode::kAborted);
}

// ---- Retention: each (file id, name) slot keeps its two newest hashes ----

/// TPC-H 6's sources with a comment-only edit of the query file.
std::vector<driver::NamedSource> edited_sources(const tpch::QueryCase& q,
                                                const std::string& edit) {
  std::vector<driver::NamedSource> sources = tpch::query_sources(q);
  sources.back().text += "\n// edit " + edit + "\n";
  return sources;
}

/// Parse and elaborate only: the retention rule lives in those two caches.
driver::CompileOptions frontend_options(const tpch::QueryCase& q) {
  driver::CompileOptions options = tpch::query_options(q);
  options.run_drc = false;
  options.emit_ir = false;
  options.emit_vhdl = false;
  return options;
}

std::uint64_t parse_misses() {
  return obs::MetricsRegistry::global()
      .counter("tydi.parse.cache_misses")
      .value();
}

TEST(SessionRetention, ThousandEditsKeepBothCachesFlat) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = frontend_options(*q);
  // The stdlib plus the query's own sources.
  const std::size_t files = tpch::query_sources(*q).size() + 1;

  driver::CompileSession session;
  std::size_t steady_versions = 0;
  for (int edit = 0; edit < 1000; ++edit) {
    driver::CompileResult r =
        session.compile(edited_sources(*q, std::to_string(edit)), options);
    ASSERT_TRUE(r.success()) << r.report();
    ASSERT_LE(session.parse_cache_size(),
              files * driver::CompileSession::kVersionsPerSource)
        << "edit " << edit;
    // From the second edit on, the slot of the query file is full: every
    // edit retires one hash and adds one.
    if (edit == 2) steady_versions = session.memo().version_count();
    if (edit > 2) {
      ASSERT_EQ(session.memo().version_count(), steady_versions)
          << "edit " << edit;
    }
  }
  EXPECT_GT(steady_versions, 0u);
}

TEST(SessionRetention, AlternatingTwoVersionsStaysWarm) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = frontend_options(*q);
  driver::CompileSession session;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t misses_before = parse_misses();
    driver::CompileResult r =
        session.compile(edited_sources(*q, i % 2 == 0 ? "a" : "b"), options);
    ASSERT_TRUE(r.success()) << r.report();
    if (i < 2) continue;
    EXPECT_EQ(parse_misses(), misses_before) << "compile " << i;
    EXPECT_EQ(r.template_cache.hit_rate(), 1.0) << "compile " << i;
  }
}

TEST(SessionRetention, ConcurrentEditsStayByteIdenticalAndBounded) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const driver::CompileOptions options = tpch::query_options(*q);
  std::size_t one_compile_versions = 0;
  {
    driver::CompileSession fresh;
    ASSERT_TRUE(tpch::compile_query(*q, fresh).success());
    one_compile_versions = fresh.memo().version_count();
  }

  driver::CompileSession session;
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::vector<std::string> failures(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t]() {
        for (int round = 0; round < kRounds; ++round) {
          // Every thread edits the same query file, so hashes retire while
          // the other threads' compiles are in flight.
          const std::vector<driver::NamedSource> sources = edited_sources(
              *q, std::to_string(t) + "." + std::to_string(round));
          driver::CompileResult r = session.compile(sources, options);
          driver::CompileResult golden = driver::compile(sources, options);
          if (!r.success() || r.vhdl_text != golden.vhdl_text ||
              r.ir_text != golden.ir_text) {
            failures[t] = "round " + std::to_string(round) + ": " +
                          (r.success() ? "output differs from sessionless"
                                       : r.report());
            return;
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
  // Versions published after the last sweep by compiles then in flight (at
  // most one per thread) outlive it; everything else is the two live hashes.
  EXPECT_LE(session.memo().version_count(),
            one_compile_versions *
                (driver::CompileSession::kVersionsPerSource + kThreads));
  // The next retirement sweeps them too.
  ASSERT_TRUE(session.compile(edited_sources(*q, "last"), options).success());
  EXPECT_LE(session.memo().version_count(),
            one_compile_versions * driver::CompileSession::kVersionsPerSource);
}

}  // namespace
}  // namespace tydi

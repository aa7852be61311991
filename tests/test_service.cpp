// Compile-service tests: the wire protocol (header/payload framing, verb
// parsing, status-code mapping) unit-tested against CompileService, plus
// the AF_UNIX server end-to-end — a daemon thread serving parallel client
// requests that must be byte-identical to in-process compiles — and the
// answer table that serves repeated requests without compiling.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/server.hpp"
#include "src/service/service.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {
namespace {

TEST(ServiceProtocol, PingPong) {
  service::CompileService svc;
  service::Response r = svc.handle_line("PING");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.payload, "pong");
  EXPECT_FALSE(r.shutdown);
  EXPECT_EQ(r.header(), "OK 0 4");
}

TEST(ServiceProtocol, ShutdownFlagsTransport) {
  service::CompileService svc;
  service::Response r = svc.handle_line("SHUTDOWN");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.shutdown);
}

TEST(ServiceProtocol, MalformedRequestsAreInvalidArgument) {
  service::CompileService svc;
  for (const char* line :
       {"", "   ", "FROBNICATE", "TPCH", "TPCH 6", "TPCH 6 vhdl nonsense",
        "TPCH 99 vhdl", "TPCH 6 pdf", "FILE only_two args"}) {
    service::Response r = svc.handle_line(line);
    EXPECT_FALSE(r.ok()) << "line: '" << line << "'";
    EXPECT_EQ(r.status.code(), support::StatusCode::kInvalidArgument)
        << "line: '" << line << "'";
  }
  EXPECT_EQ(svc.requests_failed(), 9u);
}

TEST(ServiceProtocol, MissingFileIsIoError) {
  service::CompileService svc;
  service::Response r =
      svc.handle_line("FILE /nonexistent/nope.td top vhdl");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), support::StatusCode::kIoError);
}

TEST(ServiceProtocol, ParseErrorMapsToWireCode) {
  service::CompileService svc;
  const std::string path = "/tmp/tydi_service_bad.td";
  {
    std::ofstream out(path);
    out << "this is not tydi-lang\n";
  }
  service::Response r = svc.handle_line("FILE " + path + " top vhdl");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), support::StatusCode::kParseError);
  // The payload carries the rendered diagnostics.
  EXPECT_NE(r.payload.find("error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServiceProtocol, TpchCompileMatchesInProcessCompile) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  service::CompileService svc;
  service::Response vhdl = svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(vhdl.ok()) << vhdl.payload;
  EXPECT_EQ(vhdl.payload, golden.vhdl_text);

  service::Response ir = svc.handle_line("TPCH 6 ir");
  ASSERT_TRUE(ir.ok()) << ir.payload;
  EXPECT_EQ(ir.payload, golden.ir_text);
}

TEST(ServiceProtocol, StatsReportsSessionCounters) {
  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  service::Response stats = svc.handle_line("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.payload.find("requests 2"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("memo_impls"), std::string::npos);
  service::Response inval = svc.handle_line("INVALIDATE");
  ASSERT_TRUE(inval.ok());
  service::Response stats2 = svc.handle_line("STATS");
  EXPECT_NE(stats2.payload.find("memo_impls 0"), std::string::npos)
      << stats2.payload;
  EXPECT_NE(stats2.payload.find("parse_cache 0"), std::string::npos);
}

TEST(ServiceProtocol, ResponseSerializeParseRoundTrip) {
  service::Response in;
  in.status = support::Status::error(support::StatusCode::kParseError,
                                     "parser", "boom");
  in.payload = "line one\nline two\n";
  const std::string wire = in.serialize();
  EXPECT_EQ(wire.substr(0, wire.find('\n')),
            "ERR " + std::to_string(in.status.exit_code()) + " " +
                std::to_string(in.payload.size()));

  service::Response out;
  ASSERT_TRUE(service::parse_response(wire, out));
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(out.status.exit_code(), in.status.exit_code());
  EXPECT_EQ(out.status.code(), support::StatusCode::kParseError);

  service::Response ok;
  ok.payload = "pong";
  service::Response ok_out;
  ASSERT_TRUE(service::parse_response(ok.serialize(), ok_out));
  EXPECT_TRUE(ok_out.ok());
  EXPECT_EQ(ok_out.payload, "pong");
}

TEST(ServiceProtocol, ParseResponseRejectsTruncatedFrames) {
  service::Response out;
  EXPECT_FALSE(service::parse_response("", out));
  EXPECT_FALSE(service::parse_response("OK 0", out));          // no newline
  EXPECT_FALSE(service::parse_response("OK 0 10\nshort", out));  // payload cut
  EXPECT_FALSE(service::parse_response("WAT 0 0\n", out));
  EXPECT_TRUE(service::parse_response("OK 0 0\n\n", out));
  EXPECT_TRUE(out.payload.empty());
}

// End-to-end: a real daemon on a real socket, eight parallel clients, every
// response byte-identical to the in-process compile of the same query.
TEST(ServiceServer, ParallelClientsByteIdentical) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  const std::string socket_path =
      "/tmp/tydid_test_" + std::to_string(::getpid()) + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });

  // Wait for the socket to appear (bind is fast; PING confirms liveness).
  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<std::string> errors(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        service::Response r;
        support::Status s = service::request(socket_path, "TPCH 6 vhdl", r);
        if (!s.is_ok()) {
          errors[c] = s.render();
        } else if (!r.ok()) {
          errors[c] = r.payload;
        } else {
          payloads[c] = std::move(r.payload);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
    EXPECT_EQ(payloads[c], golden.vhdl_text) << "client " << c;
  }

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  EXPECT_TRUE(bye.shutdown || bye.payload == "bye");
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
  // Clean shutdown removes the socket file.
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
}

std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// The accept loop joins finished connection threads, so sequential
// requests do not pile up thread stacks (2 mappings each) until drain.
TEST(ServiceServer, SequentialConnectionsDoNotGrowMappings) {
  const std::string socket_path =
      "/tmp/tydid_maps_" + std::to_string(::getpid()) + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });

  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  const std::size_t before = mapped_regions();
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(service::request(socket_path, "PING", ping).is_ok()) << i;
    ASSERT_EQ(ping.payload, "pong");
  }
  const std::size_t after = mapped_regions();
  EXPECT_LT(after, before + 64) << before << " -> " << after;

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
}

// A generous budget (default or per request) never changes the output.
TEST(ServiceServer, BudgetedRequestStillSucceeds) {
  service::ServiceConfig config;
  config.default_budget_ms = 60000.0;  // generous; exercises the budget path
  service::CompileService svc(config);
  service::Response r = svc.handle_line("TPCH 6 vhdl");
  EXPECT_TRUE(r.ok()) << r.payload;
  service::Response budgeted = svc.handle_line("TPCH 6 vhdl 60000");
  EXPECT_TRUE(budgeted.ok()) << budgeted.payload;
  EXPECT_EQ(budgeted.payload, r.payload);
}

// A budget the compile cannot meet aborts it at the next phase boundary,
// classified like a watchdog fire, and HEALTH reports the abort.
TEST(ServiceServer, ExceededBudgetAbortsCompile) {
  service::CompileService svc;
  service::Response r = svc.handle_line("TPCH 19 vhdl 0.001");
  EXPECT_EQ(r.status.code(), support::StatusCode::kAborted) << r.payload;
  EXPECT_EQ(r.status.phase(), "watchdog") << r.payload;
  EXPECT_EQ(svc.requests_failed(), 1u);
  service::Response health = svc.handle_line("HEALTH");
  EXPECT_NE(health.payload.find("budget"), std::string::npos)
      << health.payload;
}

TEST(ServiceProtocol, MetricsAndHealthReturnValidJson) {
  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());

  service::Response metrics = svc.handle_line("METRICS");
  ASSERT_TRUE(metrics.ok()) << metrics.payload;
  EXPECT_TRUE(obs::json_valid(metrics.payload)) << metrics.payload;
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"histograms\"",
        "tydi.service.requests", "tydi.compile.total", "tydi.memo."}) {
    EXPECT_NE(metrics.payload.find(key), std::string::npos)
        << "missing " << key;
  }

  service::Response health = svc.handle_line("HEALTH");
  ASSERT_TRUE(health.ok()) << health.payload;
  EXPECT_TRUE(obs::json_valid(health.payload)) << health.payload;
  for (const char* key :
       {"\"status\":\"ok\"", "\"uptime_ms\"", "\"in_flight\"", "\"requests\"",
        "\"failures\"", "\"memo_hit_rate\"", "\"parse_cache_entries\"",
        "\"memo_streamlets\"", "\"memo_impls\"", "\"memo_versions\"",
        "\"last_abort\""}) {
    EXPECT_NE(health.payload.find(key), std::string::npos)
        << "missing " << key << " in " << health.payload;
  }
  // Three requests so far (TPCH, METRICS, HEALTH happened before the
  // HEALTH snapshot was taken — the snapshot counts the first two).
  EXPECT_NE(health.payload.find("\"requests\":"), std::string::npos);
}

// Acceptance gate: the daemon answers METRICS/HEALTH with parseable JSON
// while FILE compile requests are in flight on other connections.
TEST(ServiceServer, MetricsAndHealthDuringConcurrentFileRequests) {
  // Materialise the TPC-H Q6 sources as real files for the FILE verb.
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  const std::string base = "/tmp/tydid_obs_" + std::to_string(::getpid());
  const std::string fletcher_path = base + "_fletcher.td";
  const std::string query_path = base + "_q6.td";
  {
    std::ofstream f(fletcher_path);
    f << tpch::fletcher_source();
    std::ofstream g(query_path);
    g << q->source;
  }
  const std::string file_line = "FILE " + fletcher_path + "," + query_path +
                                " " + q->top_impl + " vhdl";

  const std::string socket_path = base + ".sock";
  service::CompileService svc;
  service::ServerConfig config;
  config.socket_path = socket_path;
  support::Status serve_status;
  std::thread daemon([&]() { serve_status = service::serve(svc, config); });

  service::Response ping;
  support::Status up;
  for (int attempt = 0; attempt < 200; ++attempt) {
    up = service::request(socket_path, "PING", ping);
    if (up.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(up.is_ok()) << up.render();

  constexpr int kCompilers = 4;
  constexpr int kCompilesEach = 3;
  constexpr int kPollers = 2;
  std::atomic<bool> compiling{true};
  std::vector<std::string> errors(kCompilers + kPollers);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCompilers; ++c) {
      threads.emplace_back([&, c]() {
        for (int i = 0; i < kCompilesEach; ++i) {
          service::Response r;
          support::Status s = service::request(socket_path, file_line, r);
          if (!s.is_ok()) {
            errors[c] = s.render();
            return;
          }
          if (!r.ok()) {
            errors[c] = r.payload;
            return;
          }
        }
      });
    }
    for (int p = 0; p < kPollers; ++p) {
      threads.emplace_back([&, p]() {
        const std::string verb = (p % 2 == 0) ? "METRICS" : "HEALTH";
        while (compiling.load(std::memory_order_relaxed)) {
          service::Response r;
          support::Status s = service::request(socket_path, verb, r);
          if (!s.is_ok()) {
            errors[kCompilers + p] = s.render();
            return;
          }
          if (!r.ok() || !obs::json_valid(r.payload)) {
            errors[kCompilers + p] = verb + " bad payload: " + r.payload;
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    // Compiler threads are the first kCompilers entries; join them, then
    // release the pollers.
    for (int c = 0; c < kCompilers; ++c) threads[c].join();
    compiling.store(false, std::memory_order_relaxed);
    for (int p = 0; p < kPollers; ++p) threads[kCompilers + p].join();
  }
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << "thread " << i << ": " << errors[i];
  }

  // Post-run introspection reflects the work just served.
  service::Response health;
  ASSERT_TRUE(service::request(socket_path, "HEALTH", health).is_ok());
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(obs::json_valid(health.payload)) << health.payload;
  EXPECT_NE(health.payload.find("\"in_flight\":"), std::string::npos);
  EXPECT_NE(health.payload.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(health.payload.find("\"shed_total\":"), std::string::npos);
  EXPECT_NE(health.payload.find("\"workers\":"), std::string::npos);
  // Nothing shed or draining in this test: a healthy daemon reports so.
  EXPECT_NE(health.payload.find("\"draining\":false"), std::string::npos);
  EXPECT_NE(health.payload.find("\"status\":\"ok\""), std::string::npos);

  service::Response bye;
  ASSERT_TRUE(service::request(socket_path, "SHUTDOWN", bye).is_ok());
  daemon.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.render();
  std::remove(fletcher_path.c_str());
  std::remove(query_path.c_str());
}

// ---- Answer table: repeated requests answered without compiling ----

/// A numeric field of the HEALTH JSON (-1 when absent).
long long health_field(service::CompileService& svc, const std::string& name) {
  const std::string health = svc.handle_line("HEALTH").payload;
  const std::string key = "\"" + name + "\":";
  const std::size_t at = health.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(health.c_str() + at + key.size());
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// First sight records the key's stamps, the second compile stores the
// answer, and the third is answered from the table: byte-identical to a
// sessionless compile, with no driver call behind it.
TEST(ServiceAnswers, ThirdIdenticalRequestIsAnsweredWithoutCompiling) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  EXPECT_EQ(health_field(svc, "answers_cached"), 0);
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  EXPECT_EQ(health_field(svc, "answers_cached"), 1);
  EXPECT_EQ(health_field(svc, "answer_hits"), 0);

  const std::uint64_t compiles = counter_value("tydi.compile.total");
  const std::uint64_t hits = counter_value("tydi.service.answer_hits");
  service::Response third = svc.handle_line("TPCH 6 vhdl");
  ASSERT_TRUE(third.ok()) << third.payload;
  EXPECT_EQ(third.payload, golden.vhdl_text);
  EXPECT_EQ(counter_value("tydi.compile.total"), compiles);
  EXPECT_EQ(counter_value("tydi.service.answer_hits"), hits + 1);
  EXPECT_EQ(health_field(svc, "answer_hits"), 1);
}

// A FILE key's answer is tied to the content stamps of its sources: once
// the bytes change, the next request compiles the new bytes.
TEST(ServiceAnswers, EditedFileIsRecompiled) {
  const std::string path =
      "/tmp/tydi_answers_" + std::to_string(::getpid()) + ".td";
  auto source = [](int bits) {
    return "type t = Stream(Bit(" + std::to_string(bits) +
           "), d=1, c=2);\n"
           "streamlet s { a: t in, b: t out, }\n"
           "impl top of s {\n  a => b,\n}\n";
  };
  auto write = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  };
  auto sessionless = [&](const std::string& text) {
    driver::CompileOptions options;
    options.top = "top";
    options.emit_ir = false;
    driver::CompileResult result = driver::compile({{path, text}}, options);
    EXPECT_TRUE(result.success()) << result.report();
    return result.vhdl_text;
  };
  const std::string line = "FILE " + path + " top vhdl";

  service::CompileService svc;
  write(source(8));
  for (int i = 0; i < 3; ++i) {
    service::Response r = svc.handle_line(line);
    ASSERT_TRUE(r.ok()) << r.payload;
    EXPECT_EQ(r.payload, sessionless(source(8)));
  }
  EXPECT_EQ(health_field(svc, "answer_hits"), 1);

  write(source(16));
  const std::uint64_t compiles = counter_value("tydi.compile.total");
  service::Response edited = svc.handle_line(line);
  ASSERT_TRUE(edited.ok()) << edited.payload;
  EXPECT_EQ(counter_value("tydi.compile.total"), compiles + 1);
  EXPECT_EQ(edited.payload, sessionless(source(16)));
  EXPECT_NE(edited.payload, sessionless(source(8)));
  EXPECT_EQ(health_field(svc, "answer_hits"), 1);
  // The changed stamps replaced the entry: nothing stored until the new
  // bytes compile a second time.
  EXPECT_EQ(health_field(svc, "answers_cached"), 0);
  std::remove(path.c_str());
}

// HEALTH reports the session cache sizes, and edits of one FILE source keep
// them flat: each (file id, name) slot holds its two newest hashes, and the
// memo keeps only versions stamped with a held hash.
TEST(ServiceHealth, CacheSizesStayFlatUnderEdits) {
  const std::string path =
      "/tmp/tydi_health_" + std::to_string(::getpid()) + ".td";
  const std::string line = "FILE " + path + " top vhdl";
  auto compile_edit = [&](service::CompileService& svc, int edit) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << "type t = Stream(Bit(8), d=1, c=2);\n"
           "streamlet s { a: t in, b: t out, }\n"
           "impl top of s {\n  a => b,\n}\n// edit "
        << edit << "\n";
    ASSERT_TRUE(svc.handle_line(line).ok());
  };

  service::CompileService svc;
  EXPECT_EQ(health_field(svc, "parse_cache_entries"), 0);
  EXPECT_EQ(health_field(svc, "memo_versions"), 0);
  compile_edit(svc, 0);
  // The stdlib and the file, one hash each; streamlet s and impl top.
  EXPECT_EQ(health_field(svc, "parse_cache_entries"), 2);
  EXPECT_EQ(health_field(svc, "memo_streamlets"), 1);
  EXPECT_EQ(health_field(svc, "memo_impls"), 1);
  EXPECT_EQ(health_field(svc, "memo_versions"), 2);
  for (int edit = 1; edit < 6; ++edit) {
    compile_edit(svc, edit);
    EXPECT_EQ(health_field(svc, "parse_cache_entries"), 3) << "edit " << edit;
    EXPECT_EQ(health_field(svc, "memo_streamlets"), 1) << "edit " << edit;
    EXPECT_EQ(health_field(svc, "memo_impls"), 1) << "edit " << edit;
    EXPECT_EQ(health_field(svc, "memo_versions"), 4) << "edit " << edit;
  }
  std::remove(path.c_str());
}

TEST(ServiceAnswers, InvalidateDropsEveryAnswer) {
  service::CompileService svc;
  for (const char* line : {"TPCH 6 vhdl", "TPCH 6 ir"}) {
    ASSERT_TRUE(svc.handle_line(line).ok());
    ASSERT_TRUE(svc.handle_line(line).ok());
  }
  EXPECT_EQ(health_field(svc, "answers_cached"), 2);
  ASSERT_TRUE(svc.handle_line("INVALIDATE").ok());
  EXPECT_EQ(health_field(svc, "answers_cached"), 0);

  const std::uint64_t compiles = counter_value("tydi.compile.total");
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  EXPECT_EQ(counter_value("tydi.compile.total"), compiles + 1);
  EXPECT_EQ(health_field(svc, "answer_hits"), 0);
}

// A hit does no compile work, so no budget can abort it: a stored answer
// is served under a 0.001 ms budget, while a miss under the same budget
// still aborts kAborted at its first phase boundary.
TEST(ServiceAnswers, HitIsServedUnderABudgetNoCompileMeets) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  service::CompileService svc;
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  ASSERT_TRUE(svc.handle_line("TPCH 6 vhdl").ok());
  service::Response hit = svc.handle_line("TPCH 6 vhdl 0.001");
  ASSERT_TRUE(hit.ok()) << hit.payload;
  EXPECT_EQ(hit.payload, golden.vhdl_text);

  // Never compiled before: a miss.
  service::Response miss = svc.handle_line("TPCH 6 ir 0.001");
  EXPECT_EQ(miss.status.code(), support::StatusCode::kAborted)
      << miss.payload;
  EXPECT_EQ(miss.status.phase(), "watchdog") << miss.payload;
}

// Racing requests for one key all get the same bytes, whether they
// compiled, stored or hit (ThreadSanitizer runs this in CI).
TEST(ServiceAnswers, EightThreadsRacingOnOneKeyGetIdenticalPayloads) {
  const tpch::QueryCase* q = tpch::find_query("TPC-H 6");
  ASSERT_NE(q, nullptr);
  driver::CompileResult golden = tpch::compile_query(*q);
  ASSERT_TRUE(golden.success()) << golden.report();

  service::ServiceConfig config;
  config.workers = 4;
  service::CompileService svc(config);
  constexpr int kThreads = 8;
  constexpr int kRequestsEach = 4;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (int i = 0; i < kRequestsEach; ++i) {
          service::Response r = svc.handle_line("TPCH 6 vhdl");
          if (!r.ok() || r.payload != golden.vhdl_text) ++mismatches[t];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(health_field(svc, "answers_cached"), 1);
}

}  // namespace
}  // namespace tydi

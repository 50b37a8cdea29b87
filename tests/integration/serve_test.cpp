// `fsct serve` contract tests (the Serve.* prefix is in the TSan gate, see
// tools/check.sh):
//
//  * determinism — a served report, normalized (timings/RSS stripped), is
//    bitwise identical to the `fsct test` flow for the same request, on
//    several suite circuits and across two concurrent socket sessions;
//  * caching — a repeated request hits the compiled-model cache (counter-
//    asserted: zero SoA compilations in the cached run) and, when enabled,
//    the result cache, without changing the report;
//  * lifecycle — bad requests come back as error events, a client that
//    hangs up early never kills the daemon, and a drain request lets run()
//    return.
#include "serve/serve.h"

#include <gtest/gtest.h>

#ifndef _WIN32

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/suite.h"
#include "core/io_util.h"
#include "core/json.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"
#include "serve/http.h"
#include "serve/net.h"
#include "sim/soa_circuit.h"

namespace fsct {
namespace {

ServeOptions quiet_options() {
  ServeOptions opt;
  opt.tcp_port = 0;  // ephemeral loopback listener; tests use process_line
  opt.log = [](const std::string&) {};
  return opt;
}

std::string suite_bench(int i) {
  return write_bench_string(build_suite_circuit(paper_suite()[i]));
}

// ISCAS'89 s27: a small circuit whose per-run work (and with it the SoA
// compile count) is exactly reproducible.
const char* kS27 =
    "INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G17)\n"
    "G5 = DFF(G10)\nG6 = DFF(G11)\nG7 = DFF(G13)\nG14 = NOT(G0)\n"
    "G17 = NOT(G11)\nG8 = AND(G14, G6)\nG15 = OR(G12, G8)\n"
    "G16 = OR(G3, G8)\nG9 = NAND(G16, G15)\nG10 = NOR(G14, G11)\n"
    "G11 = NOR(G5, G9)\nG12 = NOR(G1, G7)\nG13 = NAND(G2, G12)\n";

// Independent re-implementation of the `fsct test --metrics` flow — no serve
// code, no caches, no PipelineCompiled — producing the run report the daemon
// must match (the determinism contract of DESIGN.md §5j).
std::string cli_reference_report(const std::string& bench, int chains) {
  Netlist nl = read_bench_string(bench, "ref");
  TpiOptions topt;
  topt.num_chains = chains;
  const ScanDesign design = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, design);
  EXPECT_EQ(model.check(), "");
  const std::vector<Fault> faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = 1;
  ObsRegistry reg;
  opt.obs = &reg;
  reg.set_context("ref");
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);
  std::ostringstream ms;
  reg.write_run_report(ms, r, nullptr);
  return ms.str();
}

std::string request_line(const std::string& id, const std::string& bench,
                         int chains, bool use_result_cache = true) {
  return "{\"id\": \"" + id + "\", \"circuit\": \"" + json_escape(bench) +
         "\", \"use_result_cache\": " +
         (use_result_cache ? "true" : "false") +
         ", \"config\": {\"chains\": " + std::to_string(chains) +
         ", \"jobs\": 1}}";
}

// The raw report object of a result event; the report is the line's last
// member (see ServeServer::run_request).
std::string report_of(const std::string& result_line) {
  const std::string key = "\"report\": ";
  const auto pos = result_line.find(key);
  EXPECT_NE(pos, std::string::npos) << result_line;
  if (pos == std::string::npos) return "";
  return result_line.substr(pos + key.size(),
                            result_line.size() - (pos + key.size()) - 1);
}

// Drops the per-response `"serve"` section (the server-assigned request_id,
// stamped at send time — see with_serve_section in serve.cpp) so replayed
// reports can be byte-compared against their cold originals.
std::string without_serve_section(std::string report) {
  const std::string key = ", \"serve\": {";
  const std::size_t pos = report.rfind(key);
  EXPECT_NE(pos, std::string::npos) << report;
  if (pos == std::string::npos) return report;
  const std::size_t end = report.find('}', pos);
  EXPECT_NE(end, std::string::npos) << report;
  if (end == std::string::npos) return report;
  report.erase(pos, end + 1 - pos);
  return report;
}

TEST(Serve, NormalizedReportStripsVolatileKeysAndSortsKeys) {
  const std::string a =
      "{\"z\": 1, \"elapsed_seconds\": 2.5, \"rss_phases\": {\"x\": 1}, "
      "\"a\": {\"cpu_time_ms\": 3, \"n\": 4, \"sim_passes\": 7}}";
  const std::string b =
      "{\"a\": {\"n\": 4, \"cpu_time_ms\": 9}, \"z\": 1, "
      "\"rss_phases\": {\"y\": 2}}";
  EXPECT_EQ(normalized_report(a), "{\"a\":{\"n\":4},\"z\":1}");
  EXPECT_EQ(normalized_report(a), normalized_report(b));
}

TEST(Serve, ServedReportMatchesCliBitwiseOnSuiteCircuits) {
  ServeServer srv(quiet_options());
  for (int i = 0; i < 3; ++i) {
    const SuiteEntry& e = paper_suite()[i];
    const std::string bench = suite_bench(i);
    const std::string line =
        srv.process_line(request_line(e.name, bench, e.chains));
    ASSERT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
    EXPECT_EQ(normalized_report(report_of(line)),
              normalized_report(cli_reference_report(bench, e.chains)))
        << e.name;
  }
}

TEST(Serve, SoaMemoCompilesOncePerLevelizer) {
  const Netlist nl = read_bench_string(suite_bench(0), "memo");
  const Levelizer lv(nl);
  const std::uint64_t before = soa_compile_count();
  const auto a = SoaCircuit::compile(lv);
  const auto b = SoaCircuit::compile(lv);
  EXPECT_EQ(a.get(), b.get());  // one shared flat compilation
  EXPECT_EQ(soa_compile_count(), before + 1);
}

TEST(Serve, RepeatedRequestHitsModelCacheWithoutRecompiling) {
  ServeServer srv(quiet_options());
  const std::string bench = kS27;
  // Result cache off, so the second request re-runs the pipeline against
  // the cached model instead of replaying a stored report.
  const std::uint64_t base = soa_compile_count();
  const std::string first = srv.process_line(request_line("a", bench, 1, false));
  ASSERT_NE(first.find("\"model_cache\": \"miss\""), std::string::npos)
      << first;
  const std::uint64_t after_first = soa_compile_count();
  const std::string second =
      srv.process_line(request_line("b", bench, 1, false));
  EXPECT_NE(second.find("\"model_cache\": \"hit\""), std::string::npos)
      << second;
  // Counter-asserted cache hit.  The pipeline compiles fresh unrolled ATPG
  // models every run (identically on identical runs at jobs=1), so the cached
  // request's compile count must come in exactly one short of the cold
  // one: the model's compile phase — and only it — was skipped.
  EXPECT_EQ(soa_compile_count() - after_first, (after_first - base) - 1);
  const ServeStats st = srv.stats();
  EXPECT_EQ(st.models_compiled, 1u);
  EXPECT_EQ(st.model_cache_hits, 1u);
  // Cache warmth never leaks into results.
  EXPECT_EQ(normalized_report(report_of(first)),
            normalized_report(report_of(second)));
}

TEST(Serve, ResultCacheReplaysIdenticalReport) {
  ServeServer srv(quiet_options());
  const SuiteEntry& e = paper_suite()[0];
  const std::string bench = suite_bench(0);
  const std::string first =
      srv.process_line(request_line("r1", bench, e.chains));
  ASSERT_NE(first.find("\"result_cache\": \"miss\""), std::string::npos)
      << first;
  // Same circuit and config under a different id: the result key excludes
  // the id, so this replays the stored report verbatim.
  const std::string second =
      srv.process_line(request_line("r2", bench, e.chains));
  EXPECT_NE(second.find("\"result_cache\": \"hit\""), std::string::npos)
      << second;
  EXPECT_EQ(srv.stats().result_cache_hits, 1u);
  // Verbatim replay, apart from the per-response serve stamp: the cache
  // stores the UN-stamped report and each response gets a fresh request_id.
  EXPECT_EQ(without_serve_section(report_of(first)),
            without_serve_section(report_of(second)));
  EXPECT_NE(first.find("\"serve\": {\"request_id\": 1}"), std::string::npos)
      << first;
  EXPECT_NE(second.find("\"serve\": {\"request_id\": 2}"), std::string::npos)
      << second;
}

TEST(Serve, MalformedRequestsComeBackAsBadRequestEvents) {
  ServeServer srv(quiet_options());
  const std::string missing = srv.process_line("{\"id\": \"x\"}");
  EXPECT_NE(missing.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(missing.find("\"code\": \"bad_request\""), std::string::npos);
  const std::string garbage = srv.process_line("not json at all");
  EXPECT_NE(garbage.find("\"code\": \"bad_request\""), std::string::npos);
  EXPECT_EQ(srv.stats().errors, 2u);
}

TEST(Serve, TwoConcurrentSocketSessionsMatchCli) {
  const std::string path = testing::TempDir() + "fsct_serve_test.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.workers = 2;
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  std::thread server([&] { srv.run(); });

  std::string results[2];
  auto session = [&](int idx) {
    const SuiteEntry& e = paper_suite()[idx];
    const int fd = connect_unix(path);
    LineReader lr(fd);
    ASSERT_TRUE(write_line(fd, request_line(e.name, suite_bench(idx),
                                            e.chains, false)));
    std::string line;
    while (lr.next(line)) {
      if (line.find("\"event\": \"result\"") != std::string::npos) {
        results[idx] = line;
        break;
      }
    }
    close(fd);
  };
  std::thread s0(session, 0), s1(session, 1);
  s0.join();
  s1.join();
  srv.request_stop();
  server.join();  // returning at all proves the drain completes

  for (int idx = 0; idx < 2; ++idx) {
    const SuiteEntry& e = paper_suite()[idx];
    ASSERT_NE(results[idx].find("\"status\": \"ok\""), std::string::npos)
        << results[idx];
    EXPECT_EQ(normalized_report(report_of(results[idx])),
              normalized_report(cli_reference_report(suite_bench(idx),
                                                     e.chains)))
        << e.name;
  }
  const ServeStats st = srv.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.ok, 2u);
}

// A client that hangs up before its response arrives must cost the daemon
// nothing but that one connection: the response write hits EPIPE (SIGPIPE is
// ignored for run()'s lifetime) and the reader's bookkeeping is released
// without waiting for drain.  The follow-up session also pushes an absurd
// "priority" through the reader's peek — formerly an unchecked
// double-to-int cast, UB under UBSan — and still gets the worker's precise
// bad_request rejection, then a normal result.
TEST(Serve, ClientDisconnectBeforeResponseDoesNotKillDaemon) {
  const std::string path = testing::TempDir() + "fsct_serve_gone.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  std::thread server([&] { srv.run(); });

  {
    const int fd = connect_unix(path);
    ASSERT_TRUE(write_line(fd, request_line("gone", kS27, 1, false)));
    close(fd);  // hang up without reading the response
  }

  const int fd = connect_unix(path);
  LineReader lr(fd);
  auto next_result = [&]() {
    std::string line;
    while (lr.next(line)) {
      if (line.find("\"event\": \"result\"") != std::string::npos) return line;
    }
    return std::string();
  };
  ASSERT_TRUE(write_line(fd, "{\"id\": \"huge\", \"circuit\": \"" +
                                 json_escape(kS27) +
                                 "\", \"priority\": 1e300}"));
  const std::string rejected = next_result();
  EXPECT_NE(rejected.find("\"code\": \"bad_request\""), std::string::npos)
      << rejected;
  ASSERT_TRUE(write_line(fd, request_line("alive", kS27, 1, false)));
  const std::string result = next_result();
  EXPECT_NE(result.find("\"status\": \"ok\""), std::string::npos) << result;
  close(fd);

  srv.request_stop();
  server.join();
}

// A gate wider than kMaxFanin used to overflow the scalar simulator's stack
// buffer during scan insertion and take the daemon down.  It is refused at
// parse time now: the request gets a bad_request naming the gate, and the
// same daemon serves the next request normally.
TEST(Serve, OverWideGateIsBadRequestAndDaemonKeepsServing) {
  const std::string path = testing::TempDir() + "fsct_serve_wide.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  std::thread server([&] { srv.run(); });

  std::string wide, args;
  for (std::size_t i = 0; i <= kMaxFanin; ++i) {
    wide += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  wide += "OUTPUT(g)\nf = DFF(g)\ng = XOR(" + args + ")\n";

  const int fd = connect_unix(path);
  LineReader lr(fd);
  auto next_result = [&]() {
    std::string line;
    while (lr.next(line)) {
      if (line.find("\"event\": \"result\"") != std::string::npos) return line;
    }
    return std::string();
  };
  ASSERT_TRUE(write_line(fd, request_line("wide", wide, 1, false)));
  const std::string rejected = next_result();
  EXPECT_NE(rejected.find("\"code\": \"bad_request\""), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("bad fanin count for XOR g"), std::string::npos)
      << rejected;
  ASSERT_TRUE(write_line(fd, request_line("alive", kS27, 1, false)));
  const std::string result = next_result();
  EXPECT_NE(result.find("\"status\": \"ok\""), std::string::npos) << result;
  close(fd);

  srv.request_stop();
  server.join();
  EXPECT_EQ(srv.stats().errors, 1u);
  EXPECT_EQ(srv.stats().ok, 1u);
}

TEST(Serve, RequestStopDrainsAnIdleServer) {
  const std::string path = testing::TempDir() + "fsct_serve_idle.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  std::thread server([&] { srv.run(); });
  srv.request_stop();
  server.join();
}

// --- observability plane (GET /metrics, /healthz, /readyz, /statusz) --------

// One scrape: fresh loopback connection, full response read, fd closed.
HttpResult scrape(int port, const std::string& target) {
  return http_get_fd(connect_tcp(port), target);
}

// Value of the sample line starting with `sample` + ' ' in an OpenMetrics
// page (pass the full name including labels for histogram buckets); -1 when
// the series is absent.
double metric_value(const std::string& body, const std::string& sample) {
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() > sample.size() + 1 &&
        line.compare(0, sample.size(), sample) == 0 &&
        line[sample.size()] == ' ') {
      return std::atof(line.c_str() + sample.size() + 1);
    }
  }
  return -1;
}

// RAII for the pipeline's test-only phase-sleep failpoint, so a failing
// assertion can't leak a slow pipeline into every later test.
struct PhaseSleepGuard {
  explicit PhaseSleepGuard(const char* spec) {
    setenv("FSCT_TEST_PHASE_SLEEP", spec, 1);
  }
  ~PhaseSleepGuard() { unsetenv("FSCT_TEST_PHASE_SLEEP"); }
};

TEST(Serve, MetricsEndpointScrapesDuringAndAfterSessions) {
  // Hold each request in step 3 long enough for a mid-flight scrape.
  PhaseSleepGuard slow("s3:300");
  const std::string path = testing::TempDir() + "fsct_serve_metrics.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.workers = 2;
  opt.http_port = 0;  // ephemeral loopback scrape listener
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  const int port = srv.http_port();
  ASSERT_GT(port, 0);
  std::thread server([&] { srv.run(); });

  auto session = [&](const char* id) {
    const int fd = connect_unix(path);
    LineReader lr(fd);
    ASSERT_TRUE(write_line(fd, request_line(id, kS27, 1, false)));
    std::string line;
    while (lr.next(line)) {
      if (line.find("\"event\": \"result\"") != std::string::npos) break;
    }
    close(fd);
  };
  std::thread s0(session, "m0"), s1(session, "m1");

  // Scrape while at least one session is live; the accept thread answers
  // concurrently with both workers, which is exactly what TSan is watching.
  double during_requests = -1;
  for (int i = 0; i < 5000 && during_requests < 0; ++i) {
    const HttpResult m = scrape(port, "/metrics");
    ASSERT_EQ(m.status, 200);
    if (metric_value(m.body, "fsct_serve_active_sessions") >= 1) {
      during_requests = metric_value(m.body, "fsct_serve_requests_total");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GE(during_requests, 1);  // the mid-flight scrape happened
  s0.join();
  s1.join();

  const HttpResult after = scrape(port, "/metrics");
  ASSERT_EQ(after.status, 200);
  // Counters are monotone across scrapes and settle at the exact totals.
  EXPECT_LE(during_requests, metric_value(after.body, "fsct_serve_requests_total"));
  EXPECT_EQ(metric_value(after.body, "fsct_serve_requests_total"), 2);
  EXPECT_EQ(metric_value(after.body, "fsct_serve_requests_ok_total"), 2);
  EXPECT_EQ(metric_value(after.body, "fsct_serve_active_sessions"), 0);
  // Queue, cache and latency series are all present; both finished requests
  // landed in every latency histogram's +Inf bucket.
  EXPECT_GE(metric_value(after.body, "fsct_serve_queue_depth"), 0);
  EXPECT_GE(metric_value(after.body, "fsct_serve_queue_highwater"), 0);
  // Two concurrent first requests for one circuit may both compile (the
  // model cache's documented race) — but every request resolved one way or
  // the other, and at least one was a genuine miss.
  const double m_miss =
      metric_value(after.body, "fsct_serve_model_cache_misses_total");
  const double m_hit =
      metric_value(after.body, "fsct_serve_model_cache_hits_total");
  EXPECT_GE(m_miss, 1);
  EXPECT_EQ(m_miss + m_hit, 2);
  // Both sessions ran with the result cache off: no lookups, no misses.
  EXPECT_EQ(metric_value(after.body, "fsct_serve_result_cache_misses_total"),
            0);
  for (const char* ph : {"queue", "compile", "pipeline", "serialize"}) {
    const std::string fam = std::string("fsct_serve_latency_") + ph + "_us";
    EXPECT_EQ(metric_value(after.body, fam + "_bucket{le=\"+Inf\"}"), 2)
        << fam;
    EXPECT_EQ(metric_value(after.body, fam + "_count"), 2) << fam;
  }
  // Session registries were folded in: pipeline counters appear cumulatively.
  EXPECT_GT(metric_value(after.body, "fsct_classify_faults_total"), 0);
  // One page, one terminator.
  ASSERT_GE(after.body.size(), 6u);
  EXPECT_EQ(after.body.substr(after.body.size() - 6), "# EOF\n");
  EXPECT_EQ(after.body.find("# EOF\n"), after.body.size() - 6);

  // The rest of the surface: liveness, readiness, status JSON, 404.
  EXPECT_EQ(scrape(port, "/healthz").status, 200);
  EXPECT_EQ(scrape(port, "/readyz").status, 200);
  const HttpResult st = scrape(port, "/statusz");
  EXPECT_EQ(st.status, 200);
  EXPECT_NO_THROW(JsonParser(st.body, "statusz").parse());  // well-formed
  EXPECT_NE(st.body.find("\"recent\""), std::string::npos) << st.body;
  EXPECT_EQ(scrape(port, "/nope").status, 404);

  srv.request_stop();
  server.join();
}

TEST(Serve, MetricsEndpointReadyzFlipsDuringDrain) {
  PhaseSleepGuard slow("s3:400");
  const std::string path = testing::TempDir() + "fsct_serve_drain.sock";
  ServeOptions opt;
  opt.unix_path = path;
  opt.workers = 1;
  opt.http_port = 0;
  opt.log = [](const std::string&) {};
  ServeServer srv(opt);
  const int port = srv.http_port();
  ASSERT_GT(port, 0);
  std::thread server([&] { srv.run(); });

  const int fd = connect_unix(path);
  ASSERT_TRUE(write_line(fd, request_line("drainer", kS27, 1, false)));
  // Wait for the worker to pick the request up, then start the drain while
  // it is still inside the pipeline's slow phase.
  for (int i = 0; i < 5000 && srv.stats().requests < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(srv.stats().requests, 1u);
  EXPECT_EQ(scrape(port, "/readyz").status, 200);
  srv.request_stop();

  // Readiness flips to 503 once run() enters its drain...
  bool flipped = false;
  for (int i = 0; i < 5000 && !flipped; ++i) {
    flipped = scrape(port, "/readyz").status == 503;
    if (!flipped) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flipped);
  // ...liveness stays green, and scraping the draining daemon's full
  // metrics page and status JSON completes (no deadlock against the drain's
  // queue/cache/session locks).
  EXPECT_EQ(scrape(port, "/healthz").status, 200);
  const HttpResult m = scrape(port, "/metrics");
  EXPECT_EQ(m.status, 200);
  EXPECT_EQ(scrape(port, "/statusz").status, 200);

  // The in-flight request still completes and its response is flushed.
  LineReader lr(fd);
  std::string line, result;
  while (lr.next(line)) {
    if (line.find("\"event\": \"result\"") != std::string::npos) {
      result = line;
      break;
    }
  }
  close(fd);
  EXPECT_NE(result.find("\"status\": \"ok\""), std::string::npos) << result;
  server.join();

  // The scrape plane outlives run(): after the drain finishes the daemon
  // still answers, reporting itself drained, until the destructor runs.
  EXPECT_EQ(scrape(port, "/readyz").status, 503);
  EXPECT_EQ(metric_value(scrape(port, "/metrics").body, "fsct_serve_draining"),
            1);
}

// The HTTP head parser's rejection paths: wrong method, garbage request
// line, and a peer that closes mid-request-line (the LineReader's strict
// terminator mode) — none may wedge or kill the accept thread.
TEST(Serve, HttpListenerRejectsBadRequestsAndSurvivesEarlyClose) {
  ServeOptions opt = quiet_options();
  opt.http_port = 0;
  ServeServer srv(opt);
  const int port = srv.http_port();
  ASSERT_GT(port, 0);

  {  // hang up mid-request-line: no response owed, daemon unharmed
    const int fd = connect_tcp(port);
    ASSERT_TRUE(write_all(fd, "GET /metr", 9));
    close(fd);
  }
  {  // wrong method
    const int fd = connect_tcp(port);
    const std::string req = "POST /metrics HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(write_all(fd, req.data(), req.size()));
    std::string raw;
    char chunk[512];
    long r;
    while ((r = read_retry(fd, chunk, sizeof chunk)) > 0) {
      raw.append(chunk, static_cast<std::size_t>(r));
    }
    close(fd);
    EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 405"), 0) << raw;
  }
  {  // not HTTP at all
    const int fd = connect_tcp(port);
    const std::string req = "nonsense\r\n\r\n";
    ASSERT_TRUE(write_all(fd, req.data(), req.size()));
    std::string raw;
    char chunk[512];
    long r;
    while ((r = read_retry(fd, chunk, sizeof chunk)) > 0) {
      raw.append(chunk, static_cast<std::size_t>(r));
    }
    close(fd);
    EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 400"), 0) << raw;
  }
  // The listener is still alive and serving after all three abuses.
  EXPECT_EQ(scrape(port, "/healthz").status, 200);
}

// LineReader's two modes at EOF, and its cap/poisoning discipline — the
// contract the HTTP parser and the NDJSON reader both lean on.
TEST(Serve, LineReaderStrictModeAndCapPoisonTheStream) {
  auto feed = [](const std::string& bytes) {
    int p[2];
    EXPECT_EQ(pipe(p), 0);
    EXPECT_TRUE(write_all(p[1], bytes.data(), bytes.size()));
    close(p[1]);
    return p[0];  // read end, caller closes
  };

  {  // lenient (NDJSON) mode: a trailing fragment is still a line
    const int fd = feed("done\npartial");
    LineReader lr(fd);
    std::string line;
    ASSERT_TRUE(lr.next(line));
    EXPECT_EQ(line, "done");
    ASSERT_TRUE(lr.next(line));
    EXPECT_EQ(line, "partial");
    EXPECT_FALSE(lr.next(line));
    close(fd);
  }
  {  // strict (HTTP) mode: the unterminated fragment is rejected...
    const int fd = feed("done\npartial");
    LineReader lr(fd, LineReader::kMaxLine, /*require_terminator=*/true);
    std::string line;
    ASSERT_TRUE(lr.next(line));
    EXPECT_EQ(line, "done");
    EXPECT_FALSE(lr.next(line));
    EXPECT_FALSE(lr.next(line));  // ...and the stream stays dead
    close(fd);
  }
  {  // an unterminated line past the cap poisons the stream
    const int fd = feed("0123456789");  // 10 bytes, no '\n', cap of 4
    LineReader lr(fd, /*max_line=*/4);
    std::string line;
    EXPECT_FALSE(lr.next(line));
    EXPECT_FALSE(lr.next(line));
    close(fd);
  }
}

}  // namespace
}  // namespace fsct

#endif  // _WIN32

#include "core/obs.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/pipeline.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

struct Built {
  Netlist nl;
  ScanDesign design;
  Levelizer lv;
  ScanModeModel model;
  std::vector<Fault> faults;
  explicit Built(Netlist n)
      : nl(std::move(n)),
        design(run_tpi(nl)),
        lv(nl),
        model(lv, design),
        faults(collapsed_fault_list(nl)) {}
  Built(ExampleDesign e)
      : nl(std::move(e.nl)),
        design(std::move(e.design)),
        lv(nl),
        model(lv, design),
        faults(collapsed_fault_list(nl)) {}
};

PipelineResult run_with(ObsRegistry* obs, int jobs, Built& b) {
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = jobs;
  opt.obs = obs;
  // No random-pattern warm-up: every hard fault goes through PODEM, so the
  // ATPG counters are exercised even on tiny circuits.
  opt.random_patterns = 0;
  return run_fsct_pipeline(b.model, b.faults, opt);
}

std::size_t count_occurrences(const std::string& hay, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(pat); pos != std::string::npos;
       pos = hay.find(pat, pos + pat.size())) {
    ++n;
  }
  return n;
}

// Minimal structural JSON check: quotes paired, braces/brackets balanced and
// properly nested outside strings.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (esc) { esc = false; continue; }
    if (in_str) {
      if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_str && stack.empty();
}

TEST(Obs, CountersMergeExactSumsAcrossExecutors) {
  ObsRegistry reg;
  ThreadPool pool(4);
  const std::size_t n = 10000;
  parallel_for(pool, n, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      reg.add(Ctr::PpsfpEvents);
      reg.add(Ctr::PodemDecisions, 3);
      reg.observe(Hist::PodemDecisionDepth, i % 37);
    }
  });
  EXPECT_EQ(reg.total(Ctr::PpsfpEvents), n);
  EXPECT_EQ(reg.total(Ctr::PodemDecisions), 3 * n);
  EXPECT_EQ(reg.total(Ctr::PodemBacktracks), 0u);
  std::uint64_t hist_sum = 0;
  for (std::uint64_t c : reg.hist_total(Hist::PodemDecisionDepth)) {
    hist_sum += c;
  }
  EXPECT_EQ(hist_sum, n);
}

TEST(Obs, LogBucketScheme) {
  EXPECT_EQ(ObsRegistry::bucket(0), 0u);
  EXPECT_EQ(ObsRegistry::bucket(1), 1u);
  EXPECT_EQ(ObsRegistry::bucket(2), 2u);
  EXPECT_EQ(ObsRegistry::bucket(3), 2u);
  EXPECT_EQ(ObsRegistry::bucket(4), 3u);
  EXPECT_EQ(ObsRegistry::bucket(7), 3u);
  EXPECT_EQ(ObsRegistry::bucket(8), 4u);
  // The tail clamps into the last bucket.
  EXPECT_EQ(ObsRegistry::bucket(~0ull), kHistBuckets - 1);
}

TEST(Obs, PipelineCountersIdenticalAcrossJobCounts) {
  Built b1(small_pipeline());
  Built b4(small_pipeline());
  ObsRegistry r1, r4;
  const PipelineResult p1 = run_with(&r1, 1, b1);
  const PipelineResult p4 = run_with(&r4, 4, b4);
  ASSERT_EQ(p1.total_faults, p4.total_faults);
  // The deterministic slice is bitwise identical, as one string compare.
  EXPECT_EQ(r1.counters_json(), r4.counters_json());
  // And it actually observed the run.
  EXPECT_EQ(r1.total(Ctr::ClassifyFaults), p1.total_faults);
  EXPECT_GT(r1.total(Ctr::ClassifyEvents), 0u);
  // Flush credit may satisfy every hard fault before PODEM runs on this
  // small circuit; either way step 2 must have been observed.
  EXPECT_GT(r1.total(Ctr::PodemCalls) + r1.total(Ctr::FlushCreditDetected),
            0u);
  EXPECT_GT(r1.total(Ctr::SeqSimCycles), 0u);
}

TEST(Obs, TraceJsonBalancedAndWellFormed) {
  Built b(small_pipeline());
  ObsRegistry reg;
  reg.enable_trace();
  run_with(&reg, 2, b);
  EXPECT_GT(reg.trace_event_count(), 0u);
  std::ostringstream os;
  reg.write_trace(os);
  const std::string t = os.str();
  EXPECT_TRUE(json_well_formed(t)) << t.substr(0, 400);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  const std::size_t begins = count_occurrences(t, "\"ph\": \"B\"");
  const std::size_t ends = count_occurrences(t, "\"ph\": \"E\"");
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, reg.trace_event_count());
  // Named tracks: the submitting thread plus at least one worker.
  EXPECT_NE(t.find("executor 0 (caller)"), std::string::npos);
}

TEST(Obs, DisabledSinkRecordsNothing) {
  Built b(small_pipeline());
  ObsRegistry reg;  // never handed to the pipeline
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = 2;
  run_fsct_pipeline(b.model, b.faults, opt);
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    EXPECT_EQ(reg.total(static_cast<Ctr>(c)), 0u) << counter_name(static_cast<Ctr>(c));
  }
  EXPECT_EQ(reg.trace_event_count(), 0u);
  // Spans against a null registry are inert too.
  { const ObsSpan s(nullptr, "noop"); }
  // Spans with tracing off record nothing.
  { const ObsSpan s(&reg, "off"); }
  EXPECT_EQ(reg.trace_event_count(), 0u);
}

TEST(Obs, RunReportCoversResultCountersAndPool) {
  Built b(small_pipeline());
  ObsRegistry reg;
  const PipelineResult r = run_with(&reg, 2, b);
  std::ostringstream os;
  reg.write_run_report(os, r);
  const std::string rep = os.str();
  EXPECT_TRUE(json_well_formed(rep)) << rep.substr(0, 400);
  for (const char* key :
       {"fsct-run-report-v2", "total_faults", "easy_verified", "s2_detected",
        "detection_curve", "outcomes", "podem_backtracks",
        "podem_decision_depth", "histograms", "gauges",
        "hardware_concurrency", "pool", "workers", "idle_seconds"}) {
    EXPECT_NE(rep.find(key), std::string::npos) << key;
  }
  // Attribution was not requested: the section says so and carries no rows.
  EXPECT_NE(rep.find("\"attribution\": {\"enabled\": false}"),
            std::string::npos);
}

// Runs the pipeline with the attribution ledger on and returns the
// deterministic attribution table as JSON.
std::string attr_run(Built& b, int jobs, int width, ObsRegistry* out = nullptr,
                     PipelineResult* res = nullptr) {
  ObsRegistry local;
  ObsRegistry& reg = out ? *out : local;
  reg.request_attribution();
  PipelineOptions opt;
  opt.jobs = jobs;
  opt.simd_width = width;
  opt.obs = &reg;
  const PipelineResult r = run_fsct_pipeline(b.model, b.faults, opt);
  if (res) *res = r;
  return reg.attribution_json();
}

TEST(Obs, AttributionChargeMergesAcrossExecutors) {
  ObsRegistry reg;
  reg.request_attribution();
  reg.init_attribution(100);
  ASSERT_TRUE(reg.attribution_enabled());
  ThreadPool pool(4);
  const std::size_t n = 10000;
  parallel_for(pool, n, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      reg.charge(Attr::SeqCycles, i % 100, 2);
      reg.charge(Attr::PodemDecisions, i % 100);
    }
  });
  for (std::size_t f = 0; f < 100; ++f) {
    EXPECT_EQ(reg.attr_total(Attr::SeqCycles, f), 200u) << f;
    EXPECT_EQ(reg.attr_total(Attr::PodemDecisions, f), 100u) << f;
    EXPECT_EQ(reg.attr_total(Attr::PodemBacktracks, f), 0u) << f;
  }
  EXPECT_EQ(reg.attribution_table().size(), 100 * kNumDetAttrs);
}

TEST(Obs, AttributionDisabledIsInert) {
  ObsRegistry reg;
  EXPECT_FALSE(reg.attribution_enabled());
  // Charges against a disabled ledger are dropped at the fast-path branch.
  reg.charge(Attr::SeqCycles, 3, 100);
  EXPECT_EQ(reg.attribution_faults(), 0u);
  EXPECT_TRUE(reg.attribution_table().empty());
}

TEST(Obs, AttributionIdenticalAcrossJobCounts) {
  for (const char* name : {"s1488", "s1494", "s1423"}) {
    Built b(build_suite_circuit(suite_entry(name)));
    const std::string serial = attr_run(b, 1, 0);
    const std::string parallel = attr_run(b, 4, 0);
    EXPECT_EQ(serial, parallel) << name;
    EXPECT_NE(serial.find("\"rows\""), std::string::npos) << name;
  }
}

TEST(Obs, AttributionIdenticalAcrossSimdWidths) {
  for (const char* name : {"s1488", "s1494", "s1423"}) {
    Built b(build_suite_circuit(suite_entry(name)));
    const std::string w64 = attr_run(b, 4, 64);
    EXPECT_EQ(w64, attr_run(b, 4, 256)) << name << " width 256";
    EXPECT_EQ(w64, attr_run(b, 4, 512)) << name << " width 512";
  }
}

TEST(Obs, AttributionReconcilesWithDeterministicCounters) {
  Built b(build_suite_circuit(suite_entry("s1488")));
  ObsRegistry reg;
  attr_run(b, 4, 0, &reg);
  const std::vector<std::uint64_t> t = reg.attribution_table();
  ASSERT_EQ(t.size(), b.faults.size() * kNumDetAttrs);
  std::array<std::uint64_t, kNumDetAttrs> sums{};
  for (std::size_t f = 0; f < b.faults.size(); ++f) {
    for (std::size_t a = 0; a < kNumDetAttrs; ++a) {
      sums[a] += t[f * kNumDetAttrs + a];
    }
  }
  const auto col = [&](Attr a) { return sums[static_cast<std::size_t>(a)]; };
  // Every PODEM call in the pipeline is attributed, so the columns reconcile
  // exactly with the deterministic counters.
  EXPECT_EQ(col(Attr::PodemCalls), reg.total(Ctr::PodemCalls));
  EXPECT_EQ(col(Attr::PodemDecisions), reg.total(Ctr::PodemDecisions));
  EXPECT_EQ(col(Attr::PodemBacktracks), reg.total(Ctr::PodemBacktracks));
  // Detection credit is charged at every credit site: the total matches the
  // flush-credited + ledger-dropped counts.
  EXPECT_EQ(col(Attr::CreditEvents), reg.total(Ctr::FlushCreditDetected) +
                                         reg.total(Ctr::DroppedByLedger));
  EXPECT_GT(col(Attr::SeqCycles), 0u);
  EXPECT_GT(col(Attr::SeqSims), 0u);
}

TEST(Obs, RunReportV2CarriesAttributionTopList) {
  Built b(small_pipeline());
  ObsRegistry reg;
  PipelineResult r;
  attr_run(b, 2, 0, &reg, &r);
  std::ostringstream os;
  reg.write_run_report(os, r);
  const std::string rep = os.str();
  EXPECT_TRUE(json_well_formed(rep)) << rep.substr(0, 400);
  EXPECT_NE(rep.find("\"attribution\": {\"enabled\": true"),
            std::string::npos);
  for (const char* key : {"\"columns\"", "\"top\"", "\"work\"", "seq_cycles",
                          "wall_nanos", "credit_events"}) {
    EXPECT_NE(rep.find(key), std::string::npos) << key;
  }
}

TEST(Obs, TraceLimitDropsEventsAndMarksTruncation) {
  Built b(small_pipeline());
  ObsRegistry reg;
  reg.enable_trace();
  reg.set_trace_limit_bytes(512);  // a handful of spans at most
  run_with(&reg, 2, b);
  EXPECT_GT(reg.total(Ctr::TraceEventsDropped), 0u);
  bool marked = false;
  for (const auto& e : reg.trace_snapshot()) {
    if (e.name == "trace.truncated") marked = true;
  }
  EXPECT_TRUE(marked);
  // The capped buffer must still serialize as valid trace JSON.
  std::ostringstream os;
  reg.write_trace(os);
  EXPECT_TRUE(json_well_formed(os.str()));
}

TEST(Obs, OpenMetricsExpositionFormat) {
  Built b(small_pipeline());
  ObsRegistry reg;
  run_with(&reg, 2, b);
  std::ostringstream os;
  reg.write_openmetrics(os);
  const std::string m = os.str();
  EXPECT_NE(m.find("# TYPE fsct_classify_faults counter"), std::string::npos);
  EXPECT_NE(m.find("fsct_classify_faults_total "), std::string::npos);
  EXPECT_NE(m.find("# TYPE fsct_jobs gauge"), std::string::npos);
  EXPECT_NE(m.find("# TYPE fsct_podem_decision_depth histogram"),
            std::string::npos);
  EXPECT_NE(m.find("fsct_podem_decision_depth_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(m.find("fsct_podem_decision_depth_sum "), std::string::npos);
  EXPECT_NE(m.find("fsct_podem_decision_depth_count "), std::string::npos);
  // OpenMetrics requires the EOF marker as the final line.
  ASSERT_GE(m.size(), 6u);
  EXPECT_EQ(m.substr(m.size() - 6), "# EOF\n");
}

TEST(Obs, ProgressLinesDeliveredPerPhase) {
  Built b(small_pipeline());
  ObsRegistry reg;
  std::vector<std::string> lines;
  reg.progress = [&](const std::string& l) { lines.push_back(l); };
  run_with(&reg, 1, b);
  ASSERT_GE(lines.size(), 3u);  // classify, step1, step2, step3
  EXPECT_NE(lines.front().find("classify:"), std::string::npos);
  EXPECT_NE(lines.back().find("step3:"), std::string::npos);
}

#ifndef _WIN32
TEST(Obs, MonitorInstallsAndRestoresSigusr1Handler) {
  // Nothing in this binary pins the handler, so monitor lifetime alone
  // decides whether our sigaction is installed.
  ASSERT_FALSE(sigusr1_handler_active());
  {
    ObsMonitor m;
    EXPECT_TRUE(sigusr1_handler_active());
  }
  EXPECT_FALSE(sigusr1_handler_active());
  {
    ObsMonitor again;  // start/stop/start: the saved action round-trips
    EXPECT_TRUE(sigusr1_handler_active());
    {
      ObsMonitor nested;  // refcounted: the inner release must not uninstall
    }
    EXPECT_TRUE(sigusr1_handler_active());
  }
  EXPECT_FALSE(sigusr1_handler_active());

  ObsMonitor::Options opt;
  opt.sigusr1 = false;  // per-session serve monitors never touch the signal
  const ObsMonitor silent(opt);
  EXPECT_FALSE(sigusr1_handler_active());
}
#endif

TEST(Obs, HeartbeatRateEtaClampsWhenTotalShrinksBelowDone) {
  HeartbeatRate hr;
  const auto t0 = std::chrono::steady_clock::time_point{};
  static const char* const kPhase = "step3";
  // One sample is no rate: ETA unknown, not zero or garbage.
  EXPECT_EQ(hr.update(kPhase, 0, 100, t0).rate, 0);
  EXPECT_LT(hr.update(kPhase, 0, 100, t0).eta_seconds, 0);
  const auto e1 = hr.update(kPhase, 40, 100, t0 + std::chrono::seconds(4));
  EXPECT_NEAR(e1.rate, 10.0, 1e-9);
  EXPECT_NEAR(e1.eta_seconds, 6.0, 1e-9);
  // Ledger drops shrank the total below done mid-phase: the estimate must
  // clamp remaining work to zero, never wrap the unsigned subtraction.
  const auto e2 = hr.update(kPhase, 50, 30, t0 + std::chrono::seconds(5));
  EXPECT_GT(e2.rate, 0);
  EXPECT_EQ(e2.eta_seconds, 0);
}

TEST(Obs, HeartbeatRateResetsOnPhaseChangeAndDoneRegression) {
  HeartbeatRate hr;
  const auto t0 = std::chrono::steady_clock::time_point{};
  static const char* const kA = "stepA";
  static const char* const kB = "stepB";
  hr.update(kA, 0, 100, t0);
  EXPECT_GT(hr.update(kA, 50, 100, t0 + std::chrono::seconds(1)).rate, 0);
  // New phase literal: the old window must not poison the new rate.
  EXPECT_EQ(hr.update(kB, 10, 100, t0 + std::chrono::seconds(2)).rate, 0);
  EXPECT_GT(hr.update(kB, 20, 100, t0 + std::chrono::seconds(3)).rate, 0);
  // A daemon's next run reuses the same literal; done regressing to the
  // fresh run's small count must also reset the window.
  EXPECT_EQ(hr.update(kB, 5, 100, t0 + std::chrono::seconds(4)).rate, 0);
}

// hist_quantile() is how `fsct stat` turns scraped latency buckets into
// p50/p90/p99, so its edge behavior is contract, not detail.
TEST(Obs, HistQuantileEdges) {
  std::array<std::uint64_t, kHistBuckets> b{};
  // Empty histogram: no quantile to report.
  EXPECT_EQ(hist_quantile(b, 0.5), -1.0);

  // All mass on value 0 (bucket 0): every quantile is exactly 0.
  b[0] = 17;
  EXPECT_EQ(hist_quantile(b, 0.0), 0.0);
  EXPECT_EQ(hist_quantile(b, 0.5), 0.0);
  EXPECT_EQ(hist_quantile(b, 1.0), 0.0);
  b[0] = 0;

  // Single interior bucket 3 = [4, 7], four samples: ranks interpolate
  // linearly across the bucket's width, and q outside [0,1] clamps.
  b[3] = 4;
  EXPECT_DOUBLE_EQ(hist_quantile(b, 0.0), 4.75);   // rank 0 maps to rank 1
  EXPECT_DOUBLE_EQ(hist_quantile(b, 0.5), 5.5);    // rank 2 of 4
  EXPECT_DOUBLE_EQ(hist_quantile(b, 1.0), 7.0);    // rank 4: bucket's top
  EXPECT_DOUBLE_EQ(hist_quantile(b, 2.0), 7.0);    // clamped to q = 1
  EXPECT_DOUBLE_EQ(hist_quantile(b, -1.0), 4.75);  // clamped to q = 0
  b[3] = 0;

  // Overflow tail: the last bucket has no upper edge, so a quantile landing
  // there reports the bucket's lower bound — a floor, never an invention.
  b[kHistBuckets - 1] = 3;
  const double tail_lo =
      static_cast<double>(std::uint64_t{1} << (kHistBuckets - 2));
  EXPECT_DOUBLE_EQ(hist_quantile(b, 0.5), tail_lo);
  EXPECT_DOUBLE_EQ(hist_quantile(b, 1.0), tail_lo);
  b[kHistBuckets - 1] = 0;

  // Mass split across buckets: the rank walk crosses cumulative counts.
  b[0] = 1;  // one sample of value 0
  b[1] = 1;  // one sample of value 1
  EXPECT_DOUBLE_EQ(hist_quantile(b, 0.5), 0.0);  // rank 1 is the zero
  EXPECT_DOUBLE_EQ(hist_quantile(b, 1.0), 1.0);  // rank 2 is the one
}

// merge_from is the daemon's fold of a finished session registry into its
// lifetime registry: counters and histogram mass accumulate exactly, gauges
// (set-once run facts) stay untouched.
TEST(Obs, MergeFromAccumulatesCountersAndHistsNotGauges) {
  ObsRegistry session;
  session.add(Ctr::PpsfpEvents, 5);
  session.add(Ctr::PodemCalls, 2);
  session.observe(Hist::PodemDecisionDepth, 0);
  session.observe(Hist::PodemDecisionDepth, 6);
  session.set_gauge(Gauge::Jobs, 8);

  ObsRegistry daemon;
  daemon.set_gauge(Gauge::Jobs, 1);
  daemon.merge_from(session);
  daemon.merge_from(session);  // two identical sessions
  EXPECT_EQ(daemon.total(Ctr::PpsfpEvents), 10u);
  EXPECT_EQ(daemon.total(Ctr::PodemCalls), 4u);
  const auto b = daemon.hist_total(Hist::PodemDecisionDepth);
  EXPECT_EQ(b[0], 2u);                       // two zeros
  EXPECT_EQ(b[ObsRegistry::bucket(6)], 2u);  // two sixes
  EXPECT_EQ(daemon.hist_sum(Hist::PodemDecisionDepth), 12u);
  EXPECT_EQ(daemon.gauge(Gauge::Jobs), 1);  // not merged
}

}  // namespace
}  // namespace fsct

// The statistics-aware bench harness: aggregation math, the fsct-bench-v2
// round trip (plus the v1 shim for legacy BENCH_*.json files), noise-aware
// compare exit codes, and the long-run visibility machinery (heartbeat,
// SIGUSR1 status dumps) — including the promise that a status dump never
// perturbs the monitored run.
#include "core/bench_harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_circuits/paper_examples.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "scan/tpi.h"

namespace fsct {
namespace {

TEST(Bench, MedianMadAggregation) {
  const BenchStat s = summarize_samples({3.0, 1.0, 2.0, 10.0, 2.5});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // deviations: {0.5, 1.5, 0.5, 7.5, 0} -> sorted {0, 0.5, 0.5, 1.5, 7.5}
  EXPECT_DOUBLE_EQ(s.mad, 0.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);

  const BenchStat even = summarize_samples({4.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 3.0);
  EXPECT_DOUBLE_EQ(even.mad, 1.0);

  const BenchStat empty = summarize_samples({});
  EXPECT_DOUBLE_EQ(empty.median, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

/// A one-row document with the given s2 wall stats (seconds).
BenchDocument doc_with(double median, double mad,
                       const std::string& circuit = "s1488") {
  BenchDocument d;
  BenchRow row;
  row.circuit = circuit;
  row.jobs = 1;
  BenchPhase p;
  p.name = "s2";
  p.wall.median = p.wall.min = p.wall.max = median;
  p.wall.mad = mad;
  row.phases.push_back(p);
  d.rows.push_back(std::move(row));
  return d;
}

TEST(Bench, CompareFlagsTrueRegression) {
  // 1.0s -> 1.5s with tiny MAD: beyond every noise component.
  const CompareReport rep =
      compare_bench(doc_with(1.0, 0.001), doc_with(1.5, 0.001));
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_TRUE(rep.deltas[0].regression);
  EXPECT_EQ(rep.deltas[0].circuit, "s1488");
  EXPECT_EQ(rep.deltas[0].phase, "s2");
  EXPECT_EQ(rep.exit_code(), 1);

  std::ostringstream os;
  print_compare_report(os, rep);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(os.str().find("s1488"), std::string::npos);
  EXPECT_NE(os.str().find("s2"), std::string::npos);
}

TEST(Bench, CompareWithinNoiseJitter) {
  // +8% is inside the 10% relative threshold.
  EXPECT_EQ(compare_bench(doc_with(1.0, 0.0), doc_with(1.08, 0.0)).exit_code(),
            0);
  // +20% but the old run was noisy (MAD 0.1 -> 3*MAD = 0.3 window).
  EXPECT_EQ(compare_bench(doc_with(1.0, 0.1), doc_with(1.2, 0.0)).exit_code(),
            0);
  // Sub-millisecond phases can double without tripping the 5 ms floor.
  EXPECT_EQ(
      compare_bench(doc_with(0.001, 0.0), doc_with(0.004, 0.0)).exit_code(),
      0);
  // An *improvement* beyond the noise is informational, never an error.
  const CompareReport faster =
      compare_bench(doc_with(1.0, 0.0), doc_with(0.5, 0.0));
  EXPECT_EQ(faster.exit_code(), 0);
  EXPECT_TRUE(faster.deltas[0].improvement);
}

TEST(Bench, CompareMissingCircuitMismatch) {
  // Same circuit missing from the new doc -> structural mismatch, exit 2,
  // even when nothing regressed.
  const CompareReport rep =
      compare_bench(doc_with(1.0, 0.0), doc_with(1.0, 0.0, "s5378"));
  EXPECT_FALSE(rep.has_regression());
  ASSERT_EQ(rep.mismatches.size(), 2u);  // one per direction
  EXPECT_EQ(rep.exit_code(), 2);
  std::ostringstream os;
  print_compare_report(os, rep);
  EXPECT_NE(os.str().find("MISMATCH"), std::string::npos);
}

TEST(Bench, CompareNotesOneSidedCounters) {
  // A counter one build has and the other lacks (say, a retired one) is
  // named in a note both ways; it never gates.
  BenchDocument old_doc = doc_with(1.0, 0.0);
  old_doc.rows[0].counters = {{"podem_calls", 7}, {"retired", 3}};
  BenchDocument new_doc = doc_with(1.0, 0.0);
  new_doc.rows[0].counters = {{"podem_calls", 9}, {"added", 1}};
  const CompareReport rep = compare_bench(old_doc, new_doc);
  EXPECT_EQ(rep.exit_code(), 0);
  EXPECT_TRUE(rep.mismatches.empty());
  const auto noted = [&](const std::string& text) {
    for (const std::string& n : rep.notes) {
      if (n.find(text) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(noted("counter podem_calls: 7 -> 9"));
  EXPECT_TRUE(noted("counter retired present in old, missing in new"));
  EXPECT_TRUE(noted("counter added present in new, missing in old"));
}

TEST(Bench, MismatchOutranksRegression) {
  BenchDocument new_doc = doc_with(9.0, 0.0);  // clear regression...
  new_doc.rows.push_back(doc_with(1.0, 0.0, "extra").rows[0]);  // ...+ extra
  const CompareReport rep = compare_bench(doc_with(1.0, 0.0), new_doc);
  EXPECT_TRUE(rep.has_regression());
  EXPECT_EQ(rep.exit_code(), 2);
}

TEST(Bench, MalformedJsonHasLineAnchor) {
  const std::string bad = "{\n  \"schema\": \"fsct-bench-v2\",\n  oops\n}\n";
  try {
    parse_bench_document(bad, "bad.json");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.json: line 3:"),
              std::string::npos)
        << e.what();
  }
}

TEST(Bench, UnsupportedSchemaRejected) {
  const std::string other =
      "{\n  \"schema\": \"fsct-bench-v99\",\n  \"rows\": []\n}\n";
  try {
    parse_bench_document(other, "future.json");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unsupported bench schema"), std::string::npos);
    EXPECT_NE(msg.find("line 2"), std::string::npos);
  }
}

TEST(Bench, V1ShimReadsLegacyBaseline) {
  // The legacy shapes carry no "fsct-bench-v2" marker and are refused with
  // the schema error, anchored to the file they came from.
  const char* kLegacy[][2] = {
      // The original BENCH_baseline.json shape: {"note", "rows": [...]}.
      {"BENCH_baseline.json", R"({
        "note": "seed baseline",
        "rows": [{"circuit": "s1488", "jobs": 1,
                  "phase_seconds": {"classify": 0.01, "s2": 0.2}}]
      })"},
      // The bare row array the table benches once wrote.
      {"rows.json", R"([{"circuit": "s953", "jobs": 4,
                         "phase_seconds": {"s2": 1.5}}])"},
  };
  for (const auto& [name, text] : kLegacy) {
    try {
      parse_bench_document(text, name);
      FAIL() << "expected BenchParseError for " << name;
    } catch (const BenchParseError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unsupported bench schema"), std::string::npos)
          << msg;
      EXPECT_EQ(msg.rfind(name, 0), 0u) << msg;
    }
  }
}

TEST(Bench, LabelValidation) {
  EXPECT_TRUE(valid_bench_label("baseline"));
  EXPECT_TRUE(valid_bench_label("pr-12_rc.2"));
  EXPECT_FALSE(valid_bench_label(""));
  EXPECT_FALSE(valid_bench_label("has space"));
  EXPECT_FALSE(valid_bench_label("a/b"));      // would escape the directory
  EXPECT_FALSE(valid_bench_label("semi;rm"));  // shell metacharacters
}

TEST(Bench, MachineFingerprint) {
  const BenchMachine m = fingerprint_machine();
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.os.empty());
  EXPECT_FALSE(m.sanitizer.empty());
  EXPECT_FALSE(m.governor.empty());
  EXPECT_FALSE(m.git_sha.empty());
}

TEST(Bench, RunTinyCircuitRoundTrips) {
  BenchRunConfig cfg;
  cfg.label = "test";
  cfg.circuits = {"s1488"};
  cfg.reps = 2;
  cfg.warmup = 0;
  cfg.jobs = {1};
  int progress_lines = 0;
  cfg.progress = [&](const std::string&) { ++progress_lines; };

  const BenchDocument doc = run_bench(cfg);
  EXPECT_EQ(progress_lines, 2);
  ASSERT_EQ(doc.rows.size(), 1u);
  const BenchRow& row = doc.rows[0];
  EXPECT_EQ(row.circuit, "s1488");
  EXPECT_EQ(row.jobs, 1u);
  EXPECT_EQ(row.reps, 2);
  ASSERT_EQ(row.phases.size(), 4u);
  EXPECT_EQ(row.phases.back().name, "total");
  EXPECT_GT(row.phases.back().wall.median, 0.0);
  EXPECT_TRUE(row.phases.back().has_cpu);
  EXPECT_GE(row.phases.back().wall.max, row.phases.back().wall.min);
  EXPECT_FALSE(row.counters.empty());
  EXPECT_FALSE(row.results.empty());
#ifdef __linux__
  EXPECT_GT(row.peak_rss_kb, 0);
#endif

  // Serialize -> parse -> identical structure; self-compare is clean.
  const std::string json = write_bench_json(doc);
  const BenchDocument back = parse_bench_document(json, "roundtrip.json");
  EXPECT_EQ(back.label, "test");
  ASSERT_EQ(back.rows.size(), 1u);
  EXPECT_EQ(back.rows[0].phases.size(), row.phases.size());
  EXPECT_DOUBLE_EQ(back.rows[0].phases.back().wall.median,
                   row.phases.back().wall.median);
  EXPECT_EQ(back.rows[0].counters, row.counters);
  EXPECT_EQ(back.machine.compiler, doc.machine.compiler);
  EXPECT_EQ(compare_bench(doc, back).exit_code(), 0);
}

TEST(Bench, RunWithAttributionKeepsCountersIdentical) {
  BenchRunConfig cfg;
  cfg.label = "attr";
  cfg.circuits = {"s1488"};
  cfg.reps = 1;
  cfg.warmup = 0;
  cfg.jobs = {2};
  const BenchDocument off = run_bench(cfg);
  cfg.attribution = true;
  const BenchDocument on = run_bench(cfg);
  ASSERT_EQ(off.rows.size(), 1u);
  ASSERT_EQ(on.rows.size(), 1u);
  // The ledger is pure observation: the deterministic counters and results
  // are unchanged whether it is charging or not.
  EXPECT_EQ(off.rows[0].counters, on.rows[0].counters);
  EXPECT_EQ(off.rows[0].results, on.rows[0].results);
}

TEST(Bench, RunRejectsUnknownCircuit) {
  BenchRunConfig cfg;
  cfg.circuits = {"not-a-circuit"};
  EXPECT_THROW(run_bench(cfg), std::invalid_argument);
}

/// Collects monitor output lines thread-safely.
struct SinkLines {
  std::mutex m;
  std::vector<std::string> lines;
  std::function<void(const std::string&)> sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(m);
      lines.push_back(line);
    };
  }
  bool any_contains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(m);
    for (const std::string& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

TEST(Bench, MonitorHeartbeatEmitsLines) {
  ObsRegistry reg;
  ObsRegistry* prev = set_status_registry(&reg);
  reg.begin_phase("step2.atpg", 100);
  reg.phase_tick(25);
  SinkLines out;
  {
    ObsMonitor::Options mopt;
    mopt.poll_ms = 5;
    mopt.heartbeat = true;
    mopt.heartbeat_ms = 10;
    mopt.sink = out.sink();
    const ObsMonitor monitor(mopt);
    for (int i = 0; i < 100 && !out.any_contains("heartbeat"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  reg.end_phase();
  set_status_registry(prev);
  EXPECT_TRUE(out.any_contains("heartbeat"));
  EXPECT_TRUE(out.any_contains("phase=step2.atpg"));
  EXPECT_TRUE(out.any_contains("done=25/100"));
}

TEST(Bench, HeartbeatCarriesRunContext) {
  // What run_bench sets per repetition: the context labels every heartbeat
  // so a long multi-circuit bench is attributable mid-flight.
  ObsRegistry reg;
  reg.set_context("s1488 jobs=2 rep 3/5");
  ObsRegistry* prev = set_status_registry(&reg);
  reg.begin_phase("classify", 10);
  SinkLines out;
  {
    ObsMonitor::Options mopt;
    mopt.poll_ms = 5;
    mopt.heartbeat = true;
    mopt.heartbeat_ms = 10;
    mopt.sink = out.sink();
    const ObsMonitor monitor(mopt);
    for (int i = 0; i < 100 && !out.any_contains("heartbeat"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  reg.end_phase();
  set_status_registry(prev);
  EXPECT_TRUE(out.any_contains("[s1488 jobs=2 rep 3/5]"));
}

TEST(Bench, Sigusr1StatusDump) {
#ifdef SIGUSR1
  install_sigusr1_handler();
  ObsRegistry reg;
  ObsRegistry* prev = set_status_registry(&reg);
  reg.begin_phase("step3.groups", 8);
  reg.phase_tick(3);
  reg.add(Ctr::PodemCalls, 42);
  SinkLines out;
  {
    ObsMonitor::Options mopt;
    mopt.poll_ms = 5;
    mopt.sink = out.sink();
    const ObsMonitor monitor(mopt);
    std::raise(SIGUSR1);
    for (int i = 0; i < 200 && !out.any_contains("end status"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  reg.end_phase();
  set_status_registry(prev);
  EXPECT_TRUE(out.any_contains("=== fsct status ==="));
  EXPECT_TRUE(out.any_contains("step3.groups"));
  EXPECT_TRUE(out.any_contains("=== end status ==="));
#else
  GTEST_SKIP() << "no SIGUSR1 on this platform";
#endif
}

TEST(Bench, StatusDumpDoesNotPerturbResults) {
  // Reference run, unmonitored.
  Netlist nl = small_pipeline();
  const ScanDesign design = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, design);
  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.jobs = 2;
  const PipelineResult ref = run_fsct_pipeline(model, faults, opt);

  // Monitored run: heartbeat at maximum rate plus concurrent status dumps
  // hammering the live registry while the pipeline works.
  ObsRegistry reg;
  opt.obs = &reg;
  SinkLines out;
  ObsMonitor::Options mopt;
  mopt.poll_ms = 1;
  mopt.heartbeat = true;
  mopt.heartbeat_ms = 1;
  mopt.sink = out.sink();
  ObsMonitor monitor(mopt);
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load()) monitor.dump_now();
  });
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);
  stop.store(true);
  dumper.join();

  // Bitwise-identical outcome: observation is read-only.
  EXPECT_EQ(r.outcome, ref.outcome);
  EXPECT_EQ(r.vectors, ref.vectors);
  EXPECT_EQ(r.s2_detected, ref.s2_detected);
  EXPECT_EQ(r.s3_detected, ref.s3_detected);
  EXPECT_EQ(r.detection_curve, ref.detection_curve);
}

}  // namespace
}  // namespace fsct

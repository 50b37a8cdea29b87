// fsct — command-line front end for the functional-scan-chain-testing
// library.  The workflows a test engineer actually runs:
//
//   fsct stats    <circuit.bench>
//       structural statistics of a netlist.
//
//   fsct scan     <circuit.bench> [--chains N] [--partial permille]
//                 [-o scanned.bench]
//       insert a TPI functional scan chain, report the overhead, optionally
//       write the scanned netlist.
//
//   fsct test     <circuit.bench|suite name> [--chains N]
//                 [--partial permille] [--jobs N] [--simd-width W]
//                 [-o program.fsct]
//                 [--checkpoint F] [--checkpoint-interval MS] [--resume F]
//                 [--trace t.json] [--metrics m.json] [--profile p.json]
//                 [--folded p.folded] [--metrics-out m.prom] [-v]
//                 (alias: fsct run)
//       full flow: TPI + three-step screening pipeline; prints the paper's
//       Table-2/3 style summary and (with -o) writes the complete chain test
//       program (flush + vectors + verified sequential tests) plus the
//       scanned netlist it applies to (<out>.bench).  A suite name screens
//       the suite entry's design, at its chain count unless --chains is
//       given.  --trace writes a
//       Chrome trace-event JSON of the run, --metrics a structured JSON run
//       report, --profile a per-fault work-attribution hotspot profile
//       (fsct-profile-v1), --folded flamegraph folded stacks, --metrics-out
//       an OpenMetrics text exposition, -v streams per-phase progress to
//       stderr.
//
//   fsct profile  <profile.json|report.json> [--top K]
//       render a saved hotspot profile (or the attribution section of a
//       fsct-run-report-v2) as the hardest-fault table.
//
//   fsct replay   <program.fsct> <circuit.bench> [--fault NET 0|1]
//       run a test program against a (possibly faulty) device; exit status 1
//       when strobes mismatch.
//
//   fsct diagnose <circuit.bench> --fault NET 0|1 [--chains N]
//       inject a defect, apply the flush + marker loads, and rank suspects.
//
//   fsct selftest
//       end-to-end smoke test on the embedded ISCAS'89 s27.
//
//   fsct fuzz     [--seed S] [--iters N] [--offset K] [--oracles LIST]
//                 [--max-gates N] [--max-ffs N] [--jobs N] [--no-shrink]
//                 [-o DIR] | [--corpus DIR]
//       differential fuzzing of the library against itself (see
//       core/selfcheck.h); --corpus replays checked-in minimized repros.
//
//   fsct bench run [circuit ...] [--label L] [--reps N] [--warmup N]
//                  [--jobs N|N,M,...] [--max-gates N] [-o FILE]
//                  [--progress] [-v]
//       statistics-aware benchmark over the paper suite: warmup + N timed
//       repetitions per (circuit, jobs) point, median/MAD summaries, machine
//       fingerprint; writes BENCH_<label>.json (fsct-bench-v2).
//
//   fsct bench compare <old.json> <new.json> [--rel-threshold P] [--mad-k K]
//       noise-aware diff of two bench documents; exit 1 on regression,
//       2 on structural mismatch or malformed input.
//
//   fsct serve    --socket PATH | --port N [--workers N] [--queue N]
//                 [--cache-mb N] [--http-port N | --http-socket PATH]
//                 [--request-log FILE] [-v]
//       long-running screening daemon: newline-delimited JSON requests over
//       a Unix-domain or loopback-TCP socket, compiled-circuit and result
//       caches, bounded priority queue with backpressure, per-session
//       progress streaming, graceful drain on SIGTERM (see src/serve/).
//       --http-port/--http-socket mount the observability plane (/metrics,
//       /healthz, /readyz, /statusz); --request-log appends one NDJSON line
//       per request (id, circuit hash, cache outcomes, phase latencies).
//
//   fsct stat     --socket PATH | --port N | http://127.0.0.1:N
//       scrape a running daemon's /metrics + /statusz and render a
//       one-screen status: uptime, queue, caches, latency quantiles,
//       in-flight sessions.
//
// Long runs: every pipeline-running command accepts SIGUSR1 and prints a
// live status dump (phase progress, worker stats, RSS, counters) without
// disturbing the run; --progress adds a periodic heartbeat line with ETA.
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "bench_circuits/paper_examples.h"
#include "bench_circuits/suite.h"
#include "core/bench_harness.h"
#include "core/checkpoint.h"
#include "core/diagnose.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/profile.h"
#include "core/selfcheck.h"
#include "core/test_export.h"
#include "core/json.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "scan/tpi.h"
#include "serve/http.h"
#include "serve/net.h"
#include "serve/serve.h"
#include "sim/soa_circuit.h"

namespace {

using namespace fsct;

/// Thrown for command-line mistakes; main() prints it to stderr, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  std::optional<int> chains;  // --chains; unset = the design's default
  int partial = 1000;
  int jobs = 0;  // 0 = one executor per hardware thread
  int simd_width = 0;  // 0 = build-time default (FSCT_SIMD_WIDTH)
  std::string out;
  std::string fault_net;
  int fault_value = -1;
  std::string trace_path;    // --trace: Chrome trace-event JSON
  std::string metrics_path;  // --metrics: structured run report JSON
  std::string profile_path;  // --profile: fsct-profile-v1 hotspot JSON
  std::string folded_path;   // --folded: flamegraph folded-stack lines
  std::string metrics_out;   // --metrics-out: OpenMetrics text exposition
  int trace_max_mb = 0;      // --trace-max-mb: trace buffer cap, 0 = unbounded
  int top = 20;              // --top: hotlist size for profile output
  bool attribution = false;  // --attribution: per-fault ledger, no profile
  bool verbose = false;      // -v: per-phase progress on stderr
  bool progress = false;     // --progress: heartbeat lines on stderr
  bool no_dominance = false; // --no-dominance: plain target order, no credit
  // --checkpoint F, --checkpoint-interval MS, --resume F (test)
  CheckpointOptions ckpt;
  // bench
  std::string label = "run";
  std::string note;
  int reps = 5;
  int warmup = 1;
  double rel_threshold = 0.10;
  double mad_k = 3.0;
  std::vector<int> jobs_list;  // --jobs N,M,... (bench run only)
  bool max_gates_set = false;
  // fuzz
  std::uint64_t seed = 1;
  int iters = 100;
  int offset = 0;
  int max_gates = 70;
  int max_ffs = 10;
  std::string oracles = "all";
  bool no_shrink = false;
  std::string corpus;
  // serve / stat
  std::string serve_socket;  // --socket: Unix-domain socket path
  int serve_port = -1;       // --port: loopback TCP port (0 = ephemeral)
  int workers = 1;           // --workers: concurrent screening sessions
  int queue_limit = 16;      // --queue: queued requests beyond in-flight
  int cache_mb = 256;        // --cache-mb: compiled-model cache budget
  std::string http_socket;   // --http-socket: observability HTTP unix socket
  int http_port = -1;        // --http-port: observability HTTP TCP port
  std::string request_log;   // --request-log: NDJSON request log file
};

/// Checked integer parse: the whole token must be a number and it must land
/// in [lo, hi].  std::atoi would silently turn "banana" into 0.
long long parse_int(const std::string& flag, const char* text, long long lo,
                    long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    throw UsageError(flag + ": invalid integer '" + text + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw UsageError(flag + ": value " + text + " out of range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Checked floating-point parse for threshold flags.
double parse_double(const std::string& flag, const char* text, double lo,
                    double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    throw UsageError(flag + ": invalid number '" + text + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw UsageError(flag + ": value " + text + " out of range");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  const bool bench_cmd = std::strcmp(argv[1], "bench") == 0;
  int i = 2;
  // Consumes the flag's operand; rejects a missing one ("fsct test --jobs").
  auto operand = [&](const std::string& flag) -> const char* {
    if (i + 1 >= argc) throw UsageError(flag + " requires a value");
    return argv[++i];
  };
  auto int_operand = [&](const std::string& flag, long long lo, long long hi) {
    return parse_int(flag, operand(flag), lo, hi);
  };
  for (; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--chains") {
      a.chains = static_cast<int>(int_operand(s, 1, 64));
    } else if (s == "--partial") {
      a.partial = static_cast<int>(int_operand(s, 0, 1000));
    } else if (s == "--jobs") {
      const std::string v = operand(s);
      if (bench_cmd && v.find(',') != std::string::npos) {
        // bench run sweeps several job counts: --jobs 1,4
        std::size_t start = 0;
        while (start <= v.size()) {
          const std::size_t comma = v.find(',', start);
          const std::string tok =
              v.substr(start, comma == std::string::npos ? comma
                                                         : comma - start);
          a.jobs_list.push_back(
              static_cast<int>(parse_int(s, tok.c_str(), 0, 4096)));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else {
        a.jobs = static_cast<int>(parse_int(s, v.c_str(), 0, 4096));
        a.jobs_list = {a.jobs};
      }
    } else if (s == "--simd-width") {
      a.simd_width = static_cast<int>(int_operand(s, 1, 4096));
      if (!is_valid_simd_width(a.simd_width)) {
        throw UsageError("--simd-width: expected 64, 256 or 512, got " +
                         std::to_string(a.simd_width));
      }
    } else if (s == "--label") {
      a.label = operand(s);
    } else if (s == "--note") {
      a.note = operand(s);
    } else if (s == "--reps") {
      a.reps = static_cast<int>(int_operand(s, 1, 1000));
    } else if (s == "--warmup") {
      a.warmup = static_cast<int>(int_operand(s, 0, 100));
    } else if (s == "--rel-threshold") {
      a.rel_threshold = parse_double(s, operand(s), 0.0, 100.0);
    } else if (s == "--mad-k") {
      a.mad_k = parse_double(s, operand(s), 0.0, 1000.0);
    } else if (s == "--progress") {
      a.progress = true;
    } else if (s == "-o") {
      a.out = operand(s);
    } else if (s == "--fault") {
      a.fault_net = operand(s);
      a.fault_value = static_cast<int>(int_operand("--fault value", 0, 1));
    } else if (s == "--trace") {
      a.trace_path = operand(s);
    } else if (s == "--metrics") {
      a.metrics_path = operand(s);
    } else if (s == "--profile") {
      a.profile_path = operand(s);
    } else if (s == "--folded") {
      a.folded_path = operand(s);
    } else if (s == "--metrics-out") {
      a.metrics_out = operand(s);
    } else if (s == "--trace-max-mb") {
      a.trace_max_mb = static_cast<int>(int_operand(s, 1, 65536));
    } else if (s == "--top") {
      a.top = static_cast<int>(int_operand(s, 1, 1000000));
    } else if (s == "--attribution") {
      a.attribution = true;
    } else if (s == "--seed") {
      a.seed = static_cast<std::uint64_t>(
          int_operand(s, 0, std::numeric_limits<long long>::max()));
    } else if (s == "--iters") {
      a.iters = static_cast<int>(int_operand(s, 1, 100000000));
    } else if (s == "--offset") {
      a.offset = static_cast<int>(int_operand(s, 0, 100000000));
    } else if (s == "--max-gates") {
      a.max_gates = static_cast<int>(int_operand(s, 15, 100000));
      a.max_gates_set = true;
    } else if (s == "--max-ffs") {
      a.max_ffs = static_cast<int>(int_operand(s, 2, 10000));
    } else if (s == "--oracles") {
      a.oracles = operand(s);
    } else if (s == "--socket") {
      a.serve_socket = operand(s);
    } else if (s == "--port") {
      a.serve_port = static_cast<int>(int_operand(s, 0, 65535));
    } else if (s == "--workers") {
      a.workers = static_cast<int>(int_operand(s, 1, 256));
    } else if (s == "--queue") {
      a.queue_limit = static_cast<int>(int_operand(s, 1, 100000));
    } else if (s == "--cache-mb") {
      a.cache_mb = static_cast<int>(int_operand(s, 1, 1 << 20));
    } else if (s == "--http-socket") {
      a.http_socket = operand(s);
    } else if (s == "--http-port") {
      a.http_port = static_cast<int>(int_operand(s, 0, 65535));
    } else if (s == "--request-log") {
      a.request_log = operand(s);
    } else if (s == "--checkpoint") {
      a.ckpt.path = operand(s);
    } else if (s == "--checkpoint-interval") {
      a.ckpt.interval_ms = static_cast<int>(int_operand(s, 0, 86400000));
    } else if (s == "--resume") {
      a.ckpt.resume_path = operand(s);
    } else if (s == "--no-shrink") {
      a.no_shrink = true;
    } else if (s == "--no-dominance") {
      a.no_dominance = true;
    } else if (s == "--corpus") {
      a.corpus = operand(s);
    } else if (s == "-v" || s == "--verbose") {
      a.verbose = true;
    } else if (!s.empty() && s[0] == '-' && s != "-") {
      throw UsageError("unknown option '" + s + "' (see 'fsct help')");
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

const std::string& positional(const Args& a, std::size_t k,
                              const char* what) {
  if (k >= a.positional.size()) {
    throw UsageError(std::string("missing ") + what + " operand");
  }
  return a.positional[k];
}

void require_unscanned(const Netlist& nl) {
  if (nl.find("scan_mode") != kNullNode) {
    throw std::runtime_error(
        "circuit already contains a scan_mode input — pass the pre-scan "
        "netlist (this command inserts the scan chain itself)");
  }
}

Fault find_fault(const Netlist& nl, const Args& a) {
  const NodeId n = nl.find(a.fault_net);
  if (n == kNullNode) {
    throw std::runtime_error("unknown net: " + a.fault_net);
  }
  return Fault{n, -1, a.fault_value != 0};
}

int cmd_stats(const Args& a) {
  const Netlist nl = read_bench_file(positional(a, 0, "<circuit.bench>"));
  std::printf("%s\n%s", nl.name().c_str(),
              stats_string(compute_stats(nl)).c_str());
  return 0;
}

int cmd_scan(const Args& a) {
  Netlist nl = read_bench_file(positional(a, 0, "<circuit.bench>"));
  require_unscanned(nl);
  TpiOptions topt;
  topt.num_chains = a.chains.value_or(1);
  topt.scan_permille = a.partial;
  TpiStats stats;
  const ScanDesign d = run_tpi(nl, topt, &stats);
  std::printf("%s: %d functional links, %d scan muxes, %d test points, "
              "%d pinned PIs\n",
              nl.name().c_str(), stats.functional_segments,
              stats.mux_segments, stats.test_points, stats.assigned_pis);
  for (std::size_t c = 0; c < d.chains.size(); ++c) {
    std::printf("chain %zu: scan_in=%s length=%zu scan_out=%s\n", c,
                nl.node_name(d.chains[c].scan_in).c_str(),
                d.chains[c].length(),
                nl.node_name(d.chains[c].scan_out()).c_str());
  }
  if (!a.out.empty()) {
    std::ofstream os(a.out);
    write_bench(os, nl);
    std::printf("wrote %s\n", a.out.c_str());
  }
  return 0;
}

/// A circuit operand and the number of scan chains its design gets by
/// default.
struct LoadedCircuit {
  Netlist nl;
  int chains = 1;
};

/// Resolves a circuit operand: an existing .bench file wins (one chain);
/// otherwise a paper-suite name ("s1423") builds the synthetic stand-in with
/// the suite entry's chain count, the same design `fsct bench run` screens.
LoadedCircuit load_circuit(const std::string& arg) {
  if (!std::filesystem::exists(arg)) {
    try {
      const SuiteEntry& e = suite_entry(arg);
      return {build_suite_circuit(e), e.chains};
    } catch (const std::exception&) {
      // Not a suite name either: fall through to the file error below,
      // which names the path the user asked for.
    }
  }
  return {read_bench_file(arg)};
}

int cmd_test(const Args& a) {
  LoadedCircuit circuit = load_circuit(positional(a, 0, "<circuit.bench>"));
  Netlist& nl = circuit.nl;
  require_unscanned(nl);
  TpiOptions topt;
  topt.num_chains = a.chains.value_or(circuit.chains);
  topt.scan_permille = a.partial;
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  if (const std::string err = model.check(); !err.empty()) {
    std::printf("scan-mode invariant violated: %s\n", err.c_str());
    return 2;
  }
  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.verify_easy = true;
  opt.jobs = a.jobs;
  opt.simd_width = a.simd_width;
  opt.dominance = !a.no_dominance;

  ObsRegistry reg;
  // --profile / --folded imply the attribution ledger; the phase breakdown in
  // the profile additionally needs trace spans.
  const bool want_profile =
      !a.profile_path.empty() || !a.folded_path.empty();
  const bool want_attr = a.attribution || want_profile;
  const bool want_obs = !a.trace_path.empty() || !a.metrics_path.empty() ||
                        !a.metrics_out.empty() || want_attr || a.verbose ||
                        a.progress;
  if (want_obs) {
    opt.obs = &reg;
    reg.enable_trace(!a.trace_path.empty() || want_profile);
    if (a.trace_max_mb) {
      reg.set_trace_limit_bytes(static_cast<std::size_t>(a.trace_max_mb) *
                                1024 * 1024);
    }
    if (want_attr) reg.request_attribution();
    reg.set_context(nl.name());
    if (a.verbose) {
      reg.progress = [](const std::string& line) {
        std::fprintf(stderr, "[fsct] %s\n", line.c_str());
      };
    }
  }
  install_sigusr1_handler();
  ObsMonitor::Options mopt;
  mopt.heartbeat = a.progress;
  PipelineResult r;
  try {
    const ObsMonitor monitor(mopt);  // SIGUSR1 dumps; heartbeat on --progress
    if (!a.ckpt.path.empty() || !a.ckpt.resume_path.empty()) {
      r = run_checkpointed_pipeline(model, faults, opt, a.ckpt);
    } else {
      r = run_fsct_pipeline(model, faults, opt);
    }
  } catch (const PipelineStopped& e) {  // only a checkpointing run stops
    std::fprintf(stderr,
                 "fsct test: %s\nfsct test: checkpoint written to %s — "
                 "resume with --resume %s\n",
                 e.what(), a.ckpt.path.c_str(), a.ckpt.path.c_str());
    return 3;
  }

  if (!a.trace_path.empty()) {
    std::ofstream ts(a.trace_path);
    if (!ts) throw std::runtime_error("cannot open " + a.trace_path);
    reg.write_trace(ts);
    std::printf("wrote trace %s (%zu spans)\n", a.trace_path.c_str(),
                reg.trace_event_count());
  }
  AttrContext actx;
  if (want_attr) actx = make_attr_context(lv, faults, !a.no_dominance);
  if (!a.metrics_path.empty()) {
    std::ofstream ms(a.metrics_path);
    if (!ms) throw std::runtime_error("cannot open " + a.metrics_path);
    reg.write_run_report(ms, r, want_attr ? &actx : nullptr);
    std::printf("wrote metrics %s\n", a.metrics_path.c_str());
  }
  if (!a.metrics_out.empty()) {
    std::ofstream os(a.metrics_out);
    if (!os) throw std::runtime_error("cannot open " + a.metrics_out);
    reg.write_openmetrics(os);
    std::printf("wrote OpenMetrics %s\n", a.metrics_out.c_str());
  }
  if (want_profile) {
    const ProfileDoc doc = build_profile(reg, actx, nl.name(),
                                         static_cast<std::size_t>(a.top));
    if (!a.profile_path.empty()) {
      std::ofstream ps(a.profile_path);
      if (!ps) throw std::runtime_error("cannot open " + a.profile_path);
      write_profile_json(ps, doc);
      std::printf("wrote profile %s (%zu active faults)\n",
                  a.profile_path.c_str(), doc.active);
    }
    if (!a.folded_path.empty()) {
      std::ofstream fs(a.folded_path);
      if (!fs) throw std::runtime_error("cannot open " + a.folded_path);
      write_folded(fs, doc);
      std::printf("wrote folded stacks %s (%zu phase nodes)\n",
                  a.folded_path.c_str(), doc.phases.size());
    }
  }

  std::printf("jobs: %u | classify %.3fs | step 2 %.3fs | step 3 %.3fs\n",
              r.jobs_used, r.classify_seconds, r.s2_seconds, r.s3_seconds);
  if (!a.ckpt.resume_path.empty()) {
    std::printf("resumed from checkpoint %s\n", a.ckpt.resume_path.c_str());
  }
  std::printf("%zu faults | affecting %zu (%.1f%%) | easy %zu (verified %zu) "
              "| hard %zu\n",
              r.total_faults, r.affecting(),
              100.0 * static_cast<double>(r.affecting()) /
                  static_cast<double>(r.total_faults ? r.total_faults : 1),
              r.easy, r.easy_verified, r.hard);
  if (!a.no_dominance) {
    std::printf("dominance: %zu targets, %zu flush-credited, "
                "%zu ledger-dropped\n",
                r.dominance_targets, r.flush_detected, r.ledger_dropped);
  }
  std::printf("step 2: %zu detected with %zu vectors, %zu undetectable\n",
              r.s2_detected, r.s2_vectors, r.s2_undetectable);
  std::printf("step 3: %zu detected, %zu undetectable, %zu undetected "
              "(%zu+%zu circuit models)\n",
              r.s3_detected, r.s3_undetectable, r.s3_undetected,
              r.s3_circuits_group, r.s3_circuits_final);

  if (!a.out.empty()) {
    const auto t_export = std::chrono::steady_clock::now();
    const TestProgram p = make_chain_test_program(model, r);
    const double export_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t_export)
                                .count();
    std::ofstream os(a.out);
    write_test_program(os, p);
    // The program runs on the *scanned* device: ship that netlist alongside.
    std::ofstream bos(a.out + ".bench");
    write_bench(bos, nl);
    std::printf("wrote %s (%zu cycles, export %.3fs) and %s.bench\n",
                a.out.c_str(), p.stimulus.size(), export_s, a.out.c_str());
  }
  return r.s3_undetected == 0 ? 0 : 1;
}

int cmd_replay(const Args& a) {
  const std::string& prog = positional(a, 0, "<program.fsct>");
  const std::string& bench = positional(a, 1, "<circuit.bench>");
  std::ifstream is(prog);
  if (!is) throw std::runtime_error("cannot open " + prog);
  const TestProgram p = read_test_program(is);
  const Netlist nl = read_bench_file(bench);
  const Levelizer lv(nl);
  std::size_t mismatches;
  if (!a.fault_net.empty()) {
    const Fault f = find_fault(nl, a);
    mismatches = run_test_program(lv, p, &f);
    std::printf("with %s: ", fault_name(nl, f).c_str());
  } else {
    mismatches = run_test_program(lv, p);
  }
  std::printf("%zu strobe mismatches -> %s\n", mismatches,
              mismatches ? "FAIL" : "PASS");
  return mismatches ? 1 : 0;
}

int cmd_diagnose(const Args& a) {
  Netlist nl = read_bench_file(positional(a, 0, "<circuit.bench>"));
  require_unscanned(nl);
  TpiOptions topt;
  topt.num_chains = a.chains.value_or(1);
  const ScanDesign d = run_tpi(nl, topt);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  const Fault defect = find_fault(nl, a);

  const ScanSequenceBuilder& sb = model.sequences();
  TestSequence seq = sb.alternating(model.flush_cycles());
  std::mt19937_64 rng(7);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Val>> marker(d.chains.size());
    for (std::size_t c = 0; c < d.chains.size(); ++c) {
      marker[c].resize(d.chains[c].length());
      for (auto& v : marker[c]) v = (rng() & 1) ? Val::One : Val::Zero;
    }
    const TestSequence load = sb.load_state(marker);
    seq.insert(seq.end(), load.begin(), load.end());
    for (std::size_t i = 0; i < model.observe_cycles(); ++i) {
      seq.push_back(sb.base_vector(Val::Zero));
    }
  }
  ChainDiagnoser diag(model);
  const ObservedResponse obs = diag.make_response(seq, defect);
  const auto faults = collapsed_fault_list(nl);
  const auto ranked = diag.diagnose(obs, faults, 8);
  std::printf("%-4s %-30s %-10s %-12s\n", "#", "suspect", "explained",
              "contradicts");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    std::printf("%-4zu %-30s %-10d %-12d%s\n", i + 1,
                fault_name(nl, ranked[i].fault).c_str(), ranked[i].explained,
                ranked[i].contradictions,
                ranked[i].fault == defect ? "  <-- injected" : "");
  }
  return 0;
}

int cmd_selftest() {
  // End-to-end on the embedded s27: scan, test, export, replay, diagnose.
  Netlist nl = iscas_s27();
  const ScanDesign d = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, d);
  if (!model.check().empty()) return 1;
  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);
  if (r.easy_verified != r.easy || r.s3_undetected != 0) return 1;

  const TestProgram p = make_chain_test_program(model, r);
  if (run_test_program(lv, p) != 0) return 1;
  std::size_t covered = 0, killed = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultOutcome o = r.outcome[i];
    if (o == FaultOutcome::EasyAlternating ||
        o == FaultOutcome::DetectedFlush || o == FaultOutcome::DetectedComb ||
        o == FaultOutcome::DetectedSeq || o == FaultOutcome::DetectedFinal) {
      ++covered;
      killed += (run_test_program(lv, p, &faults[i]) > 0);
    }
  }
  std::printf("selftest: %zu/%zu covered faults killed by the program\n",
              killed, covered);
  return killed == covered ? 0 : 1;
}

/// Replays every minimized .bench repro in `dir` through all the oracles in
/// both scan styles (a fixed spread of check seeds); these are the bugs the
/// fuzzer has found historically, kept as cheap regressions.
int run_corpus(const Args& a) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& ent : fs::directory_iterator(a.corpus)) {
    if (ent.path().extension() == ".bench") files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "fuzz: no .bench files under %s\n",
                 a.corpus.c_str());
    return 2;
  }
  int bad = 0;
  for (const fs::path& f : files) {
    const Netlist nl = read_bench_file(f.string());
    std::string diag;
    for (int style = 0; style < 2 && diag.empty(); ++style) {
      for (std::uint64_t cs : {1ull, 7ull, 1234567ull}) {
        SelfcheckConfig cfg;
        cfg.oracles = parse_oracle_mask(a.oracles);
        cfg.use_tpi = style == 0;
        cfg.jobs = a.jobs > 0 ? a.jobs : 4;
        cfg.check_seed = cs;
        diag = selfcheck_circuit(nl, cfg);
        if (!diag.empty()) break;
      }
    }
    if (diag.empty()) {
      std::printf("corpus %-40s OK\n", f.filename().c_str());
    } else {
      std::printf("corpus %-40s FAIL: %s\n", f.filename().c_str(),
                  diag.c_str());
      ++bad;
    }
  }
  std::printf("corpus: %zu circuits, %d failing\n", files.size(), bad);
  return bad ? 1 : 0;
}

int cmd_fuzz(const Args& a) {
  if (!a.corpus.empty()) return run_corpus(a);

  FuzzOptions opt;
  opt.seed = a.seed;
  opt.iterations = a.iters;
  opt.offset = a.offset;
  opt.oracles = parse_oracle_mask(a.oracles);
  opt.jobs = a.jobs > 0 ? a.jobs : 4;
  opt.max_gates = a.max_gates;
  opt.max_ffs = a.max_ffs;
  opt.shrink = !a.no_shrink;
  if (a.verbose) {
    opt.progress = [](const std::string& line) {
      std::fprintf(stderr, "[fuzz] %s\n", line.c_str());
    };
  }
  const FuzzReport rep = run_fuzz(opt);

  std::printf("fuzz: %d iterations (seed %llu, offset %d), oracle runs:",
              rep.iterations, static_cast<unsigned long long>(a.seed),
              a.offset);
  for (std::size_t i = 0; i < kNumOracles; ++i) {
    std::printf(" %s=%llu", oracle_name(i),
                static_cast<unsigned long long>(rep.oracle_runs[i]));
  }
  std::printf(" parser-probes=%llu\n",
              static_cast<unsigned long long>(rep.parser_probes));

  for (const FuzzFailure& f : rep.failures) {
    std::printf("FAIL iteration %d: %s\n", f.iteration, f.diagnostic.c_str());
    std::printf("  scan style: %s, chains %d, permille %d, check seed %llu\n",
                f.config.use_tpi ? "tpi" : "mux", f.config.chains,
                f.config.scan_permille,
                static_cast<unsigned long long>(f.config.check_seed));
    std::printf("  repro: %s\n", f.repro.c_str());
    const std::string dir = a.out.empty() ? "." : a.out;
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/fuzz_min_" + std::to_string(f.iteration) + ".bench";
    std::ofstream os(path);
    os << write_bench_string(f.minimized);
    std::printf("  minimized circuit (%zu nodes): %s\n", f.minimized.size(),
                path.c_str());
  }
  std::printf("fuzz: %zu failure(s)\n", rep.failures.size());
  return rep.ok() ? 0 : 1;
}

int cmd_bench_run(const Args& a) {
  if (!valid_bench_label(a.label)) {
    throw UsageError("invalid label '" + a.label +
                     "' (allowed characters: A-Z a-z 0-9 . _ -)");
  }
  BenchRunConfig cfg;
  cfg.label = a.label;
  cfg.note = a.note;
  cfg.circuits.assign(a.positional.begin() + 1, a.positional.end());
  if (a.max_gates_set) cfg.max_gates = a.max_gates;
  if (!a.jobs_list.empty()) cfg.jobs = a.jobs_list;
  cfg.reps = a.reps;
  cfg.warmup = a.warmup;
  cfg.attribution = a.attribution;
  if (a.verbose || a.progress) {
    cfg.progress = [](const std::string& line) {
      std::fprintf(stderr, "[bench] %s\n", line.c_str());
    };
  }

  install_sigusr1_handler();
  BenchDocument doc;
  {
    ObsMonitor::Options mopt;
    mopt.heartbeat = a.progress;
    const ObsMonitor monitor(mopt);
    doc = run_bench(cfg);
  }
  for (const std::string& w : doc.warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }

  const std::string path =
      a.out.empty() ? "BENCH_" + a.label + ".json" : a.out;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << write_bench_json(doc);
  std::printf("wrote %s (%zu rows, %d reps + %d warmup)\n", path.c_str(),
              doc.rows.size(), doc.reps, doc.warmup);
  return 0;
}

int cmd_bench_compare(const Args& a) {
  const std::string& old_path = positional(a, 1, "<old.json>");
  const std::string& new_path = positional(a, 2, "<new.json>");
  const BenchDocument old_doc = read_bench_document(old_path);
  const BenchDocument new_doc = read_bench_document(new_path);
  CompareOptions copt;
  copt.rel_threshold = a.rel_threshold;
  copt.mad_k = a.mad_k;
  const CompareReport rep = compare_bench(old_doc, new_doc, copt);
  print_compare_report(std::cout, rep);
  return rep.exit_code();
}

int cmd_profile(const Args& a) {
  const std::string& path = positional(a, 0, "<profile.json|report.json>");
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  const ProfileDoc doc = parse_profile_json(ss.str(), path);
  print_profile(std::cout, doc, static_cast<std::size_t>(a.top));
  return 0;
}

int cmd_serve(const Args& a) {
  if (a.serve_socket.empty() && a.serve_port < 0) {
    throw UsageError("serve: pass --socket PATH or --port N");
  }
  if (!a.serve_socket.empty() && a.serve_port >= 0) {
    throw UsageError("serve: --socket and --port are mutually exclusive");
  }
  if (!a.http_socket.empty() && a.http_port >= 0) {
    throw UsageError(
        "serve: --http-socket and --http-port are mutually exclusive");
  }
  ServeOptions sopt;
  sopt.unix_path = a.serve_socket;
  sopt.tcp_port = a.serve_port;
  sopt.workers = a.workers;
  sopt.queue_limit = static_cast<std::size_t>(a.queue_limit);
  sopt.cache_mb = static_cast<std::size_t>(a.cache_mb);
  sopt.http_unix_path = a.http_socket;
  sopt.http_port = a.http_port;
  sopt.request_log_path = a.request_log;
  sopt.verbose = true;  // a daemon's lifecycle lines are ops, not chatter
  ServeServer server(sopt);
  if (a.serve_port >= 0) {
    std::printf("fsct serve: listening on 127.0.0.1:%d\n", server.port());
    std::fflush(stdout);
  }
  if (a.http_port >= 0) {
    std::printf("fsct serve: metrics on 127.0.0.1:%d\n", server.http_port());
    std::fflush(stdout);
  }
  // SIGUSR1 prints the status of whatever request is in flight (the global
  // status registry is set per pipeline run), pinned for the daemon's life.
  install_sigusr1_handler();
  const ObsMonitor monitor;
  server.run();  // returns after the SIGTERM/SIGINT drain completes
  return 0;
}

/// One GET against the daemon's observability plane; target resolved from
/// --socket (HTTP over the unix socket), --port, or a http://127.0.0.1:N
/// positional URL.  A fresh connection per request (the server closes after
/// each response).
HttpResult stat_get(const Args& a, const std::string& target) {
  int fd;
  if (!a.serve_socket.empty()) {
    fd = connect_unix(a.serve_socket);
  } else if (a.serve_port >= 0) {
    fd = connect_tcp(a.serve_port);
  } else {
    const std::string& url =
        positional(a, 0, "<--socket PATH | --port N | URL>");
    const std::string prefix = "http://";
    if (url.compare(0, prefix.size(), prefix) != 0) {
      throw UsageError("stat: expected --socket, --port or a http:// URL");
    }
    const std::size_t colon = url.rfind(':');
    const std::string host = url.substr(prefix.size(),
                                        colon - prefix.size());
    if (colon == std::string::npos || colon < prefix.size() ||
        (host != "127.0.0.1" && host != "localhost")) {
      throw UsageError("stat: only http://127.0.0.1:PORT (or localhost) URLs "
                       "are supported — the daemon listens on loopback only");
    }
    std::string port_str = url.substr(colon + 1);
    if (const std::size_t slash = port_str.find('/');
        slash != std::string::npos) {
      port_str.erase(slash);
    }
    fd = connect_tcp(static_cast<int>(
        parse_int("stat URL port", port_str.c_str(), 1, 65535)));
  }
  return http_get_fd(fd, target);
}

/// Parsed /metrics scrape: plain (label-free) samples by name, histogram
/// families by their cumulative bucket sequence in exposition order.
struct MetricsScrape {
  std::map<std::string, double> flat;
  std::map<std::string, std::vector<double>> bucket_cum;
};

MetricsScrape parse_metrics(const std::string& text) {
  MetricsScrape m;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line;
    std::size_t value_at;
    const std::size_t brace = line.find('{');
    if (brace != std::string::npos) {
      name = line.substr(0, brace);
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos) continue;
      value_at = close + 2;
    } else {
      const std::size_t sp = line.find(' ');
      if (sp == std::string::npos) continue;
      name = line.substr(0, sp);
      value_at = sp + 1;
    }
    if (value_at >= line.size()) continue;
    const double v = std::strtod(line.c_str() + value_at, nullptr);
    const std::string bucket_suffix = "_bucket";
    if (name.size() > bucket_suffix.size() &&
        name.compare(name.size() - bucket_suffix.size(), bucket_suffix.size(),
                     bucket_suffix) == 0) {
      m.bucket_cum[name.substr(0, name.size() - bucket_suffix.size())]
          .push_back(v);
    } else {
      m.flat[name] = v;
    }
  }
  return m;
}

/// De-cumulates a scraped bucket sequence back into the log2 bucket array
/// hist_quantile expects.  Sequences of the wrong length (not an fsct
/// histogram) come back empty.
std::array<std::uint64_t, kHistBuckets> decumulate(
    const std::vector<double>& cum) {
  std::array<std::uint64_t, kHistBuckets> b{};
  if (cum.size() != kHistBuckets) return b;
  double prev = 0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    b[i] = static_cast<std::uint64_t>(cum[i] - prev);
    prev = cum[i];
  }
  return b;
}

int cmd_stat(const Args& a) {
  const HttpResult metrics = stat_get(a, "/metrics");
  if (metrics.status != 200) {
    throw std::runtime_error("stat: /metrics returned HTTP " +
                             std::to_string(metrics.status));
  }
  const HttpResult statusz = stat_get(a, "/statusz");
  if (statusz.status != 200) {
    throw std::runtime_error("stat: /statusz returned HTTP " +
                             std::to_string(statusz.status));
  }
  const MetricsScrape m = parse_metrics(metrics.body);
  const auto flat = [&m](const char* name) -> double {
    const auto it = m.flat.find(name);
    return it == m.flat.end() ? 0 : it->second;
  };

  std::printf("fsct daemon: up %.1fs%s\n",
              flat("fsct_serve_uptime_seconds"),
              flat("fsct_serve_draining") != 0 ? "  [DRAINING]" : "");
  std::printf("  workers %lld | queue %lld (high-water %lld) | "
              "active sessions %lld\n",
              static_cast<long long>(flat("fsct_serve_workers")),
              static_cast<long long>(flat("fsct_serve_queue_depth")),
              static_cast<long long>(flat("fsct_serve_queue_highwater")),
              static_cast<long long>(flat("fsct_serve_active_sessions")));
  std::printf("  requests %lld: %lld ok, %lld error, %lld busy-rejected, "
              "%lld drain-rejected\n",
              static_cast<long long>(flat("fsct_serve_requests_total")),
              static_cast<long long>(flat("fsct_serve_requests_ok_total")),
              static_cast<long long>(flat("fsct_serve_requests_error_total")),
              static_cast<long long>(flat("fsct_serve_rejected_busy_total")),
              static_cast<long long>(
                  flat("fsct_serve_rejected_draining_total")));
  std::printf("  model cache: %lld hits / %lld misses / %lld evictions | "
              "%lld entries, %.1f MB\n",
              static_cast<long long>(flat("fsct_serve_model_cache_hits_total")),
              static_cast<long long>(
                  flat("fsct_serve_model_cache_misses_total")),
              static_cast<long long>(
                  flat("fsct_serve_model_cache_evictions_total")),
              static_cast<long long>(flat("fsct_serve_model_cache_entries")),
              flat("fsct_serve_model_cache_bytes") / (1024.0 * 1024.0));
  std::printf("  result cache: %lld hits / %lld misses / %lld evictions | "
              "%lld entries\n",
              static_cast<long long>(
                  flat("fsct_serve_result_cache_hits_total")),
              static_cast<long long>(
                  flat("fsct_serve_result_cache_misses_total")),
              static_cast<long long>(
                  flat("fsct_serve_result_cache_evictions_total")),
              static_cast<long long>(flat("fsct_serve_result_cache_entries")));

  std::printf("  latency p50/p90/p99 (ms):\n");
  const struct { const char* label; const char* family; } kPhases[] = {
      {"queue-wait", "fsct_serve_latency_queue_us"},
      {"compile", "fsct_serve_latency_compile_us"},
      {"pipeline", "fsct_serve_latency_pipeline_us"},
      {"serialize", "fsct_serve_latency_serialize_us"},
  };
  for (const auto& ph : kPhases) {
    const auto it = m.bucket_cum.find(ph.family);
    if (it == m.bucket_cum.end()) continue;
    const auto buckets = decumulate(it->second);
    const double p50 = hist_quantile(buckets, 0.50);
    const double p90 = hist_quantile(buckets, 0.90);
    const double p99 = hist_quantile(buckets, 0.99);
    if (p50 < 0) {
      std::printf("    %-10s (no samples)\n", ph.label);
    } else {
      std::printf("    %-10s %8.2f / %8.2f / %8.2f\n", ph.label, p50 / 1e3,
                  p90 / 1e3, p99 / 1e3);
    }
  }

  // In-flight sessions from /statusz (phase/done/total come from each
  // session's live registry).
  JsonParser p(statusz.body, "/statusz");
  const JVal v = p.parse();
  if (const JVal* sessions = v.find("active_sessions");
      sessions && sessions->kind == JVal::Arr && !sessions->arr.empty()) {
    std::printf("  in-flight:\n");
    for (const JVal& s : sessions->arr) {
      const JVal* rid = s.find("request_id");
      const JVal* id = s.find("id");
      const JVal* circuit = s.find("circuit");
      const JVal* phase = s.find("phase");
      const JVal* done = s.find("done");
      const JVal* total = s.find("total");
      const JVal* elapsed = s.find("elapsed_seconds");
      std::printf("    #%lld id=%s circuit=%s %.1fs",
                  rid && rid->kind == JVal::Num
                      ? static_cast<long long>(rid->num)
                      : 0LL,
                  id && id->kind == JVal::Str && !id->str.empty()
                      ? id->str.c_str()
                      : "-",
                  circuit && circuit->kind == JVal::Str
                      ? circuit->str.c_str()
                      : "?",
                  elapsed && elapsed->kind == JVal::Num ? elapsed->num : 0.0);
      if (phase && phase->kind == JVal::Str) {
        std::printf("  %s %lld/%lld", phase->str.c_str(),
                    done && done->kind == JVal::Num
                        ? static_cast<long long>(done->num)
                        : 0LL,
                    total && total->kind == JVal::Num
                        ? static_cast<long long>(total->num)
                        : 0LL);
      }
      std::printf("\n");
    }
  }
  if (const JVal* recent = v.find("recent");
      recent && recent->kind == JVal::Arr) {
    std::printf("  recent requests in ring: %zu (full detail on /statusz)\n",
                recent->arr.size());
  }
  return 0;
}

int cmd_bench(const Args& a) {
  const std::string& sub = positional(a, 0, "<run|compare>");
  if (sub == "run") return cmd_bench_run(a);
  if (sub == "compare") return cmd_bench_compare(a);
  throw UsageError("unknown bench subcommand '" + sub +
                   "' (expected 'run' or 'compare')");
}

void print_usage(std::FILE* f = stdout) {
  std::fputs(
      "usage: fsct <command> [args] [options]\n"
      "\n"
      "commands:\n"
      "  stats    <circuit.bench>                netlist statistics\n"
      "  scan     <circuit.bench> [-o out.bench] insert a TPI scan chain\n"
      "  test     <circuit.bench> [-o prog.fsct] full screening pipeline\n"
      "           (alias: run)                   resumable with\n"
      "                                          --checkpoint / --resume\n"
      "  replay   <prog.fsct> <circuit.bench>    run a program on a device\n"
      "  diagnose <circuit.bench> --fault NET V  rank chain-defect suspects\n"
      "  selftest                                end-to-end check on s27\n"
      "  fuzz     [--seed S] [--iters N]         differential self-fuzzing\n"
      "  profile  <profile.json|report.json>     render a saved hotspot\n"
      "                                          profile as tables\n"
      "  bench    run [circuit ...]              timed suite benchmark ->\n"
      "                                          BENCH_<label>.json\n"
      "  bench    compare <old.json> <new.json>  noise-aware regression diff\n"
      "                                          (exit 1 regression,\n"
      "                                          2 mismatch)\n"
      "  serve    --socket PATH | --port N       screening daemon with a\n"
      "                                          compiled-circuit cache;\n"
      "                                          NDJSON requests, graceful\n"
      "                                          SIGTERM drain\n"
      "  stat     --socket PATH | --port N | URL scrape a running daemon's\n"
      "                                          /metrics + /statusz into a\n"
      "                                          one-screen status\n"
      "\n"
      "options:\n"
      "  --chains N        number of scan chains to insert (default: the\n"
      "                    suite entry's count for a suite name, else 1)\n"
      "  --partial M       permille of flip-flops scanned (default 1000)\n"
      "  --jobs N          parallel executors; 0 = one per hardware thread\n"
      "                    (default), 1 = serial — results are identical\n"
      "  --simd-width W    packed-simulation lane width in bits: 64, 256 or\n"
      "                    512 (default: build-time FSCT_SIMD_WIDTH); affects\n"
      "                    throughput only, per-fault results are identical\n"
      "  -o FILE           output file (scan: netlist, test: program +\n"
      "                    FILE.bench)\n"
      "  --fault NET 0|1   stuck-at fault to inject (replay, diagnose)\n"
      "  --no-dominance    disable dominance collapsing, SCOAP target\n"
      "                    ordering and cross-phase detection credit (test);\n"
      "                    restores the plain per-fault targeting order\n"
      "  --checkpoint F    write an fsct-ckpt-v1 snapshot to F atomically at\n"
      "                    pipeline safe points and on SIGTERM; a stopped run\n"
      "                    exits 3 with the checkpoint on disk (test)\n"
      "  --checkpoint-interval MS  minimum milliseconds between periodic\n"
      "                    checkpoint writes (default 0 = every safe point)\n"
      "  --resume F        continue from checkpoint F at any --jobs: the\n"
      "                    final report is bitwise identical to an\n"
      "                    uninterrupted run; refused if F was written by a\n"
      "                    different circuit or configuration (test)\n"
      "  --trace FILE      write a Chrome trace-event JSON of the run;\n"
      "                    load in chrome://tracing or Perfetto (test)\n"
      "  --metrics FILE    write a structured JSON run report: results,\n"
      "                    counters, histograms, pool stats, attribution\n"
      "                    top list when the ledger is on (test)\n"
      "  --profile FILE    write a fsct-profile-v1 hotspot profile: top-K\n"
      "                    hardest faults, per-gate/per-level activity,\n"
      "                    phase self/total tree; implies attribution (test)\n"
      "  --folded FILE     write flamegraph folded stacks of the phase tree\n"
      "                    (flamegraph.pl / speedscope format; test)\n"
      "  --metrics-out FILE  write counters/gauges/histograms as OpenMetrics\n"
      "                    text for Prometheus scraping (test)\n"
      "  --attribution     charge per-fault work to the attribution ledger\n"
      "                    without writing a profile (test, bench run)\n"
      "  --top K           hotlist rows in profile output (default 20)\n"
      "  --trace-max-mb N  cap the in-memory trace buffer; past the cap new\n"
      "                    spans are dropped (counted + truncation marker)\n"
      "  -v, --verbose     per-phase progress lines on stderr (test, fuzz)\n"
      "  --progress        periodic heartbeat line with phase, done/total,\n"
      "                    rate, ETA, RSS on stderr (test, bench run); a\n"
      "                    SIGUSR1 at any time prints a full status dump\n"
      "\n"
      "bench options:\n"
      "  --label L         document label; output defaults to\n"
      "                    BENCH_<L>.json (characters A-Z a-z 0-9 . _ -)\n"
      "  --note TEXT       free-form provenance note stored in the document\n"
      "  --reps N          timed repetitions per (circuit, jobs) (default 5)\n"
      "  --warmup N        discarded warmup repetitions (default 1)\n"
      "  --jobs N,M        sweep several job counts, one row each\n"
      "  --max-gates N     skip suite circuits above N gates\n"
      "  --rel-threshold P relative regression threshold (default 0.10)\n"
      "  --mad-k K         noise window in MAD multiples (default 3.0)\n"
      "\n"
      "serve options:\n"
      "  --socket PATH     listen on a Unix-domain socket at PATH\n"
      "  --port N          listen on loopback TCP port N (0 = ephemeral;\n"
      "                    the chosen port is printed)\n"
      "  --workers N       concurrent screening sessions (default 1)\n"
      "  --queue N         request-queue capacity; beyond it requests are\n"
      "                    rejected with code \"busy\" (default 16)\n"
      "  --cache-mb N      compiled-model cache budget, LRU-evicted\n"
      "                    (default 256)\n"
      "  --http-port N     mount the observability HTTP plane on loopback\n"
      "                    TCP port N (0 = ephemeral): GET /metrics\n"
      "                    (OpenMetrics), /healthz, /readyz (503 while\n"
      "                    draining), /statusz (in-flight sessions + recent\n"
      "                    requests as JSON)\n"
      "  --http-socket P   same observability plane on a Unix socket at P\n"
      "  --request-log F   append one NDJSON line per request to F:\n"
      "                    request_id, circuit hash, priority, cache\n"
      "                    outcomes, per-phase latencies, status\n"
      "\n"
      "fuzz options:\n"
      "  --seed S          base seed; (seed, offset) fixes every iteration\n"
      "  --iters N         iterations to run (default 100)\n"
      "  --offset K        start at global iteration K (reproduce a failure\n"
      "                    with --offset K --iters 1)\n"
      "  --oracles LIST    comma-separated subset: packed-sim, ppsfp-seq,\n"
      "                    cat3-scanout, jobs-identity, export-replay,\n"
      "                    dominance, simd, resume, all (resume — stop and\n"
      "                    resume at a random safe point — is opt-in by name)\n"
      "  --max-gates N     largest random circuit drawn (default 70)\n"
      "  --max-ffs N       largest flip-flop count drawn (default 10)\n"
      "  --no-shrink       emit failing circuits unminimized\n"
      "  -o DIR            where minimized .bench repros are written\n"
      "  --corpus DIR      instead of fuzzing, replay every .bench in DIR\n"
      "                    through all oracles (regression mode)\n",
      f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_usage();
    return 0;
  }
  try {
    const Args a = parse(argc, argv);
    // Process-wide: every engine constructed with width 0 (the default)
    // reads this, so one flag covers test/bench/selftest/fuzz alike.
    if (a.simd_width) set_default_simd_width(a.simd_width);
    if (cmd == "stats") return cmd_stats(a);
    if (cmd == "scan") return cmd_scan(a);
    if (cmd == "test" || cmd == "run") return cmd_test(a);
    if (cmd == "replay") return cmd_replay(a);
    if (cmd == "diagnose") return cmd_diagnose(a);
    if (cmd == "selftest") return cmd_selftest();
    if (cmd == "fuzz") return cmd_fuzz(a);
    if (cmd == "profile") return cmd_profile(a);
    if (cmd == "bench") return cmd_bench(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "stat") return cmd_stat(a);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    print_usage(stderr);
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "fsct: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

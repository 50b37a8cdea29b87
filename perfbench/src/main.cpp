// fsct benchmark binary.
//
//   perfbench --workload atpg_tail|sim_wide|serve_mix --seed N --seconds S
//             --trace 0|1 [--smoke] [--out DIR] [--git-sha SHA]
//   perfbench --selftest
//   perfbench --netlist SHAPE --seed N
//
// A run prints a machine fingerprint line and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).
// Spans of the run are written to DIR/spans-<workload>-<seed>-<trace>.json.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "core/json.h"
#include "core/obs.h"
#include "core/pipeline_exec.h"
#include "netlist/bench_io.h"
#include "sim/soa_circuit.h"
#include "trace.h"

namespace perfbench {
namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string machine_json(const Args& a) {
  return "{\"nproc\": " + std::to_string(fsct::resolve_jobs(0)) +
         ", \"compiler\": \"" + fsct::json_escape(compiler()) +
         "\", \"simd_width\": " + std::to_string(fsct::default_simd_width()) +
         ", \"git_sha\": \"" + fsct::json_escape(a.git_sha) + "\"}";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_result(const Report& rep, bool correct) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(rep.attempted) +
                  ", \"failed\": " + std::to_string(rep.failed) +
                  ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    s += (first ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
         "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || !end || *end || *s == '-' || !*s) {
    usage(std::string("bad value for ") + flag + ": " + s);
  }
  return v;
}

// --- self checks ------------------------------------------------------------

bool check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok;
}

/// The decorator must leave results bitwise equal to an undecorated run:
/// same outcome hash and the same deterministic counters, at jobs 1 and n.
bool decorator_identity(const std::string& shape) {
  const fsct::SuiteEntry& e = fsct::suite_entry(shape);
  const auto p = prepare(e, make_circuit(e, kSuiteSeed));
  bool ok = true;
  for (const int jobs : {1, static_cast<int>(fsct::resolve_jobs(0))}) {
    fsct::ObsRegistry plain_reg;
    fsct::PipelineOptions plain = screening_options(jobs);
    plain.obs = &plain_reg;
    const fsct::PipelineResult a =
        fsct::run_fsct_pipeline(*p->model, p->faults, plain);

    fsct::ObsRegistry reg;
    fsct::ThreadPool pool(jobs);
    fsct::PipelineOptions opt = screening_options(jobs);
    opt.obs = &reg;
    fsct::LocalExec local(*p->model, p->faults, opt, pool);
    SpanLog log;
    TracingExec tx(local, reg, log, -1, 0);
    opt.exec = &tx;
    const fsct::PipelineResult b =
        fsct::run_fsct_pipeline(*p->model, p->faults, opt);

    bool same = outcome_hash(a) == outcome_hash(b) &&
                a.detection_curve == b.detection_curve;
    for (std::size_t c = 0; c < fsct::kNumCounters; ++c) {
      const auto ctr = static_cast<fsct::Ctr>(c);
      same = same && plain_reg.total(ctr) == reg.total(ctr);
    }
    ok &= check(same, "decorated pipeline is bitwise identical on " + shape +
                          " at jobs " + std::to_string(jobs));
    ok &= check(tx.phases().count("classify") && tx.phases().count("s2_atpg"),
                "decorator saw classify and s2_atpg on " + shape);
  }
  return ok;
}

int selftest() {
  bool ok = true;
  for (const char* shape : {"s1488", "s1423"}) {
    const fsct::SuiteEntry& e = fsct::suite_entry(shape);
    const std::string suite = fsct::write_bench_string(
        fsct::build_suite_circuit(e));
    const std::string a = fsct::write_bench_string(make_circuit(e, 7));
    const std::string b = fsct::write_bench_string(make_circuit(e, 7));
    const std::string c = fsct::write_bench_string(make_circuit(e, 8));
    const std::string d =
        fsct::write_bench_string(make_circuit(e, kSuiteSeed));
    ok &= check(a == b, std::string(shape) + ": same seed, same netlist");
    ok &= check(a != c, std::string(shape) + ": other seed, other netlist");
    ok &= check(d == suite, std::string(shape) +
                                ": default seed reproduces the suite circuit");
    const auto pa = prepare(e, make_circuit(e, 7));
    const auto pd = prepare(e, make_circuit(e, kSuiteSeed));
    const auto opt = screening_options(0);
    ok &= check(outcome_hash(screen(*pa, opt).r) ==
                    outcome_hash(screen(*pd, opt).r),
                std::string(shape) + ": renamed netlist screens identically");
  }
  ok &= decorator_identity("s1494");
  ok &= decorator_identity("s1423");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false;
  std::string netlist_shape;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + f);
      return argv[++i];
    };
    if (f == "--selftest") {
      return selftest();
    } else if (f == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (f == "--seed") {
      a.seed = parse_u64(value(), "--seed");
    } else if (f == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
      if (a.seconds < 1) usage("--seconds must be at least 1");
    } else if (f == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (f == "--smoke") {
      a.smoke = true;
    } else if (f == "--out") {
      a.out_dir = value();
    } else if (f == "--git-sha") {
      a.git_sha = value();
    } else if (f == "--netlist") {
      netlist_shape = value();
    } else {
      usage("unknown argument " + f);
    }
  }
  try {
    if (!netlist_shape.empty()) {
      std::fputs(fsct::write_bench_string(
                     make_circuit(fsct::suite_entry(netlist_shape), a.seed))
                     .c_str(),
                 stdout);
      return 0;
    }
    if (!have_workload) usage("--workload is required");
    workload_shapes(a);  // rejects unknown workload names
  } catch (const std::exception& e) {
    usage(e.what());
  }

  std::filesystem::create_directories(a.out_dir);
  std::printf("{\"machine\": %s}\n", machine_json(a).c_str());
  SpanLog log;
  Report rep;
  bool completed = false;
  try {
    if (a.workload == "serve_mix") {
      run_serve(a, log, rep);
    } else {
      run_screening(a, log, rep);
    }
    completed = true;
  } catch (const std::exception& e) {
    rep.fail(std::string("run aborted: ") + e.what());
  }
  for (auto& [name, m] : rep.metrics) {
    if (std::isfinite(m.value)) continue;
    rep.fail(name + " is not a finite number");
    m.value = 0;
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.c_str());
  }

  // Spans stay in memory until here; self time per span name goes with them.
  const std::string spans = a.out_dir + "/spans-" + a.workload + "-" +
                            std::to_string(a.seed) + "-" +
                            (a.trace ? "1" : "0") + ".json";
  {
    std::ofstream os(spans);
    os << "{\"machine\": " << machine_json(a) << ",\n\"self_s\": {";
    bool first = true;
    for (const auto& [name, secs] : log.self_seconds(0, UINT64_MAX)) {
      os << (first ? "" : ", ") << "\"" << fsct::json_escape(name)
         << "\": " << number(secs);
      first = false;
    }
    os << "},\n\"spans\": ";
    log.write_json(os);
    os << "}\n";
  }
  if (rep.attempted == 0) rep.attempted = 1;
  print_result(rep, completed && rep.failed == 0);
  return completed ? 0 : 1;
}

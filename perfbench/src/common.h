// Shared pieces of the benchmark binary: workload inputs, clocks, summary
// statistics and the metric sink every workload reports into.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_circuits/suite.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/test_export.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace perfbench {

/// The seed that reproduces the suite's own netlists (build_suite_circuit
/// starts its per-shape fold from this value).
inline constexpr std::uint64_t kSuiteSeed = 0x5eed;

/// One command line, already validated.
struct Args {
  std::string workload;
  std::uint64_t seed = kSuiteSeed;
  double seconds = 20;
  bool trace = false;
  /// Tiny circuits, the minimum number of passes and one serve rotation:
  /// the benchmark's own tests use it to check the output in seconds.
  bool smoke = false;
  std::string out_dir = ".bench_build/perfbench";
  std::string git_sha = "unknown";
};

/// Workload input: a suite shape rendered under a seed.  The structure is the
/// suite circuit's; the seed (mixed with the shape name and `variant`) only
/// renames the nets, so every seed screens the same work.  kSuiteSeed with
/// variant 0 returns build_suite_circuit's netlist unchanged.
fsct::Netlist make_circuit(const fsct::SuiteEntry& e, std::uint64_t seed,
                           std::uint64_t variant = 0);

/// The daemon configuration every workload screens with: verify_easy on,
/// dominance on, build-default lane width, no wall-clock ATPG budgets.
fsct::PipelineOptions screening_options(int jobs);

double now_s();
double cpu_s();  ///< process CPU time, all threads
double peak_rss_mb();

double median(std::vector<double> v);
/// Linear-interpolation percentile (p in [0, 100]) of `v`.
double percentile(std::vector<double> v, double p);

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/// Per-fault outcome hash of a pipeline result: outcomes, step-2 vectors and
/// step-3 sequences, i.e. everything the exported program is built from.
std::uint64_t outcome_hash(const fsct::PipelineResult& r);

/// Collects metrics and operation counts for the final JSON line.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< why operations failed

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

/// Workload shapes, in the order they are screened.
std::vector<std::string> workload_shapes(const Args& a);

/// Time spent in each setup layer (seconds).
struct SetupTimes {
  double tpi = 0, levelize = 0, model = 0, collapse = 0;
  double total() const { return tpi + levelize + model + collapse; }
};

/// A circuit ready to screen: the post-TPI netlist and everything built on
/// it.  Heap-only and never moved, since the levelizer and the scan-mode
/// model keep references into it.
struct Prepared {
  std::string shape;
  fsct::Netlist nl;
  fsct::ScanDesign design;
  std::unique_ptr<fsct::Levelizer> lv;
  std::unique_ptr<fsct::ScanModeModel> model;
  std::vector<fsct::Fault> faults;
};
/// Runs the setup layers (run_tpi, Levelizer, ScanModeModel,
/// collapsed_fault_list) on `nl`; throws if ScanModeModel::check fails.
std::unique_ptr<Prepared> prepare(const fsct::SuiteEntry& e, fsct::Netlist nl,
                                  SetupTimes* t = nullptr);

/// One screening: the pipeline result and its exported test program.
struct Screening {
  fsct::PipelineResult r;
  fsct::TestProgram prog;
  double pipeline_s = 0;
  double export_s = 0;
  double cpu_s = 0;
};
Screening screen(const Prepared& p, const fsct::PipelineOptions& opt);

/// Replay of the exported program against every claimed detection.
struct Grade {
  std::size_t claimed = 0;    ///< detected outcomes + easy faults
  std::size_t confirmed = 0;  ///< ... that the program really detects
  bool ok = false;            ///< every claim the pipeline makes holds
  double seconds = 0;
  std::size_t cycles = 0;
};
Grade grade(const Prepared& p, const Screening& s, int width,
            fsct::ThreadPool* pool);

class SpanLog;
/// The traced run's pipeline half: setup layers, the decorated pipeline at
/// jobs 1 and nproc, export and the simulation kernels.
void trace_layers(const Args& a, const std::vector<std::string>& shapes,
                  SpanLog& log, Report& rep);
/// The traced run's daemon half for the screening workloads: one cold /
/// new-config / repeat series of `shape` against a fresh daemon.
void serve_probe(const Args& a, const std::string& shape, SpanLog& log,
                 Report& rep);

void run_screening(const Args& a, SpanLog& log, Report& rep);
void run_serve(const Args& a, SpanLog& log, Report& rep);

}  // namespace perfbench

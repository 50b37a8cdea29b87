// Statistics-aware benchmark harness: turns "the pipeline got faster" from
// an anecdote into a diffable artifact.
//
//   * run_bench() executes a pipeline configuration with warmup + N
//     repetitions per (circuit, jobs) point, aggregates per-phase wall and
//     process-CPU times into median/MAD/min/max summaries, snapshots the
//     deterministic obs counters and peak RSS, and fingerprints the machine
//     (nproc, cpufreq governor, compiler, git sha, sanitizer, OS).
//   * write_bench_json()/read_bench_document() serialize the versioned
//     `fsct-bench-v2` JSON document (`fsct bench run` writes
//     BENCH_<label>.json), the one bench schema; any other document is
//     refused as an unsupported schema.
//   * compare_bench() diffs two documents with a noise-aware threshold: a
//     phase regresses only when the median delta exceeds
//     max(rel_threshold * old, mad_k * MAD, abs_floor) — so sub-millisecond
//     phases cannot trip the gate on scheduler jitter, and a genuinely
//     noisy phase (large MAD) needs a proportionally larger delta.  Exit
//     codes are CI-friendly: 0 clean, 1 regression, 2 structural mismatch
//     (missing circuit/phase, malformed or wrong-schema JSON).
//
// All parsing errors carry a "<file>: line N:" anchor.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"

namespace fsct {

/// Thrown on malformed / wrong-schema bench JSON; the message is anchored
/// ("<name>: line N: ...") so CI logs point at the offending byte.  The bench
/// reader is built on the shared line-anchored JSON layer, so this is the
/// same exception the profile loader throws.
using BenchParseError = JsonParseError;

/// Host fingerprint recorded in every document: enough to spot an
/// apples-to-oranges comparison (different core count, governor, compiler,
/// sanitizer) without trusting the label.
struct BenchMachine {
  unsigned nproc = 0;
  std::string governor;   ///< cpu0 cpufreq governor, "unknown" off-Linux
  std::string compiler;   ///< compiler id + __VERSION__
  std::string git_sha;    ///< `git rev-parse --short HEAD`, "unknown" outside
  std::string sanitizer;  ///< "none", "thread" or "address"
  std::string os;         ///< uname sysname + release
};
BenchMachine fingerprint_machine();

/// Robust location/scale summary of one phase's repetition samples.
struct BenchStat {
  double median = 0;
  double mad = 0;  ///< median absolute deviation from the median
  double min = 0;
  double max = 0;
};
/// Median/MAD/min/max of `samples` (empty input -> all zeros).
BenchStat summarize_samples(std::vector<double> samples);

/// One timed phase of a bench row.  `cpu` is process CPU time over the same
/// interval, when the document recorded it.
struct BenchPhase {
  std::string name;  ///< "classify", "s2", "s3", "total"
  BenchStat wall;
  BenchStat cpu;
  bool has_cpu = false;
};

/// One (circuit, jobs) measurement point.
struct BenchRow {
  std::string circuit;
  unsigned jobs = 1;
  int reps = 1;
  bool jobs_oversubscribed = false;
  long peak_rss_kb = 0;
  std::vector<BenchPhase> phases;
  /// Deterministic obs counter totals (schedule-independent; see obs.h).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Headline result fields (faults, easy, hard, s2_detected, ...) so a
  /// compare can also flag a *work* change, not just a time change.
  std::vector<std::pair<std::string, std::uint64_t>> results;
};

struct BenchDocument {
  std::string label;
  std::string note;
  BenchMachine machine;
  int reps = 0;
  int warmup = 0;
  /// Machine-readable run warnings (e.g. jobs oversubscription) — the JSON
  /// twin of what used to be stderr-only.
  std::vector<std::string> warnings;
  std::vector<BenchRow> rows;
};

/// Labels become file names (BENCH_<label>.json): [A-Za-z0-9._-]+ only.
bool valid_bench_label(const std::string& label);

struct BenchRunConfig {
  std::string label = "run";
  std::string note;
  /// Suite circuits to run; empty = every suite circuit under max_gates.
  std::vector<std::string> circuits;
  int max_gates = 1 << 30;
  std::vector<int> jobs = {1};  ///< one set of rows per entry (resolved)
  int reps = 5;
  int warmup = 1;
  /// Enable the per-fault attribution ledger during every repetition.  Used
  /// by the overhead gate (attribution on vs off must compare clean); the
  /// ledger itself is discarded — bench rows carry only the deterministic
  /// counters.
  bool attribution = false;
  /// Per-rep progress lines ("s1488 jobs=1 rep 3/5: total 0.012s"), unset =
  /// silent.
  std::function<void(const std::string&)> progress;
};

/// Runs the screening pipeline per the config and aggregates the document.
/// Throws std::invalid_argument on unknown circuit names.
BenchDocument run_bench(const BenchRunConfig& cfg);

/// Serializes a v2 document (pretty-printed, stable field order).
std::string write_bench_json(const BenchDocument& doc);

/// Parses an `fsct-bench-v2` document.  `name` prefixes error messages;
/// throws BenchParseError.
BenchDocument parse_bench_document(const std::string& json_text,
                                   const std::string& name);
/// Reads and parses `path`; throws BenchParseError (also on I/O failure).
BenchDocument read_bench_document(const std::string& path);

struct CompareOptions {
  double rel_threshold = 0.10;  ///< fraction of the old median
  double mad_k = 3.0;           ///< multiples of the larger MAD
  double abs_floor_s = 0.005;   ///< deltas under 5 ms never gate
};

/// One phase-level comparison cell.
struct CompareDelta {
  std::string circuit;
  unsigned jobs = 1;
  std::string phase;
  double old_median = 0;
  double new_median = 0;
  double noise = 0;  ///< the threshold the delta was held against
  bool regression = false;
  bool improvement = false;
};

struct CompareReport {
  std::vector<CompareDelta> deltas;
  /// Structural problems (missing circuit/phase rows): any entry -> exit 2.
  std::vector<std::string> mismatches;
  /// Informational notes (counter / result drift, machine differences).
  std::vector<std::string> notes;
  bool has_regression() const;
  /// 0 clean, 1 regression, 2 mismatch (mismatch wins).
  int exit_code() const;
};

CompareReport compare_bench(const BenchDocument& old_doc,
                            const BenchDocument& new_doc,
                            const CompareOptions& opt = {});

/// Human-readable per-circuit/per-phase table plus REGRESSION/mismatch
/// lines; what `fsct bench compare` prints.
void print_compare_report(std::ostream& os, const CompareReport& rep);

}  // namespace fsct

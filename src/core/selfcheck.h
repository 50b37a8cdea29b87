// Differential self-check: the library contains several independently
// implemented answers to the same questions (packed vs scalar simulation,
// implication-based classification vs brute-force fault simulation, in-model
// ATPG verdicts vs realised sequences, parallel vs serial pipeline runs,
// exported programs vs live simulation).  The paper's own step-2 rule —
// "re-verify every combinational detection sequentially" — is a differential
// check; this module promotes that idea into a first-class subsystem:
//
//   O1 packed-sim     WideSim at 64, 256 and 512 lanes must equal the scalar
//                     3-valued simulator lane by lane, X sources included,
//   O2 ppsfp-seq      every PPSFP detection of a chain-untouched fault must
//                     reproduce when its pattern is converted to a scan
//                     load + shift-out sequence and fault-simulated serially
//                     (full-scan designs; chain-affecting faults are exactly
//                     the ones the paper re-verifies, so they are exempt),
//   O3 cat3-scanout   category-3 faults must never corrupt the scan-out
//                     stream under random shift data and random free-PI data,
//   O4 jobs-identity  the pipeline must be bitwise identical at jobs=1 and
//                     jobs=N (wall-clock ATPG budgets disabled),
//   O5 export-replay  an exported test program must round-trip through the
//                     text format unchanged, replay mismatch-free on the
//                     fault-free device, and kill covered faults on replay,
//   O6 dominance      the dominance + detection-ledger pipeline must agree
//                     with a --no-dominance run: classification is
//                     flag-independent, and every fault whose detected
//                     status differs is adjudicated by replaying the
//                     claiming side's exported program against that fault
//                     (the claim must reproduce as real strobe mismatches),
//   O7 simd           the serial sequential fault simulator and the W-wide
//                     parallel-fault engines must report identical detect
//                     cycles for random (fault set, sequence, initial state)
//                     triples at every lane width (64/256/512), for both
//                     run() and the pairwise run_pairs() layout,
//   O8 resume         a checkpointed run stopped at a random safe point must
//                     resume — after the checkpoint round-trips the text
//                     format — to the serial result, at any job count.
//
// `fsct fuzz` drives these oracles over random circuits from
// bench_circuits/generator; a failing circuit is greedily shrunk (drop
// gates/FFs/POs while the failure persists) to a minimized .bench repro.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "netlist/netlist.h"

namespace fsct {

// Oracle selection bits.
inline constexpr unsigned kOraclePackedSim = 1u << 0;   ///< O1
inline constexpr unsigned kOraclePpsfpSeq = 1u << 1;    ///< O2
inline constexpr unsigned kOracleCat3 = 1u << 2;        ///< O3
inline constexpr unsigned kOracleJobs = 1u << 3;        ///< O4
inline constexpr unsigned kOracleExport = 1u << 4;      ///< O5
inline constexpr unsigned kOracleDominance = 1u << 5;   ///< O6
inline constexpr unsigned kOracleSimd = 1u << 6;        ///< O7
inline constexpr unsigned kOracleResume = 1u << 7;      ///< O8
/// `all` = O1-O7.  O8 (`resume`) is opt-in by name: it adds about two
/// pipeline runs per circuit, so it never rides along implicitly.
inline constexpr unsigned kOracleAll =
    kOraclePackedSim | kOraclePpsfpSeq | kOracleCat3 | kOracleJobs |
    kOracleExport | kOracleDominance | kOracleSimd;

/// Number of distinct oracles / their short names ("packed-sim", ...).
inline constexpr std::size_t kNumOracles = 8;
const char* oracle_name(std::size_t index);

/// Parses a comma-separated oracle list ("packed-sim,jobs-identity", "all");
/// throws std::runtime_error on unknown names.
unsigned parse_oracle_mask(const std::string& csv);

/// How to scan-insert and check one pre-scan circuit.
struct SelfcheckConfig {
  unsigned oracles = kOracleAll;
  bool use_tpi = true;       ///< TPI functional chains vs conventional MUX scan
  int chains = 1;
  int scan_permille = 1000;  ///< TPI partial scan (1000 = full)
  int jobs = 4;              ///< the N of the jobs-identity oracle
  std::uint64_t check_seed = 1;  ///< drives all oracle-local randomness
};

/// Runs every selected oracle on one pre-scan netlist.  Returns "" when all
/// oracles agree, else a one-line diagnostic of the first mismatch (prefixed
/// with the oracle name).  `ran`, if non-null, accumulates per-oracle
/// execution counts (indexed as oracle_name).
std::string selfcheck_circuit(const Netlist& pre_scan,
                              const SelfcheckConfig& cfg,
                              std::uint64_t (*ran)[kNumOracles] = nullptr);

/// Field-by-field comparison of two pipeline results (timing fields ignored).
/// Returns "" when bitwise identical, else the first differing field.
std::string diff_pipeline_results(const PipelineResult& a,
                                  const PipelineResult& b);

/// Greedy structural shrink: repeatedly tries to bypass gates/flip-flops
/// (rewiring their readers to a fanin), drop primary-output markings, prune
/// gate fanins and strip dead logic, keeping a candidate only when
/// `still_fails` holds.  `budget` bounds predicate evaluations.  Returns the
/// smallest failing netlist found (the input itself if nothing shrinks).
Netlist shrink_netlist(const Netlist& start,
                       const std::function<bool(const Netlist&)>& still_fails,
                       int budget = 300);

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 100;
  int offset = 0;            ///< global index of the first iteration (repro)
  unsigned oracles = kOracleAll;
  int jobs = 4;
  int min_gates = 15;
  int max_gates = 70;
  int min_ffs = 2;
  int max_ffs = 10;
  bool shrink = true;
  int shrink_budget = 300;
  /// Also stress the .bench parser with mutated circuit text each iteration
  /// (it must parse or throw, never crash).
  bool parser_stress = true;
  /// Optional per-iteration/failure progress sink (stderr in the CLI).
  std::function<void(const std::string&)> progress;
};

struct FuzzFailure {
  int iteration = 0;              ///< global iteration index (offset + i)
  std::uint64_t circuit_seed = 0; ///< RandomCircuitSpec::seed used
  SelfcheckConfig config;         ///< scan style / seed that exposed it
  std::string diagnostic;         ///< oracle mismatch message
  Netlist minimized;              ///< shrunk repro circuit
  std::string repro;              ///< fsct command line reproducing this
};

struct FuzzReport {
  int iterations = 0;
  std::uint64_t oracle_runs[kNumOracles] = {};
  std::uint64_t parser_probes = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Seeded differential fuzz loop.  Fully deterministic in (seed, offset):
/// iteration k always draws the same circuit and check seeds, so a failure at
/// global iteration k reproduces with offset=k, iterations=1.
FuzzReport run_fuzz(const FuzzOptions& opt);

}  // namespace fsct

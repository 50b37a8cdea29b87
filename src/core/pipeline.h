// The full functional-scan-chain-testing flow (sections 2–5):
//
//   step 0  classify every collapsed fault on the scan-mode model
//           (f_easy = category 1, f_hard = category 2),
//   step 1  the alternating flush sequence (detects f_easy; we optionally
//           *verify* that by sequential fault simulation instead of assuming
//           it, unlike the paper),
//   step 2  combinational ATPG on the scan-mode model for f_hard, converted
//           to scan sequences and re-verified by sequential fault simulation
//           (the converting chain may itself be broken by the target fault),
//   step 3  location-aware grouping + sequential ATPG on reduced
//           enhanced-ctrl/obs circuit models; leftover faults retried
//           individually with a larger budget (f_final).
//
// The result carries everything Tables 2 and 3 and Figure 5 report.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/classify.h"
#include "core/grouping.h"
#include "core/reduced_atpg.h"
#include "fault/fault.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_mode_model.h"

namespace fsct {

class ObsRegistry;
class PipelineExec;
struct PipelineHooks;
struct PipelineState;

/// Precomputed per-circuit dominance artifacts for run_fsct_pipeline.  All
/// three are pure functions of (post-TPI netlist, collapsed fault list), so a
/// long-running server computes them once per compiled model and shares them
/// read-only across every request for that circuit; the pipeline recomputes
/// exactly the same values when they are absent, so results never depend on
/// whether a cache was warm.  Either provide all three or none.
struct PipelineCompiled {
  std::shared_ptr<const DominanceInfo> dom;
  std::shared_ptr<const FaultAdjacency> domsets;
  std::shared_ptr<const std::vector<Cost>> fcost;
};

struct PipelineOptions {
  /// Distance parameters; when auto_dist is true they are derived from the
  /// longest chain as in the paper's experiments.
  DistanceParams dist;
  bool auto_dist = true;

  /// Executors for the fault-parallel phases (classification, PPSFP,
  /// parallel-fault sequential simulation, step-3 grouped/final ATPG).
  /// 0 = one per hardware thread, 1 = serial.  Results are bitwise identical
  /// at any value (see DESIGN.md "Concurrency architecture").
  int jobs = 0;

  /// Packed-simulation lane width in bits (64, 256 or 512); 0 picks the
  /// process default (FSCT_SIMD_WIDTH at build time, --simd-width at run
  /// time).  Width changes throughput and pass counters only — per-fault
  /// outcomes are bitwise identical at every width (see DESIGN.md §5h).
  int simd_width = 0;

  int comb_backtrack_limit = 1500;
  int seq_backtrack_limit = 3000;
  int final_backtrack_limit = 12000;
  /// Ignored: nothing reads these.  ATPG is bounded by the backtrack limits
  /// above alone, so a report never depends on the clock.  Kept only so that
  /// existing callers that set them still compile.
  int comb_time_limit_ms = 0;
  int seq_time_limit_ms = 0;
  int final_time_limit_ms = 0;
  /// Random scan-mode patterns fault-simulated before any deterministic ATPG
  /// (classic RPG warm-up; keeps PODEM for the stubborn tail).  0 disables.
  int random_patterns = 96;
  int frame_cap = 96;
  int final_extra_frames = 8;

  /// Sequentially fault-simulate the alternating sequence against f_easy and
  /// report how many it really detects (the paper assumes all).
  bool verify_easy = false;
  /// Dominance collapsing + cross-phase detection credit.  Targets are the
  /// dominance representatives (SCOAP-ordered, cheapest excitation first);
  /// dominated faults ride along and are only targeted themselves if the
  /// screening simulations miss them, so per-fault outcomes are unchanged.
  /// Also enables the flush-credit pre-pass (category-2 faults killed by the
  /// alternating sequence are dropped from steps 2/3) and the shared
  /// detection ledger that credits step-3 sequences against every still-open
  /// fault.  Off = exact historical behaviour (`--no-dominance`).
  bool dominance = true;

  /// Optional observability sink (counters, trace spans, -v progress lines);
  /// nullptr disables all observation.  The deterministic counters it
  /// collects are identical at any `jobs` value; see core/obs.h.
  ObsRegistry* obs = nullptr;

  /// Optional precomputed dominance artifacts (see PipelineCompiled); the
  /// pipeline computes its own when null.  Must match this run's netlist and
  /// fault list.  The caller keeps the struct alive for the duration of the
  /// call.
  const PipelineCompiled* compiled = nullptr;

  /// Execution strategy for the data-parallel phases (core/pipeline_exec.h).
  /// nullptr = LocalExec on this run's pool; a caller may pass its own (a
  /// tracing wrapper, say).  Results are bitwise identical either way.
  PipelineExec* exec = nullptr;
  /// Optional safe-point callback (checkpointing / cooperative stop); see
  /// PipelineHooks.  nullptr = no safe points taken.
  const PipelineHooks* hooks = nullptr;
  /// Optional restored state from a checkpoint: the run continues from its
  /// `next` phase bitwise-identically (a misfit throws a "resume:" error).
  /// The caller keeps it alive for the duration of the call.
  const PipelineState* resume = nullptr;
};

/// One scan-mode test vector of the step-2 set: free-PI values plus the
/// flip-flop state to shift in (both fully specified, binary).
struct ScanVector {
  std::vector<Val> pi_vals;   ///< all PIs, netlist inputs() order
  std::vector<Val> ff_state;  ///< all FFs, netlist dffs() order
  friend bool operator==(const ScanVector&, const ScanVector&) = default;
};

/// Per-fault final status.
enum class FaultOutcome : std::uint8_t {
  NotAffecting,        ///< category 3: never targeted
  EasyAlternating,     ///< category 1: covered by the alternating sequence
  DetectedFlush,       ///< category 2 fault caught by the flush-credit pass
  DetectedComb,        ///< step 2: detected (sequentially verified)
  DetectedSeq,         ///< step 3: detected by grouped sequential ATPG
  DetectedFinal,       ///< step 3: detected in the final individual pass
  Undetectable,        ///< proven untestable in scan mode
  Undetected,          ///< given up (aborted)
};

struct PipelineResult {
  /// Executors actually used (PipelineOptions::jobs resolved); together with
  /// the per-phase *_seconds fields this is what the bench harness reports as
  /// per-phase speedup across job counts.
  unsigned jobs_used = 1;

  // Classification (Table 2).  The *_cpu_seconds companions measure
  // process CPU time (all threads) over the same interval, so wall vs CPU
  // separates real speedup from time-slicing on an oversubscribed host.
  std::size_t total_faults = 0;
  std::size_t easy = 0;   ///< #faults detectable by the alternating sequence
  std::size_t hard = 0;   ///< #faults needing dedicated tests
  double classify_seconds = 0;
  double classify_cpu_seconds = 0;

  // Step 1 verification (optional).
  std::size_t easy_verified = 0;   ///< of `easy`, confirmed by simulation
  double alternating_seconds = 0;
  double alternating_cpu_seconds = 0;

  // Dominance layer + cross-phase credit (all zero when dominance is off).
  std::size_t dominance_targets = 0;  ///< representatives among f_hard
  std::size_t flush_detected = 0;     ///< f_hard killed by the flush pre-pass
  std::size_t ledger_dropped = 0;     ///< faults dropped by detection credit
                                      ///< instead of being re-targeted

  // Step 2 (Table 3 left half).
  std::size_t s2_detected = 0;
  std::size_t s2_undetectable = 0;
  std::size_t s2_undetected = 0;  ///< |f_remaining|
  std::size_t s2_vectors = 0;     ///< combinational vectors generated
  std::vector<ScanVector> vectors;  ///< the step-2 test set itself
  double s2_seconds = 0;
  double s2_cpu_seconds = 0;
  /// Figure 5: cumulative faults detected after sequentially simulating the
  /// first k vectors; one entry per vector.
  std::vector<std::size_t> detection_curve;

  // Step 3 (Table 3 right half).
  std::size_t s3_circuits_group = 0;  ///< models built for groups 1-3
  std::size_t s3_circuits_final = 0;  ///< models built for f_final
  std::size_t s3_detected = 0;
  std::size_t s3_undetectable = 0;
  std::size_t s3_undetected = 0;
  /// In-model detections whose realised test failed end-to-end verification
  /// (such faults count as undetected).
  std::size_t s3_unverified = 0;
  double s3_seconds = 0;
  double s3_cpu_seconds = 0;
  /// The realised (verified) step-3 test sequences, one per fault detected
  /// in step 3, aligned with s3_sequence_fault (indices into `outcome`).
  std::vector<TestSequence> s3_sequences;
  std::vector<std::size_t> s3_sequence_fault;

  std::vector<FaultOutcome> outcome;     ///< per collapsed fault
  std::vector<ChainFaultInfo> info;      ///< per collapsed fault

  std::size_t affecting() const { return easy + hard; }
  std::size_t final_undetected() const { return s3_undetected; }
};

/// The dominance artifacts of (model, faults), computed the one way the
/// pipeline computes them when PipelineOptions::compiled is null.
PipelineCompiled compile_dominance(const ScanModeModel& model,
                                   std::span<const Fault> faults);

/// Runs the whole flow.  `lv`/`model` must be built on the post-TPI netlist.
PipelineResult run_fsct_pipeline(const ScanModeModel& model,
                                 std::span<const Fault> faults,
                                 const PipelineOptions& opt = {});

}  // namespace fsct

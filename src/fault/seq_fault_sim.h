// Sequential stuck-at fault simulation over a fixed test sequence.
//
// Detection criterion (standard "definite detection"): at some cycle, an
// observed net carries a binary value in the good machine and the *opposite*
// binary value in the faulty machine.  X never detects.
//
// Three engines with identical per-fault semantics:
//  * run_serial  — one faulty machine at a time (reference implementation),
//  * run         — parallel-fault: 63 faulty machines + the good machine per
//                  64-bit word, W/64 words per lane block (W = SIMD width in
//                  bits), i.e. 63 * W/64 faults per packed pass.  Bit 0 of
//                  every word carries the good machine (injections never
//                  touch it),
//  * run_pairs   — fault x pattern parallel: independent (fault, sequence)
//                  pairs packed two lanes each (even lane = that pair's good
//                  machine, odd = faulty), 32 * W/64 pairs per pass; step-2
//                  verification runs its vector waves through it.
//
// Counter contract (schedule- and jobs-independent by construction):
//  * SeqSimPackedPasses increments once per packed pass.  The pass partition
//    is fixed-size slices of the input — ceil(n_faults / (63 * W/64)) for
//    run(), ceil(n_pairs / (32 * W/64)) for run_pairs() — so pass counts are
//    a pure function of (fault/pair count, lane width): no dependence on
//    detections, thread schedule or pool size.  tests/fault/seq_fault_sim_test
//    pins the counts at widths 64/256/512.  A batch small enough to fit one
//    pass at a narrower width is clamped down to it (empty lanes are pure
//    overhead); that batch takes exactly one pass at either width, so the
//    pure-function property is unaffected.
//  * SeqSimCycles sums the machine-cycles each pass simulates.  A pass stops
//    early once every fault in it is detected, so the sum depends only on
//    (sequence, fault list, initial state, lane width) — wider passes retire
//    in fewer aggregate cycles.
//  * SeqSimFaultsDropped counts detections; identical at every width.
//
// Per-fault attribution (optional `attr_ids`, parallel to the fault/pair
// span): each engine charges Attr::SeqSims (or Attr::PairReplays) once per
// fault and Attr::SeqCycles with the fault's **resolved cycles** — its
// detecting cycle + 1, or the full sequence length when undetected.  Unlike
// the pass-granular SeqSimCycles counter (which varies with lane packing),
// resolved cycles are a pure function of (sequence, fault, initial state),
// so per-fault charges are bitwise identical at every lane width and job
// count.  An empty span (the default) records nothing.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "fault/fault.h"
#include "sim/seq_sim.h"
#include "sim/soa_circuit.h"

namespace fsct {

class ObsRegistry;

/// One PI assignment per clock cycle, each indexed in netlist inputs() order.
using TestSequence = std::vector<std::vector<Val>>;

/// Per-fault outcome: first detecting cycle, or -1 if the sequence does not
/// detect the fault.
struct SeqFaultSimResult {
  std::vector<int> detect_cycle;

  std::size_t num_detected() const {
    std::size_t n = 0;
    for (int c : detect_cycle) n += (c >= 0);
    return n;
  }
};

/// One independent (fault, sequence) verification job for run_pairs().
struct FaultSeqPair {
  Fault fault;
  const TestSequence* seq = nullptr;
};

/// Sequential fault simulator.  `observe` lists the nets sampled every cycle
/// (primary outputs, plus e.g. the scan-out flip-flop's Q).  A DFF id in the
/// list observes its Q value (pre-clock-edge state).
class SeqFaultSim {
 public:
  /// `simd_width` is the packed lane width in bits (64/256/512);
  /// 0 picks the process default (see set_default_simd_width).  The width
  /// affects throughput and pass counters only, never per-fault outcomes.
  SeqFaultSim(const Levelizer& lv, std::vector<NodeId> observe,
              int simd_width = 0);

  /// Serial reference engine.  `obs` (optional) receives run/cycle/drop
  /// counters; `attr_ids` (optional, parallel to `faults`) routes per-fault
  /// attribution charges (see the file comment).
  SeqFaultSimResult run_serial(const TestSequence& seq,
                               std::span<const Fault> faults,
                               Val initial_state = Val::X,
                               ObsRegistry* obs = nullptr,
                               std::span<const std::size_t> attr_ids = {}) const;

  /// Parallel-fault engine (63 * W/64 faults per packed pass; see the file
  /// comment for the counter contract).  The packed passes are mutually
  /// independent; with a pool they are dispatched concurrently, each writing
  /// its own disjoint slice of the result, so the output is identical to the
  /// serial run at any job count and any lane width.
  SeqFaultSimResult run(const TestSequence& seq, std::span<const Fault> faults,
                        Val initial_state = Val::X,
                        ThreadPool* pool = nullptr,
                        ObsRegistry* obs = nullptr,
                        std::span<const std::size_t> attr_ids = {}) const;

  /// Batched independent (fault, sequence) pairs, 32 * W/64 per pass.
  /// Returns the first detecting cycle per pair (-1 = not detected), exactly
  /// run_serial(*pairs[i].seq, {pairs[i].fault}) for each i.
  std::vector<int> run_pairs(std::span<const FaultSeqPair> pairs,
                             Val initial_state = Val::X,
                             ThreadPool* pool = nullptr,
                             ObsRegistry* obs = nullptr,
                             std::span<const std::size_t> attr_ids = {}) const;

  const std::vector<NodeId>& observe() const { return observe_; }
  int simd_width() const { return width_; }

 private:
  template <int NW>
  void run_width(const TestSequence& seq, std::span<const Fault> faults,
                 Val initial_state, ThreadPool* pool, ObsRegistry* obs,
                 std::span<const std::size_t> attr_ids,
                 SeqFaultSimResult& res) const;
  template <int NW>
  void run_pairs_width(std::span<const FaultSeqPair> pairs, Val initial_state,
                       ThreadPool* pool, ObsRegistry* obs,
                       std::span<const std::size_t> attr_ids,
                       std::vector<int>& out) const;

  const Levelizer& lv_;
  std::vector<NodeId> observe_;
  std::shared_ptr<const SoaCircuit> soa_;
  int width_;
};

}  // namespace fsct

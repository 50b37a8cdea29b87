// Parallel-pattern single-fault-propagation (PPSFP) combinational fault
// simulation on the "combinational view" of a sequential circuit: primary
// inputs and DFF Q outputs are pattern-controlled sources; primary outputs
// and DFF D pins are observation points.
//
// Patterns are processed 64 at a time on the shared SoA arena: the good
// machine of each block is one WideSim<1> pass, then each fault is propagated
// event-driven through its forward cone only (SoA combinational fanouts, in
// Levelizer order), with dirty-value restore between faults.  The lane width
// stays at 64 whatever --simd-width says: the step-2 screens are mostly
// one-pattern blocks, so wider lanes would only carry dead patterns.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "fault/fault.h"
#include "sim/soa_circuit.h"

namespace fsct {

class ObsRegistry;

/// One fully specified combinational pattern: values for all PIs (netlist
/// inputs() order) followed by values for all DFF Qs (netlist dffs() order).
using CombPattern = std::vector<Val>;

/// Per-fault outcome: index of the first detecting pattern, or -1.
struct CombFaultSimResult {
  std::vector<int> detect_pattern;

  std::size_t num_detected() const {
    std::size_t n = 0;
    for (int c : detect_pattern) n += (c >= 0);
    return n;
  }
};

/// PPSFP engine.  `observe` lists observed nodes: a PO id observes that net,
/// a DFF id observes the net at its D pin.
class CombFaultSim {
 public:
  CombFaultSim(const Levelizer& lv, std::vector<NodeId> observe);

  /// Simulates all faults against all patterns.  Patterns must be
  /// pis+dffs-sized (see CombPattern); X entries are allowed.  With a pool,
  /// the fault list of each 64-pattern block is sharded across the executors,
  /// each shard propagating through its own dirty-value scratch arena; the
  /// result is identical to the serial run at any job count (per-fault slots,
  /// first-detecting-pattern semantics preserved by the in-block minimum).
  /// `obs` (optional) receives block/propagation/event/drop counters and
  /// per-chunk trace spans; totals are schedule-independent because each
  /// (fault, block) propagation does identical work at any job count.
  CombFaultSimResult run(std::span<const CombPattern> patterns,
                         std::span<const Fault> faults,
                         ThreadPool* pool = nullptr,
                         ObsRegistry* obs = nullptr) const;

  const std::vector<NodeId>& observe() const { return observe_; }

 private:
  /// Per-executor event-propagation state (good values copied in, dirty nets
  /// restored after every fault).
  struct Scratch {
    std::vector<WideVal<1>> cur;
    std::vector<std::vector<NodeId>> buckets;  // level-indexed event queue
    std::vector<char> queued;
    std::vector<NodeId> dirty;
    std::uint64_t events = 0;  // net updates, flushed to obs per chunk
  };

  Scratch make_scratch(std::span<const WideVal<1>> good) const;
  /// Propagates one fault over the current 64-pattern block; returns the
  /// pattern mask on which an observed net differs from the good machine.
  std::uint64_t simulate_fault(const Fault& f, std::span<const WideVal<1>> good,
                               Scratch& s) const;

  std::shared_ptr<const SoaCircuit> soa_;
  std::vector<NodeId> observe_;
  std::vector<char> observed_net_;  // net-level observation flags
};

}  // namespace fsct

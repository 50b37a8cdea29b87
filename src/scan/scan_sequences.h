// Builders for the clocked PI sequences used in scan-chain testing:
//  * the classic alternating flush test (0011 repeating),
//  * scan-load sequences that shift a wanted state into the chains,
//  * conversion of a combinational scan-mode test vector into a full
//    scan-in + observe + scan-out sequence (the paper's step 2).
// All sequences keep the circuit strictly in scan mode.
#pragma once

#include <vector>

#include "fault/seq_fault_sim.h"
#include "scan/scan_chain.h"

namespace fsct {

/// Per-cycle PI assignment builder for a scan design.
class ScanSequenceBuilder {
 public:
  /// `nl` is the post-TPI netlist the design refers to.
  ScanSequenceBuilder(const Netlist& nl, const ScanDesign& design);

  /// The alternating flush: every chain's scan-in is driven with the periodic
  /// pattern 0,0,1,1,... for `cycles` clocks; constrained PIs are held at
  /// their scan-mode values, free PIs at `free_value`.
  TestSequence alternating(std::size_t cycles, Val free_value = Val::Zero) const;

  /// Shifts `state[c][k]` into chain c position k (don't-care entries may be
  /// X; they are shifted as `fill`).  Compensates segment inversion parity.
  /// `free_pi_values`, if non-empty, holds every free PI at the given value
  /// during the whole load (indexed like netlist inputs(); constrained PIs
  /// and scan-ins are overridden).  The load takes max chain length cycles.
  TestSequence load_state(const std::vector<std::vector<Val>>& state,
                          const std::vector<Val>& free_pi_values = {},
                          Val fill = Val::Zero) const;

  /// Converts one combinational scan-mode test (wanted FF states + free-PI
  /// values) into a full sequence: load the state, then `observe_cycles`
  /// additional shift cycles so captured fault effects reach the scan-outs.
  /// `ff_state` is indexed in netlist dffs() order (X = don't care).
  TestSequence apply_comb_vector(const std::vector<Val>& ff_state,
                                 const std::vector<Val>& free_pi_values,
                                 std::size_t observe_cycles) const;

  /// Baseline PI vector: constrained PIs at their values, everything else at
  /// `fill`.
  std::vector<Val> base_vector(Val fill = Val::Zero) const;

  /// Position of flip-flop `ff` as (chain index, position); (-1,-1) if not on
  /// any chain.
  std::pair<int, int> chain_position(NodeId ff) const;
  /// The same positions per flip-flop in netlist dffs() order.
  const std::vector<std::pair<int, int>>& ff_positions() const {
    return ff_pos_;
  }

 private:
  const Netlist& nl_;
  const ScanDesign& design_;
  std::vector<int> pi_index_;                 // node id -> inputs() index
  std::vector<int> dff_index_;                // node id -> dffs() index
  std::vector<std::pair<int, int>> ff_pos_;   // dff order -> (chain, pos)
};

}  // namespace fsct

// Time-frame expansion: turns a sequential circuit into a pure combinational
// "iterative array" model suitable for PairSim/PODEM.
//
// Per frame, every combinational gate is copied.  Flip-flop boundaries become
// explicit capture buffers: frame f's "ff@f" BUF node carries the value the
// flip-flop captures at the end of frame f, and feeds the flip-flop's Q uses
// in frame f+1.  Frame-0 Q values are fresh Input nodes — controllable if the
// caller says so (enhanced-controllability prefix of a scan chain), otherwise
// left X (unknown power-up state).
//
// A stuck-at fault of the base circuit maps to one FaultSite per frame
// (stuck-at faults are permanent): gate faults map onto the per-frame copies,
// DFF D-pin faults onto the capture buffers, DFF Q (output) faults onto the
// frame-0 state Input *and* every capture buffer.
#pragma once

#include <span>
#include <vector>

#include "atpg/pair_sim.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "sim/value.h"

namespace fsct {

/// What to unroll and how the environment constrains it.
struct UnrollSpec {
  /// The base circuit, levelized (its topological order is reused).
  const Levelizer* base = nullptr;
  int frames = 1;
  /// PI -> constant held at that value in every frame (TPI scan-mode pins,
  /// including scan_mode = 1).
  std::vector<std::pair<NodeId, Val>> fixed_pis;
  /// Per base-FF index (netlist dffs() order): may ATPG choose the frame-0
  /// state of this FF?  (True for the fault-free controllable chain prefix.)
  std::vector<char> controllable_state;
  /// Per base-FF index: is the value captured by this FF observed in every
  /// frame?  (True for the fault-free observable chain suffix / scan-out.)
  /// The primary outputs of every frame are always observed.
  std::vector<char> observable_ff;

  // ---- optional value-aware pruning ---------------------------------------
  // When `keep` is set, only flagged base nodes are materialised per frame;
  // a reference to an unflagged node is replaced by a constant of its
  // scan-mode value (`fold_values`, which must then be binary there).  Build
  // the mask with compute_keep_mask() so this invariant holds.
  const std::vector<char>* keep = nullptr;        // base-sized node mask
  const std::vector<Val>* fold_values = nullptr;  // base-sized scan-mode values
};

/// Computes a pruning mask for `unroll`: the backward closure (crossing
/// flip-flop boundaries) of `roots`, stopped at nodes that are *frozen* —
/// binary under `scan_values` and outside the fault's forward closure
/// (`fault_cone`, a node mask; pass empty to freeze on value alone).  Frozen
/// boundary nodes are left out of the mask and will be folded to constants.
std::vector<char> compute_keep_mask(const Levelizer& lv,
                                    const std::vector<Val>& scan_values,
                                    const std::vector<char>& fault_cone,
                                    std::span<const NodeId> roots);

/// Forward closure of a fault site across flip-flop boundaries (node mask).
std::vector<char> fault_forward_closure(const Levelizer& lv, NodeId site);

/// A sequential test in base-circuit terms, extracted from a PODEM solution.
struct SeqTest {
  std::vector<Val> init_state;              ///< per base FF (X = don't care)
  std::vector<std::vector<Val>> pi_frames;  ///< per frame, per base PI (X = dc)
};

/// The expanded model plus the bookkeeping needed to map a PODEM solution
/// back into a clocked test.
struct UnrolledModel {
  Netlist nl;
  /// controllable[n] for every node of `nl` (Input nodes ATPG may assign).
  std::vector<char> controllable;
  /// Nets checked for fault effects.
  std::vector<NodeId> observe;
  /// map[f][base_id] = node id in `nl` of frame-f copy (combinational gates
  /// and PIs).  For a DFF base id it is the frame-f *Q* value node.
  std::vector<std::vector<NodeId>> map;
  /// cap[f][ff_index] = frame-f capture buffer of that FF.
  std::vector<std::vector<NodeId>> cap;
  /// frame_pi[f][pi_index] = frame-f node of that base PI (Input or Const).
  std::vector<std::vector<NodeId>> frame_pi;
  /// init_state[ff_index] = frame-0 Q Input node.
  std::vector<NodeId> init_state;

  /// Maps an assignment of this model's inputs (a PODEM solution) back to
  /// the base circuit: the frame-0 state per FF and the PI values per frame,
  /// X where the assignment leaves an input open.
  SeqTest base_inputs(
      std::span<const std::pair<NodeId, Val>> assignment) const;

  /// FaultSites in `nl` equivalent to base fault `f` in every frame.
  std::vector<FaultSite> map_fault(const Fault& f) const;

  int frames() const { return static_cast<int>(map.size()); }
};

/// Builds the iterative-array model.  Throws on bad spec sizes.
UnrolledModel unroll(const UnrollSpec& spec);

}  // namespace fsct

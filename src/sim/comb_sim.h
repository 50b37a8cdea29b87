// Scalar (3-valued) levelized combinational simulation with stuck-at fault
// injection hooks: the reference the packed WideSim engine (soa_circuit.h)
// and the fuzz oracles are checked against.
//
// The simulator evaluates every combinational gate of a Levelizer snapshot in
// topological order.  Source nodes (PIs, constants, DFF Q outputs) must be
// pre-set by the caller in the value vector; constants are overwritten with
// their fixed value for convenience.
#pragma once

#include <span>
#include <vector>

#include "netlist/levelize.h"
#include "sim/value.h"

namespace fsct {

/// A stuck value forced onto a circuit location during simulation.
/// pin == -1 forces the *output* of `node` (a stem fault; also works on PIs
/// and DFF outputs).  pin >= 0 forces what `node` *sees* on fanin pin `pin`
/// (a branch/pin fault; other fanouts of the driver are unaffected).
struct Injection {
  NodeId node = kNullNode;
  int pin = -1;
  Val value = Val::X;
};

/// Scalar 3-valued levelized simulator.
class CombSim {
 public:
  explicit CombSim(const Levelizer& lv) : lv_(lv) {}

  /// Evaluates all combinational gates into `values` (sized netlist.size();
  /// sources pre-set by caller).  `inj` forces stuck values; a DFF node's
  /// entry in `values` is its Q (source) value and is NOT recomputed — the
  /// D-input value is read via d_value().
  void run(std::vector<Val>& values, std::span<const Injection> inj = {}) const;

  /// Value presented at a DFF's D pin after run(), honouring pin injections
  /// on the DFF itself.
  Val d_value(NodeId dff, const std::vector<Val>& values,
              std::span<const Injection> inj = {}) const;

  const Levelizer& levelizer() const { return lv_; }

 private:
  const Levelizer& lv_;
};

}  // namespace fsct

// Cycle-accurate sequential simulation on top of the levelized combinational
// simulators.  One step() = set PI values, settle combinational logic, read
// outputs, then clock every DFF (state <- D).
//
// Stuck-at faults are permanent: pass the same injection span to every step.
#pragma once

#include <span>
#include <vector>

#include "sim/comb_sim.h"

namespace fsct {

/// Scalar 3-valued sequential simulator.
class SeqSim {
 public:
  explicit SeqSim(const Levelizer& lv);

  /// Sets every flip-flop to `v` (power-up state is X).
  void reset(Val v = Val::X);

  /// Sets flip-flop states, indexed in netlist dff() order.
  void set_state(std::span<const Val> state);

  /// Current flip-flop states in netlist dff() order.
  const std::vector<Val>& state() const { return state_; }

  /// Simulates one clock cycle.  `pi_values` indexed in netlist inputs()
  /// order.  Returns all net values as settled *before* the clock edge (PO
  /// values are sampled from this).  Afterwards state() holds the post-edge
  /// flip-flop contents.
  const std::vector<Val>& step(std::span<const Val> pi_values,
                               std::span<const Injection> inj = {});

  /// Net values from the last step().
  const std::vector<Val>& values() const { return values_; }

  const Levelizer& levelizer() const { return lv_; }

 private:
  const Levelizer& lv_;
  CombSim comb_;
  std::vector<Val> state_;
  std::vector<Val> values_;
};

}  // namespace fsct

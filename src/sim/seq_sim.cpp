#include "sim/seq_sim.h"

#include <stdexcept>

namespace fsct {

SeqSim::SeqSim(const Levelizer& lv)
    : lv_(lv),
      comb_(lv),
      state_(lv.netlist().dffs().size(), Val::X),
      values_(lv.netlist().size(), Val::X) {}

void SeqSim::reset(Val v) { state_.assign(state_.size(), v); }

void SeqSim::set_state(std::span<const Val> state) {
  if (state.size() != state_.size()) {
    throw std::invalid_argument("set_state: size mismatch");
  }
  state_.assign(state.begin(), state.end());
}

const std::vector<Val>& SeqSim::step(std::span<const Val> pi_values,
                                     std::span<const Injection> inj) {
  const Netlist& nl = lv_.netlist();
  if (pi_values.size() != nl.inputs().size()) {
    throw std::invalid_argument("step: PI vector size mismatch");
  }
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    values_[nl.inputs()[i]] = pi_values[i];
  }
  for (std::size_t i = 0; i < state_.size(); ++i) {
    values_[nl.dffs()[i]] = state_[i];
  }
  comb_.run(values_, inj);
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = comb_.d_value(nl.dffs()[i], values_, inj);
  }
  return values_;
}

}  // namespace fsct

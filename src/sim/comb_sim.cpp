#include "sim/comb_sim.h"

namespace fsct {
namespace {

// Scalar: the last matching injection wins (single-fault use has one match).
bool apply_scalar(std::span<const Injection> inj, NodeId node, int pin,
                  Val& v) {
  bool hit = false;
  for (const Injection& i : inj) {
    if (i.node == node && i.pin == pin) {
      v = i.value;
      hit = true;
    }
  }
  return hit;
}

}  // namespace

void CombSim::run(std::vector<Val>& values,
                  std::span<const Injection> inj) const {
  const Netlist& nl = lv_.netlist();
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::Const0) values[id] = Val::Zero;
    if (nl.type(id) == GateType::Const1) values[id] = Val::One;
  }
  for (const Injection& i : inj) {
    if (i.pin == -1 && !is_combinational(nl.type(i.node))) {
      values[i.node] = i.value;
    }
  }
  Val ins[kMaxFanin];
  for (NodeId id : lv_.topo_order()) {
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      ins[p] = values[fins[p]];
      apply_scalar(inj, id, static_cast<int>(p), ins[p]);
    }
    Val out = eval_gate(nl.type(id), ins, fins.size());
    apply_scalar(inj, id, -1, out);
    values[id] = out;
  }
}

Val CombSim::d_value(NodeId dff, const std::vector<Val>& values,
                     std::span<const Injection> inj) const {
  Val v = values[lv_.netlist().fanins(dff)[0]];
  apply_scalar(inj, dff, 0, v);
  return v;
}

}  // namespace fsct

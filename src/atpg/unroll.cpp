#include "atpg/unroll.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "netlist/levelize.h"

namespace fsct {

std::vector<char> fault_forward_closure(const Levelizer& lv, NodeId site) {
  const Netlist& nl = lv.netlist();
  std::vector<char> cone(nl.size(), 0);
  std::vector<NodeId> stack{site};
  cone[site] = 1;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId s : lv.fanouts(id)) {
      if (!cone[s]) {
        cone[s] = 1;
        stack.push_back(s);  // crosses DFFs: stuck-at faults persist
      }
    }
  }
  return cone;
}

std::vector<char> compute_keep_mask(const Levelizer& lv,
                                    const std::vector<Val>& scan_values,
                                    const std::vector<char>& fault_cone,
                                    std::span<const NodeId> roots) {
  const Netlist& nl = lv.netlist();
  auto frozen = [&](NodeId n) {
    if (!fault_cone.empty() && fault_cone[n]) return false;
    return scan_values[n] != Val::X;
  };
  std::vector<char> keep(nl.size(), 0);
  std::vector<NodeId> stack;
  for (NodeId r : roots) {
    if (!keep[r]) {
      keep[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId f : nl.fanins(id)) {
      if (keep[f] || frozen(f)) continue;
      keep[f] = 1;
      stack.push_back(f);  // DFF fanins cross the frame boundary uniformly
    }
  }
  return keep;
}

UnrolledModel unroll(const UnrollSpec& spec) {
  if (spec.base == nullptr || spec.frames < 1) {
    throw std::invalid_argument("unroll: bad spec");
  }
  if (spec.keep != nullptr && spec.fold_values == nullptr) {
    throw std::invalid_argument("unroll: keep requires fold_values");
  }
  const Levelizer& lv = *spec.base;
  const Netlist& b = lv.netlist();
  const std::size_t n_ff = b.dffs().size();
  if (spec.controllable_state.size() != n_ff ||
      spec.observable_ff.size() != n_ff) {
    throw std::invalid_argument("unroll: per-FF vector size mismatch");
  }

  auto kept = [&](NodeId id) {
    return spec.keep == nullptr || (*spec.keep)[id] != 0;
  };

  UnrolledModel m;
  m.nl.set_name(b.name() + "_x" + std::to_string(spec.frames));
  m.map.assign(static_cast<std::size_t>(spec.frames),
               std::vector<NodeId>(b.size(), kNullNode));
  m.cap.assign(static_cast<std::size_t>(spec.frames),
               std::vector<NodeId>(n_ff, kNullNode));
  m.frame_pi.assign(static_cast<std::size_t>(spec.frames), {});
  m.init_state.assign(n_ff, kNullNode);

  NodeId const0 = kNullNode, const1 = kNullNode;
  auto get_const = [&](Val v) {
    if (v == Val::X) {
      throw std::logic_error("unroll: folding an X-valued node");
    }
    if (v == Val::Zero) {
      if (const0 == kNullNode) const0 = m.nl.add_const(false, "_const0");
      return const0;
    }
    if (const1 == kNullNode) const1 = m.nl.add_const(true, "_const1");
    return const1;
  };

  // Maps a base fanin reference within frame `fmap` to an unrolled node,
  // folding pruned nodes to their scan-mode constants.
  auto ref = [&](const std::vector<NodeId>& fmap, NodeId id) -> NodeId {
    if (!kept(id)) return get_const((*spec.fold_values)[id]);
    if (fmap[id] == kNullNode) {
      throw std::logic_error("unroll: reference to unbuilt node " +
                             b.node_name(id));
    }
    return fmap[id];
  };

  std::unordered_map<NodeId, Val> fixed;
  for (auto [pi, v] : spec.fixed_pis) fixed.emplace(pi, v);

  // Frame-0 state inputs (only for kept flip-flops).
  for (std::size_t i = 0; i < n_ff; ++i) {
    const NodeId ff = b.dffs()[i];
    if (!kept(ff)) continue;
    m.init_state[i] = m.nl.add_input(b.node_name(ff) + "@s0");
    m.map[0][ff] = m.init_state[i];
  }

  for (int f = 0; f < spec.frames; ++f) {
    const std::string suf = "@" + std::to_string(f);
    auto& fmap = m.map[static_cast<std::size_t>(f)];
    // PIs.
    m.frame_pi[static_cast<std::size_t>(f)].assign(b.inputs().size(),
                                                   kNullNode);
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      const NodeId pi = b.inputs()[i];
      NodeId u = kNullNode;
      if (auto it = fixed.find(pi); it != fixed.end()) {
        u = get_const(it->second);
      } else if (kept(pi)) {
        u = m.nl.add_input(b.node_name(pi) + suf);
      }
      fmap[pi] = u;
      m.frame_pi[static_cast<std::size_t>(f)][i] = u;
    }
    // Base constants.
    for (NodeId id = 0; id < b.size(); ++id) {
      if (b.type(id) == GateType::Const0) fmap[id] = get_const(Val::Zero);
      if (b.type(id) == GateType::Const1) fmap[id] = get_const(Val::One);
    }
    // Q values for frame f > 0 come from frame f-1 capture buffers.
    if (f > 0) {
      for (std::size_t i = 0; i < n_ff; ++i) {
        if (kept(b.dffs()[i])) {
          fmap[b.dffs()[i]] = m.cap[static_cast<std::size_t>(f - 1)][i];
        }
      }
    }
    // Combinational gates.
    for (NodeId g : lv.topo_order()) {
      if (!kept(g)) continue;
      std::vector<NodeId> fins;
      fins.reserve(b.fanins(g).size());
      for (NodeId x : b.fanins(g)) fins.push_back(ref(fmap, x));
      fmap[g] = m.nl.add_gate(b.type(g), std::move(fins), b.node_name(g) + suf);
    }
    // Capture buffers.
    for (std::size_t i = 0; i < n_ff; ++i) {
      const NodeId ff = b.dffs()[i];
      if (!kept(ff)) continue;
      const NodeId dnet = b.fanins(ff)[0];
      m.cap[static_cast<std::size_t>(f)][i] = m.nl.add_gate(
          GateType::Buf, {ref(fmap, dnet)},
          b.node_name(ff) + "@c" + std::to_string(f));
    }
    // Observations.
    for (NodeId po : b.outputs()) {
      if (kept(po) && fmap[po] != kNullNode) m.observe.push_back(fmap[po]);
    }
    for (std::size_t i = 0; i < n_ff; ++i) {
      if (spec.observable_ff[i] && kept(b.dffs()[i])) {
        m.observe.push_back(m.cap[static_cast<std::size_t>(f)][i]);
      }
    }
  }

  // Controllability flags.
  m.controllable.assign(m.nl.size(), 0);
  for (int f = 0; f < spec.frames; ++f) {
    for (std::size_t i = 0; i < b.inputs().size(); ++i) {
      const NodeId u = m.frame_pi[static_cast<std::size_t>(f)][i];
      if (u != kNullNode && m.nl.type(u) == GateType::Input) {
        m.controllable[u] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n_ff; ++i) {
    if (spec.controllable_state[i] && m.init_state[i] != kNullNode) {
      m.controllable[m.init_state[i]] = 1;
    }
  }

  return m;
}

SeqTest UnrolledModel::base_inputs(
    std::span<const std::pair<NodeId, Val>> assignment) const {
  SeqTest t;
  t.init_state.assign(init_state.size(), Val::X);
  for (const std::vector<NodeId>& fpi : frame_pi) {
    t.pi_frames.emplace_back(fpi.size(), Val::X);
  }
  // An assignment names Input nodes only, and each of those is exactly one
  // state or frame-PI entry, so one slot per node inverts both maps.
  std::vector<Val*> slot(nl.size(), nullptr);
  auto bind = [&slot](NodeId u, Val* to) {
    if (u != kNullNode) slot[u] = to;
  };
  for (std::size_t i = 0; i < init_state.size(); ++i) {
    bind(init_state[i], &t.init_state[i]);
  }
  for (std::size_t f = 0; f < frame_pi.size(); ++f) {
    for (std::size_t i = 0; i < frame_pi[f].size(); ++i) {
      bind(frame_pi[f][i], &t.pi_frames[f][i]);
    }
  }
  for (auto [node, v] : assignment) {
    if (Val* s = slot[node]) *s = v;
  }
  return t;
}

std::vector<FaultSite> UnrolledModel::map_fault(const Fault& f) const {
  std::vector<FaultSite> sites;
  const Val sv = f.stuck_one ? Val::One : Val::Zero;
  auto add = [&](NodeId node, int pin) {
    if (node == kNullNode) return;
    FaultSite s{node, pin, sv};
    for (const FaultSite& e : sites) {
      if (e.node == s.node && e.pin == s.pin) return;
    }
    sites.push_back(s);
  };
  // A base node is a DFF iff its frame-0 Q maps to one of the state inputs.
  bool is_dff = false;
  std::size_t ffi = 0;
  for (std::size_t i = 0; i < init_state.size(); ++i) {
    if (init_state[i] != kNullNode && map[0][f.node] == init_state[i]) {
      is_dff = true;
      ffi = i;
      break;
    }
  }
  if (is_dff) {
    if (f.pin == -1) {
      add(init_state[ffi], -1);
      for (int fr = 0; fr < frames(); ++fr) {
        add(cap[static_cast<std::size_t>(fr)][ffi], -1);
      }
    } else {
      for (int fr = 0; fr < frames(); ++fr) {
        add(cap[static_cast<std::size_t>(fr)][ffi], 0);
      }
    }
  } else {
    for (int fr = 0; fr < frames(); ++fr) {
      add(map[static_cast<std::size_t>(fr)][f.node], f.pin);
    }
  }
  return sites;
}

}  // namespace fsct

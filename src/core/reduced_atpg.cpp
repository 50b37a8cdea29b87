#include "core/reduced_atpg.h"

#include <algorithm>

namespace fsct {

std::vector<Cost> fault_excitation_costs(const Levelizer& lv,
                                         const std::vector<char>& controllable,
                                         std::span<const Fault> faults) {
  const Scoap sc = compute_scoap(lv, controllable);
  const Netlist& nl = lv.netlist();
  std::vector<Cost> cost;
  cost.reserve(faults.size());
  for (const Fault& f : faults) {
    const NodeId site =
        f.pin >= 0 ? nl.fanins(f.node)[static_cast<std::size_t>(f.pin)]
                   : f.node;
    cost.push_back(sc.cc(site, !f.stuck_one));
  }
  return cost;
}

std::vector<std::size_t> scoap_target_order(
    std::span<const Cost> cost, std::span<const std::size_t> targets) {
  std::vector<std::size_t> order(targets.begin(), targets.end());
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return a < b;
  });
  return order;
}

ReducedCircuitBuilder::ReducedCircuitBuilder(const ScanModeModel& model,
                                             ReducedModelOptions opt)
    : model_(model),
      opt_(opt),
      seq_builder_(model.levelizer().netlist(), model.design()) {}

int ReducedCircuitBuilder::frames_for(const AtpgGroup& g,
                                      int extra_frames) const {
  int spread = 0;
  for (const ChainWindow& w : g.window) {
    spread = std::max(spread, w.max_seg - w.min_seg);
  }
  return std::min(opt_.frame_cap,
                  std::max(3, spread + opt_.frame_slack + extra_frames));
}

ReducedModel ReducedCircuitBuilder::build(const AtpgGroup& g,
                                          std::span<const Fault> group_faults,
                                          int extra_frames) const {
  const Levelizer& base_lv = model_.levelizer();
  const Netlist& nl = base_lv.netlist();
  const std::size_t n_ff = nl.dffs().size();

  // Per-FF controllability/observability from the group's window.
  std::vector<char> controllable(n_ff, 0), observable(n_ff, 0);
  for (std::size_t i = 0; i < n_ff; ++i) {
    const auto [c, k] = seq_builder_.ff_positions()[i];
    if (c < 0) continue;  // not on any chain: neither
    const ChainWindow* w = nullptr;
    for (const ChainWindow& cw : g.window) {
      if (cw.chain == c) {
        w = &cw;
        break;
      }
    }
    if (w == nullptr) {  // unaffected chain: fully controllable + observable
      controllable[i] = 1;
      observable[i] = 1;
    } else {
      controllable[i] = (k < w->min_seg);
      observable[i] = (k >= w->max_seg);
    }
  }

  // Union forward closure of the group's faults.
  std::vector<char> cone(nl.size(), 0);
  for (const Fault& f : group_faults) {
    const std::vector<char> c = fault_forward_closure(base_lv, f.node);
    for (NodeId id = 0; id < nl.size(); ++id) cone[id] |= c[id];
  }

  // Roots: fault sites, observable FFs within the cone, POs within the cone.
  std::vector<NodeId> roots;
  for (const Fault& f : group_faults) roots.push_back(f.node);
  for (std::size_t i = 0; i < n_ff; ++i) {
    if (observable[i] && cone[nl.dffs()[i]]) {
      roots.push_back(nl.dffs()[i]);
    } else if (observable[i] && !cone[nl.dffs()[i]]) {
      observable[i] = 0;  // cannot show the effect; keep the model small
    }
  }
  if (opt_.observe_pos) {
    for (NodeId po : nl.outputs()) {
      if (cone[po]) roots.push_back(po);
    }
  }

  const std::vector<char> keep =
      compute_keep_mask(base_lv, model_.values(), cone, roots);

  UnrollSpec spec;
  spec.base = &nl;
  spec.frames = frames_for(g, extra_frames);
  spec.fixed_pis = model_.design().pi_constraints;
  spec.controllable_state.assign(controllable.begin(), controllable.end());
  spec.observable_ff.assign(observable.begin(), observable.end());
  spec.observe_pos = opt_.observe_pos;
  spec.keep = &keep;
  spec.fold_values = &model_.values();

  ReducedModel rm;
  rm.frames = spec.frames;
  rm.um = unroll(spec);
  rm.lv = std::make_unique<Levelizer>(rm.um.nl);
  rm.podem = std::make_unique<Podem>(*rm.lv, rm.um.controllable,
                                     rm.um.observe, opt_.atpg);
  return rm;
}

SeqTest ReducedCircuitBuilder::extract_test(const ReducedModel& rm,
                                            const AtpgResult& res) const {
  const Netlist& nl = model_.levelizer().netlist();
  SeqTest t;
  t.init_state.assign(nl.dffs().size(), Val::X);
  t.pi_frames.assign(static_cast<std::size_t>(rm.um.frames()),
                     std::vector<Val>(nl.inputs().size(), Val::X));
  // Invert the unrolled-input maps.
  for (auto [node, v] : res.assignment) {
    bool matched = false;
    for (std::size_t i = 0; i < rm.um.init_state.size() && !matched; ++i) {
      if (rm.um.init_state[i] == node) {
        t.init_state[i] = v;
        matched = true;
      }
    }
    for (int f = 0; f < rm.um.frames() && !matched; ++f) {
      const auto& fpi = rm.um.frame_pi[static_cast<std::size_t>(f)];
      for (std::size_t i = 0; i < fpi.size(); ++i) {
        if (fpi[i] == node) {
          t.pi_frames[static_cast<std::size_t>(f)][i] = v;
          matched = true;
          break;
        }
      }
    }
  }
  return t;
}

TestSequence ReducedCircuitBuilder::realize(const SeqTest& t,
                                            std::size_t observe_cycles) const {
  const ScanDesign& d = model_.design();
  // Chain-local wanted states from the per-FF init state.
  std::vector<std::vector<Val>> per_chain(d.chains.size());
  for (std::size_t c = 0; c < d.chains.size(); ++c) {
    per_chain[c].assign(d.chains[c].length(), Val::X);
  }
  for (std::size_t i = 0; i < t.init_state.size(); ++i) {
    const auto [c, k] = seq_builder_.ff_positions()[i];
    if (c >= 0 && t.init_state[i] != Val::X) {
      per_chain[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] =
          t.init_state[i];
    }
  }
  TestSequence seq = seq_builder_.load_state(per_chain);
  const std::vector<Val> base = seq_builder_.base_vector(Val::Zero);
  for (const std::vector<Val>& frame : t.pi_frames) {
    std::vector<Val> v = base;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (frame[i] != Val::X) v[i] = frame[i];
    }
    seq.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < observe_cycles; ++i) seq.push_back(base);
  return seq;
}

}  // namespace fsct

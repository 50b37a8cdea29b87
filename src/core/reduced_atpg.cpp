#include "core/reduced_atpg.h"

#include <algorithm>

namespace fsct {
namespace {
// Frames a model gets beyond its window's spread.
constexpr int kFrameSlack = 4;
}  // namespace

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
    : model_(model), opt_(opt) {}

int ReducedCircuitBuilder::frames_for(const AtpgGroup& g,
                                      int extra_frames) const {
  int spread = 0;
  for (const ChainWindow& w : g.window) {
    spread = std::max(spread, w.max_seg - w.min_seg);
  }
  return std::min(opt_.frame_cap,
                  std::max(3, spread + kFrameSlack + extra_frames));
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
    const auto [c, k] = model_.sequences().ff_positions()[i];
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
  for (NodeId po : nl.outputs()) {
    if (cone[po]) roots.push_back(po);
  }

  const std::vector<char> keep =
      compute_keep_mask(base_lv, model_.values(), cone, roots);

  UnrollSpec spec;
  spec.base = &base_lv;
  spec.frames = frames_for(g, extra_frames);
  spec.fixed_pis = model_.design().pi_constraints;
  spec.controllable_state.assign(controllable.begin(), controllable.end());
  spec.observable_ff.assign(observable.begin(), observable.end());
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

TestSequence ReducedCircuitBuilder::realize(const SeqTest& t) const {
  const ScanDesign& d = model_.design();
  const ScanSequenceBuilder& sb = model_.sequences();
  // Chain-local wanted states from the per-FF init state.
  std::vector<std::vector<Val>> per_chain(d.chains.size());
  for (std::size_t c = 0; c < d.chains.size(); ++c) {
    per_chain[c].assign(d.chains[c].length(), Val::X);
  }
  for (std::size_t i = 0; i < t.init_state.size(); ++i) {
    const auto [c, k] = sb.ff_positions()[i];
    if (c >= 0 && t.init_state[i] != Val::X) {
      per_chain[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] =
          t.init_state[i];
    }
  }
  TestSequence seq = sb.load_state(per_chain);
  const std::vector<Val> base = sb.base_vector(Val::Zero);
  for (const std::vector<Val>& frame : t.pi_frames) {
    std::vector<Val> v = base;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (frame[i] != Val::X) v[i] = frame[i];
    }
    seq.push_back(std::move(v));
  }
  seq.insert(seq.end(), model_.observe_cycles(), base);
  return seq;
}

}  // namespace fsct

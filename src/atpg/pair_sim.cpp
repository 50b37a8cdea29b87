#include "atpg/pair_sim.h"

#include <algorithm>
#include <stdexcept>

namespace fsct {

PairSim::PairSim(const Levelizer& lv)
    : lv_(lv), soa_(SoaCircuit::compile(lv)) {
  const std::size_t n = soa_->size();
  values_.assign(n, {});
  out_override_.assign(n, Val::X);
  pin_sites_.assign(n, {});
  has_pin_sites_.assign(n, 0);
  effect_flag_.assign(n, 0);
  in_effect_list_.assign(n, 0);
  observed_.assign(n, 0);
  buckets_.resize(static_cast<std::size_t>(soa_->max_level()) + 1);
  queued_.assign(n, 0);
}

void PairSim::set_observed(std::span<const char> mask) {
  observed_.assign(mask.begin(), mask.end());
  observed_.resize(soa_->size(), 0);
  observed_effect_count_ = 0;
  for (NodeId id = 0; id < observed_.size(); ++id) {
    if (observed_[id] && effect_flag_[id]) ++observed_effect_count_;
  }
}

void PairSim::init(std::span<const FaultSite> sites) {
  const std::size_t n = soa_->size();
  values_.assign(n, PairVal{});
  out_override_.assign(n, Val::X);
  for (NodeId id = 0; id < n; ++id) {
    if (has_pin_sites_[id]) {
      pin_sites_[id].clear();
      has_pin_sites_[id] = 0;
    }
  }
  effect_flag_.assign(n, 0);
  in_effect_list_.assign(n, 0);
  effect_list_.clear();
  effect_count_ = 0;
  observed_effect_count_ = 0;

  for (const FaultSite& s : sites) {
    if (s.pin == -1) {
      out_override_[s.node] = s.value;
    } else {
      pin_sites_[s.node].push_back(s);
      has_pin_sites_[s.node] = 1;
    }
  }

  // Full settle: sources, then evaluation order.
  for (NodeId id = 0; id < n; ++id) {
    const GateType t = soa_->type(id);
    if (t == GateType::Const0 || t == GateType::Const1) {
      const Val v = (t == GateType::Const1) ? Val::One : Val::Zero;
      PairVal pv{v, v};
      if (out_override_[id] != Val::X) pv.f = out_override_[id];
      note_change(id, pv);
    } else if (t == GateType::Input) {
      PairVal pv{Val::X, Val::X};
      if (out_override_[id] != Val::X) pv.f = out_override_[id];
      note_change(id, pv);
    } else if (t == GateType::Dff) {
      throw std::logic_error("PairSim requires a pure combinational netlist");
    }
  }
  for (NodeId id : lv_.topo_order()) {
    note_change(id, eval_node(id));
  }
}

PairVal PairSim::eval_node(NodeId id) const {
  const NodeId* fins = soa_->fanin(id);
  const std::uint32_t n = soa_->fanin_count(id);
  Val gin[kMaxFanin], fin[kMaxFanin];
  bool diverge = has_pin_sites_[id] != 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    gin[p] = values_[fins[p]].g;
    fin[p] = values_[fins[p]].f;
    diverge |= gin[p] != fin[p];
  }
  if (has_pin_sites_[id]) {
    for (const FaultSite& s : pin_sites_[id]) {
      fin[s.pin] = s.value;
    }
  }
  PairVal pv;
  const GateType t = soa_->type(id);
  pv.g = eval_gate(t, gin, n);
  pv.f = diverge ? eval_gate(t, fin, n) : pv.g;
  if (out_override_[id] != Val::X) pv.f = out_override_[id];
  return pv;
}

void PairSim::note_change(NodeId id, PairVal nv) {
  if (values_[id] == nv && effect_flag_[id] == (has_effect(nv) ? 1 : 0)) {
    values_[id] = nv;
    return;
  }
  values_[id] = nv;
  const bool eff = has_effect(nv);
  if (eff && !effect_flag_[id]) {
    effect_flag_[id] = 1;
    ++effect_count_;
    observed_effect_count_ += observed_[id];
    if (!in_effect_list_[id]) {
      in_effect_list_[id] = 1;
      effect_list_.push_back(id);
    }
  } else if (!eff && effect_flag_[id]) {
    effect_flag_[id] = 0;
    --effect_count_;
    observed_effect_count_ -= observed_[id];
    // lazy removal from effect_list_ (compacted in effect_nets())
  }
}

void PairSim::set_source(NodeId src, Val v) {
  const GateType t = soa_->type(src);
  if (is_combinational(t) || t == GateType::Dff) {
    throw std::invalid_argument("set_source on non-source node");
  }
  PairVal pv{v, v};
  if (out_override_[src] != Val::X) pv.f = out_override_[src];
  if (values_[src] == pv) return;
  note_change(src, pv);
  propagate_from(src);
}

void PairSim::propagate_from(NodeId src) {
  const SoaCircuit& c = *soa_;
  // The sweep is bounded to [lo, hi] — the level range actually enqueued —
  // instead of walking every bucket; on deep unrolled models a PODEM
  // assignment cone touches a narrow band of the level space.  Fanouts are
  // strictly higher-level, so hi only grows ahead of the sweep and the
  // processing order (ascending level, push order within a bucket) is
  // exactly that of a full-sweep walk.
  std::size_t lo = buckets_.size(), hi = 0;
  const auto enqueue = [&](NodeId s) {
    if (!queued_[s]) {
      queued_[s] = 1;
      const auto levl = static_cast<std::size_t>(c.level(s));
      lo = std::min(lo, levl);
      hi = std::max(hi, levl);
      buckets_[levl].push_back(s);
    }
  };
  {
    const NodeId* fo = c.fanout(src);
    const std::uint32_t nfo = c.fanout_count(src);
    for (std::uint32_t i = 0; i < nfo; ++i) enqueue(fo[i]);
  }
  for (std::size_t l = lo; l <= hi; ++l) {
    auto& bucket = buckets_[l];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      queued_[id] = 0;
      const PairVal nv = eval_node(id);
      if (nv == values_[id]) continue;
      note_change(id, nv);
      const NodeId* fo = c.fanout(id);
      const std::uint32_t nfo = c.fanout_count(id);
      for (std::uint32_t k = 0; k < nfo; ++k) enqueue(fo[k]);
    }
    bucket.clear();
  }
}

const std::vector<NodeId>& PairSim::effect_nets() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < effect_list_.size(); ++r) {
    const NodeId id = effect_list_[r];
    if (effect_flag_[id]) {
      effect_list_[w++] = id;
    } else {
      in_effect_list_[id] = 0;
    }
  }
  effect_list_.resize(w);
  return effect_list_;
}

}  // namespace fsct

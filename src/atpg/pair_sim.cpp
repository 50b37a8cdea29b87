#include "atpg/pair_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fsct {

PairSim::PairSim(const Levelizer& lv)
    : lv_(lv), soa_(SoaCircuit::compile(lv)) {
  const std::size_t n = soa_->size();
  node_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    node_[id].level = static_cast<std::uint32_t>(soa_->level(id));
  }
  const std::size_t levels = static_cast<std::size_t>(soa_->max_level()) + 1;
  buckets_.resize(levels);
  level_bits_.assign((levels + 63) / 64, 0);
}

void PairSim::set_observed(std::span<const char> mask) {
  observed_effect_count_ = 0;
  for (NodeId id = 0; id < node_.size(); ++id) {
    NodeState& s = node_[id];
    s.flags &= static_cast<std::uint8_t>(~kObserved);
    if (id < mask.size() && mask[id]) {
      s.flags |= kObserved;
      if (s.flags & kEffect) ++observed_effect_count_;
    }
  }
}

void PairSim::init(std::span<const FaultSite> sites) {
  for (NodeState& s : node_) {
    s.val = PairVal{};
    s.out_override = Val::X;
    s.flags &= kObserved;
  }
  pin_sites_.clear();
  effect_list_.clear();
  effect_count_ = 0;
  observed_effect_count_ = 0;
  trail_.clear();

  for (const FaultSite& s : sites) {
    if (s.pin == -1) {
      node_[s.node].out_override = s.value;
    } else {
      pin_sites_.push_back(s);
      node_[s.node].flags |= kPinSites;
    }
  }
  // Stable: a later site on the same pin still overrides an earlier one.
  std::ranges::stable_sort(pin_sites_, {}, &FaultSite::node);

  // Full settle: sources, then evaluation order.
  const std::size_t n = node_.size();
  for (NodeId id = 0; id < n; ++id) {
    const GateType t = soa_->type(id);
    if (t == GateType::Const0 || t == GateType::Const1) {
      const Val v = (t == GateType::Const1) ? Val::One : Val::Zero;
      PairVal pv{v, v};
      if (node_[id].out_override != Val::X) pv.f = node_[id].out_override;
      note_change(id, pv);
    } else if (t == GateType::Input) {
      PairVal pv{Val::X, Val::X};
      if (node_[id].out_override != Val::X) pv.f = node_[id].out_override;
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
  const NodeState* st = node_.data();
  const NodeState& self = st[id];
  const NodeId* fins = soa_->fanin(id);
  const std::uint32_t n = soa_->fanin_count(id);
  Val gin[kMaxFanin], fin[kMaxFanin];
  const bool pin_sites = (self.flags & kPinSites) != 0;
  bool diverge = pin_sites;
  for (std::uint32_t p = 0; p < n; ++p) {
    const PairVal v = st[fins[p]].val;
    gin[p] = v.g;
    fin[p] = v.f;
    diverge |= v.g != v.f;
  }
  if (pin_sites) {
    for (const FaultSite& s :
         std::ranges::equal_range(pin_sites_, id, {}, &FaultSite::node)) {
      fin[s.pin] = s.value;
    }
  }
  PairVal pv;
  const GateType t = soa_->type(id);
  pv.g = eval_gate(t, gin, n);
  pv.f = diverge ? eval_gate(t, fin, n) : pv.g;
  if (self.out_override != Val::X) pv.f = self.out_override;
  return pv;
}

void PairSim::note_change(NodeId id, PairVal nv) {
  NodeState& s = node_[id];
  s.val = nv;
  const bool eff = has_effect(nv);
  if (eff == ((s.flags & kEffect) != 0)) return;
  const bool observed = (s.flags & kObserved) != 0;
  if (eff) {
    s.flags |= kEffect;
    ++effect_count_;
    observed_effect_count_ += observed;
    if (!(s.flags & kInEffectList)) {
      s.flags |= kInEffectList;
      effect_list_.push_back(id);
    }
  } else {
    s.flags &= static_cast<std::uint8_t>(~kEffect);
    --effect_count_;
    observed_effect_count_ -= observed;
    // lazy removal from effect_list_ (compacted in effect_nets())
  }
}

void PairSim::record_change(NodeId id, PairVal nv) {
  trail_.push_back({id, node_[id].val});
  note_change(id, nv);
}

void PairSim::undo_to(std::size_t mark) {
  // Every state since `mark` refines the state at `mark` (assignments only
  // turn X into binary, a flip swaps one binary source value, and 3-valued
  // simulation is monotone), so each net effect-flagged at `mark` stayed
  // flagged, and so listed, throughout.  Restoring therefore only clears
  // flags; one raised by an intermediate entry is cleared again by an older
  // one, and nothing is pushed on effect_list_, whose order stays that of
  // re-simulating the un-assignment.
  for (std::size_t i = trail_.size(); i > mark; --i) {
    const TrailEntry& e = trail_[i - 1];
    NodeState& s = node_[e.node];
    s.val = e.old;
    if (has_effect(e.old) == ((s.flags & kEffect) != 0)) continue;
    const std::size_t observed = (s.flags & kObserved) != 0;
    s.flags ^= kEffect;
    if (s.flags & kEffect) {
      ++effect_count_;
      observed_effect_count_ += observed;
    } else {
      --effect_count_;
      observed_effect_count_ -= observed;
    }
  }
  trail_.resize(mark);
}

void PairSim::set_source(NodeId src, Val v) {
  const GateType t = soa_->type(src);
  if (is_combinational(t) || t == GateType::Dff) {
    throw std::invalid_argument("set_source on non-source node");
  }
  PairVal pv{v, v};
  if (node_[src].out_override != Val::X) pv.f = node_[src].out_override;
  if (node_[src].val == pv) return;
  record_change(src, pv);
  propagate_from(src);
}

void PairSim::propagate_from(NodeId src) {
  const SoaCircuit& c = *soa_;
  NodeState* const st = node_.data();
  // Non-empty buckets are found through level_bits_, lowest level first,
  // instead of walking every level of the enqueued range; on deep unrolled
  // models a PODEM assignment cone touches a sparse set of levels.
  // Fanouts are strictly higher-level, so bits are only set ahead of the
  // sweep and the processing order (ascending level, push order within a
  // bucket) is exactly that of a full-sweep walk.
  std::uint32_t lo = UINT32_MAX, hi = 0;
  const auto enqueue = [&](NodeId s) {
    NodeState& ns = st[s];
    if (ns.flags & kQueued) return;
    ns.flags |= kQueued;
    const std::uint32_t l = ns.level;
    lo = std::min(lo, l);
    hi = std::max(hi, l);
    buckets_[l].push_back(s);
    level_bits_[l >> 6] |= std::uint64_t{1} << (l & 63u);
  };
  {
    const NodeId* fo = c.fanout(src);
    const std::uint32_t nfo = c.fanout_count(src);
    for (std::uint32_t i = 0; i < nfo; ++i) enqueue(fo[i]);
  }
  if (lo > hi) return;
  for (std::uint32_t w = lo >> 6; w <= (hi >> 6); ++w) {
    while (level_bits_[w] != 0) {
      const auto b = static_cast<unsigned>(std::countr_zero(level_bits_[w]));
      auto& bucket = buckets_[(std::size_t{w} << 6) | b];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const NodeId id = bucket[i];
        st[id].flags &= static_cast<std::uint8_t>(~kQueued);
        const PairVal nv = eval_node(id);
        if (nv == st[id].val) continue;
        record_change(id, nv);
        const NodeId* fo = c.fanout(id);
        const std::uint32_t nfo = c.fanout_count(id);
        for (std::uint32_t k = 0; k < nfo; ++k) enqueue(fo[k]);
      }
      bucket.clear();
      level_bits_[w] &= ~(std::uint64_t{1} << b);
    }
  }
}

const std::vector<NodeId>& PairSim::effect_nets() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < effect_list_.size(); ++r) {
    const NodeId id = effect_list_[r];
    if (node_[id].flags & kEffect) {
      effect_list_[w++] = id;
    } else {
      node_[id].flags &= static_cast<std::uint8_t>(~kInEffectList);
    }
  }
  effect_list_.resize(w);
  return effect_list_;
}

}  // namespace fsct

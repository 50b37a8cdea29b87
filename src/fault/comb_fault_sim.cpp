#include "fault/comb_fault_sim.h"

#include <bit>
#include <stdexcept>

#include "core/obs.h"

namespace fsct {

CombFaultSim::CombFaultSim(const Levelizer& lv, std::vector<NodeId> observe)
    : soa_(SoaCircuit::compile(lv)), observe_(std::move(observe)) {
  observed_net_.assign(soa_->size(), 0);
  for (NodeId n : observe_) {
    if (soa_->type(n) == GateType::Dff) {
      observed_net_[soa_->fanin(n)[0]] = 1;  // observe the D pin's net
    } else {
      observed_net_[n] = 1;
    }
  }
}

CombFaultSim::Scratch CombFaultSim::make_scratch(
    std::span<const WideVal<1>> good) const {
  Scratch s;
  s.cur.assign(good.begin(), good.end());
  s.buckets.resize(static_cast<std::size_t>(soa_->max_level()) + 1);
  s.queued.assign(soa_->size(), 0);
  return s;
}

std::uint64_t CombFaultSim::simulate_fault(const Fault& f,
                                           std::span<const WideVal<1>> good,
                                           Scratch& s) const {
  using W = WideVal<1>;
  const SoaCircuit& c = *soa_;
  std::uint64_t det = 0;

  W ins[kMaxFanin];
  auto eval_cur = [&](NodeId id, const Fault* pin_fault) {
    const NodeId* fins = c.fanin(id);
    const std::uint32_t n = c.fanin_count(id);
    for (std::uint32_t p = 0; p < n; ++p) ins[p] = s.cur[fins[p]];
    if (pin_fault) {
      ins[pin_fault->pin] =
          W::broadcast(pin_fault->stuck_one ? Val::One : Val::Zero);
    }
    return eval_gate_wide<1>(c.type(id), ins, n);
  };

  auto enqueue = [&](NodeId id) {
    s.queued[id] = 1;
    s.buckets[static_cast<std::size_t>(c.level(id))].push_back(id);
  };

  // Seed the event queue with the fault site's effect.
  auto touch = [&](NodeId id, const W& v) {
    if (v == s.cur[id]) return;
    ++s.events;
    s.cur[id] = v;
    s.dirty.push_back(id);
    if (observed_net_[id]) {
      det |= (good[id].zero[0] & v.one[0]) | (good[id].one[0] & v.zero[0]);
    }
    const NodeId* fo = c.fanout(id);
    for (std::uint32_t k = 0, n = c.fanout_count(id); k < n; ++k) {
      if (!s.queued[fo[k]]) enqueue(fo[k]);
    }
  };

  const Val sv = f.stuck_one ? Val::One : Val::Zero;
  if (f.pin == -1) {
    touch(f.node, W::broadcast(sv));
  } else if (!s.queued[f.node] && is_combinational(c.type(f.node))) {
    enqueue(f.node);
  } else if (c.type(f.node) == GateType::Dff) {
    // D-pin fault of a DFF: the observed D net is healthy, but the value
    // captured is stuck.  In the combinational view this is equivalent to
    // observing a constant at that D pin; we model it by direct compare.
    const NodeId dnet = c.fanin(f.node)[0];
    if (observed_net_[dnet]) {
      det |= (sv == Val::One) ? good[dnet].zero[0] : good[dnet].one[0];
    }
  }

  // Propagate level by level.
  for (auto& bucket : s.buckets) {
    for (std::size_t bi = 0; bi < bucket.size(); ++bi) {
      const NodeId id = bucket[bi];
      s.queued[id] = 0;
      const bool site = (f.pin >= 0 && f.node == id);
      W v = eval_cur(id, site ? &f : nullptr);
      if (f.pin == -1 && f.node == id) v = W::broadcast(sv);
      touch(id, v);
    }
    bucket.clear();
  }

  // Restore good values.
  for (NodeId id : s.dirty) s.cur[id] = good[id];
  s.dirty.clear();
  return det;
}

CombFaultSimResult CombFaultSim::run(std::span<const CombPattern> patterns,
                                     std::span<const Fault> faults,
                                     ThreadPool* pool,
                                     ObsRegistry* obs) const {
  const ObsSpan run_span(obs, "ppsfp.run");
  const std::vector<NodeId>& pis = soa_->inputs();
  const std::vector<NodeId>& ffs = soa_->dffs();

  CombFaultSimResult res;
  res.detect_pattern.assign(faults.size(), -1);

  WideSim<1> sim(soa_);
  const std::span<const WideVal<1>> good = sim.values();

  for (std::size_t pbase = 0; pbase < patterns.size(); pbase += 64) {
    const std::size_t pchunk = std::min<std::size_t>(64, patterns.size() - pbase);

    // Load sources for this block of patterns.
    const WideVal<1> x = WideVal<1>::broadcast(Val::X);
    for (NodeId id : pis) sim.value(id) = x;
    for (NodeId id : ffs) sim.value(id) = x;
    for (std::size_t k = 0; k < pchunk; ++k) {
      const CombPattern& pat = patterns[pbase + k];
      if (pat.size() != pis.size() + ffs.size()) {
        throw std::invalid_argument("pattern size != #PI + #FF");
      }
      for (std::size_t i = 0; i < pis.size(); ++i) {
        sim.value(pis[i]).set(static_cast<unsigned>(k), pat[i]);
      }
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        sim.value(ffs[i]).set(static_cast<unsigned>(k), pat[pis.size() + i]);
      }
    }
    sim.run();

    if (obs) obs->add(Ctr::PpsfpBlocks);
    const std::uint64_t valid =
        (pchunk == 64) ? ~0ull : ((1ull << pchunk) - 1);
    auto record = [&](std::size_t fi, std::uint64_t det) {
      det &= valid;
      if (det != 0) {
        res.detect_pattern[fi] =
            static_cast<int>(pbase) + std::countr_zero(det);
        return true;
      }
      return false;
    };

    if (pool != nullptr && pool->jobs() > 1) {
      const std::size_t grain = parallel_grain(faults.size(), pool->jobs(), 16);
      parallel_for(*pool, faults.size(), grain,
                   [&](std::size_t b, std::size_t e) {
                     const ObsSpan span(obs, "ppsfp.chunk");
                     Scratch s = make_scratch(good);
                     std::uint64_t sims = 0, dropped = 0;
                     for (std::size_t fi = b; fi < e; ++fi) {
                       if (res.detect_pattern[fi] >= 0) continue;  // dropped
                       ++sims;
                       dropped += record(fi, simulate_fault(faults[fi], good, s));
                     }
                     if (obs) {
                       obs->add(Ctr::PpsfpFaultSims, sims);
                       obs->add(Ctr::PpsfpEvents, s.events);
                       obs->add(Ctr::PpsfpFaultsDropped, dropped);
                     }
                   });
    } else {
      Scratch s = make_scratch(good);
      std::uint64_t sims = 0, dropped = 0;
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (res.detect_pattern[fi] >= 0) continue;  // fault dropping
        ++sims;
        dropped += record(fi, simulate_fault(faults[fi], good, s));
      }
      if (obs) {
        obs->add(Ctr::PpsfpFaultSims, sims);
        obs->add(Ctr::PpsfpEvents, s.events);
        obs->add(Ctr::PpsfpFaultsDropped, dropped);
      }
    }
  }
  return res;
}

}  // namespace fsct

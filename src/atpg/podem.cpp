#include "atpg/podem.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/obs.h"

namespace fsct {

namespace {
constexpr int kInfDist = std::numeric_limits<int>::max() / 2;
}

Podem::Podem(const Levelizer& lv, std::vector<char> controllable,
             std::vector<NodeId> observe, AtpgOptions opt)
    : lv_(lv),
      controllable_(std::move(controllable)),
      observe_(std::move(observe)),
      scoap_(compute_scoap(lv, controllable_)),
      opt_(opt),
      sim_(lv) {
  const Netlist& nl = lv_.netlist();
  observed_.assign(nl.size(), 0);
  for (NodeId o : observe_) observed_[o] = 1;
  sim_.set_observed(observed_);

  // Static distance (in gates) from each net to the nearest observation,
  // computed over reversed topological order.
  obs_dist_.assign(nl.size(), kInfDist);
  for (NodeId o : observe_) obs_dist_[o] = 0;
  const auto& topo = lv_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    if (obs_dist_[id] < kInfDist) {
      for (NodeId f : nl.fanins(id)) {
        obs_dist_[f] = std::min(obs_dist_[f], obs_dist_[id] + 1);
      }
    }
  }
  xpath_mark_.assign(nl.size(), 0);
  frontier_mark_.assign(nl.size(), 0);
}

bool Podem::detected() const { return sim_.any_observed_effect(); }

// Objectives that would help propagate an effect through `gate` (a gate whose
// output is still X-ish but which sees an effect on some input).
void Podem::side_input_objectives(NodeId gate,
                                  std::vector<Objective>& out) const {
  const SoaCircuit& soa = sim_.soa();
  const GateType t = soa.type(gate);
  const std::span<const NodeId> fins(soa.fanin(gate), soa.fanin_count(gate));
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const Val nc = !controlling_value(t);
      for (NodeId in : fins) {
        if (sim_.value(in).g == Val::X && !has_effect(sim_.value(in))) {
          out.push_back({in, nc});
        }
      }
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      for (NodeId in : fins) {
        if (sim_.value(in).g == Val::X && !has_effect(sim_.value(in))) {
          const Val v =
              (scoap_.cc0[in] <= scoap_.cc1[in]) ? Val::Zero : Val::One;
          out.push_back({in, v});
        }
      }
      break;
    }
    case GateType::Mux: {
      const NodeId sel = fins[0], d0 = fins[1], d1 = fins[2];
      if (has_effect(sim_.value(d0)) && sim_.value(sel).g == Val::X) {
        out.push_back({sel, Val::Zero});
      }
      if (has_effect(sim_.value(d1)) && sim_.value(sel).g == Val::X) {
        out.push_back({sel, Val::One});
      }
      if (has_effect(sim_.value(sel))) {
        // Need d0 != d1; aim for d0=0, d1=1 (or follow what's already set).
        const PairVal v0 = sim_.value(d0), v1 = sim_.value(d1);
        if (v0.g == Val::X) {
          out.push_back({d0, v1.g == Val::X ? Val::Zero : !v1.g});
        } else if (v1.g == Val::X) {
          out.push_back({d1, !v0.g});
        }
      }
      break;
    }
    default:
      break;  // Buf/Not have no side inputs
  }
}

void Podem::find_objectives(std::span<const FaultSite> sites,
                            std::vector<Objective>& out) {
  const Netlist& nl = lv_.netlist();
  out.clear();
  if (!sim_.any_effect()) {
    // Activation phase.
    for (const FaultSite& s : sites) {
      const NodeId anet = (s.pin < 0)
                              ? s.node
                              : nl.fanins(s.node)[static_cast<std::size_t>(
                                    s.pin)];
      const Val need = !s.value;
      const Val cur = sim_.value(anet).g;
      if (cur == Val::X) {
        out.push_back({anet, need});
      } else if (cur == need && s.pin >= 0) {
        // The faulty gate already sees a divergent input but its output
        // swallowed it: treat the site gate like a D-frontier member.
        side_input_objectives(s.node, out);
      }
      // cur == s.value: this site is blocked; try the others.
    }
    return;
  }

  // Propagation phase: build the D-frontier from nets carrying effects.
  // First-occurrence order (mark-array dedupe == the old linear-find dedupe).
  const SoaCircuit& soa = sim_.soa();
  std::vector<NodeId> frontier;
  for (NodeId net : sim_.effect_nets()) {
    const NodeId* fo = soa.fanout(net);
    const std::uint32_t nfo = soa.fanout_count(net);
    for (std::uint32_t i = 0; i < nfo; ++i) {
      const NodeId g = fo[i];
      if (frontier_mark_[g]) continue;
      const PairVal gv = sim_.value(g);
      if (has_effect(gv)) continue;
      if (gv.g != Val::X && gv.f != Val::X) continue;  // blocked binary
      frontier_mark_[g] = 1;
      frontier.push_back(g);
    }
  }
  for (NodeId g : frontier) frontier_mark_[g] = 0;
  // Closest-to-observation first; keep only gates with a live X-path and
  // bound the per-round work on very wide cones.
  std::sort(frontier.begin(), frontier.end(), [&](NodeId a, NodeId b) {
    return obs_dist_[a] < obs_dist_[b];
  });
  if (frontier.size() > static_cast<std::size_t>(opt_.frontier_cap)) {
    frontier.resize(static_cast<std::size_t>(opt_.frontier_cap));
  }
  std::erase_if(frontier, [&](NodeId g) { return !x_path_exists(g); });
  for (NodeId g : frontier) side_input_objectives(g, out);
}

bool Podem::x_path_exists(NodeId from) {
  const SoaCircuit& soa = sim_.soa();
  if (obs_dist_[from] >= kInfDist) return false;
  // The DFS is capped: on large mostly-X models an exact answer costs more
  // than an occasional wasted objective, so past the cap we optimistically
  // report "path exists".
  constexpr std::size_t kVisitCap = 600;
  std::vector<NodeId> stack{from};
  std::vector<NodeId> visited{from};
  xpath_mark_[from] = 1;
  bool found = false;
  while (!stack.empty() && !found) {
    if (visited.size() > kVisitCap) {
      found = true;
      break;
    }
    const NodeId id = stack.back();
    stack.pop_back();
    const PairVal v = sim_.value(id);
    const bool passable = (v.g == Val::X || v.f == Val::X);
    if (!passable && id != from) continue;
    if (observed_[id] && (passable || id == from)) {
      found = true;
      break;
    }
    const NodeId* fo = soa.fanout(id);
    const std::uint32_t nfo = soa.fanout_count(id);
    for (std::uint32_t i = 0; i < nfo; ++i) {
      const NodeId s = fo[i];
      if (xpath_mark_[s] || obs_dist_[s] >= kInfDist) continue;
      xpath_mark_[s] = 1;
      visited.push_back(s);
      stack.push_back(s);
    }
  }
  for (NodeId id : visited) xpath_mark_[id] = 0;
  return found;
}

bool Podem::backtrace(Objective obj, NodeId& pi, Val& pv) const {
  const SoaCircuit& soa = sim_.soa();
  NodeId net = obj.net;
  Val val = obj.val;
  // The walk strictly descends in level, so it terminates.
  for (;;) {
    const GateType t = soa.type(net);
    if (t == GateType::Input || t == GateType::Dff) {
      if (t == GateType::Input && controllable_[net] &&
          sim_.value(net).g == Val::X) {
        pi = net;
        pv = val;
        return true;
      }
      return false;
    }
    if (t == GateType::Const0 || t == GateType::Const1) return false;
    const std::span<const NodeId> fins(soa.fanin(net), soa.fanin_count(net));
    if (t == GateType::Buf) {
      net = fins[0];
      continue;
    }
    if (t == GateType::Not) {
      net = fins[0];
      val = !val;
      continue;
    }
    if (t == GateType::And || t == GateType::Nand || t == GateType::Or ||
        t == GateType::Nor) {
      const Val c = controlling_value(t);
      const Val inner = is_inverting(t) ? !val : val;
      NodeId best = kNullNode;
      Cost best_cost = 0;
      if (inner == c) {
        // Any single input at the controlling value suffices: easiest first.
        best_cost = kInfCost + 1;
        for (NodeId in : fins) {
          if (sim_.value(in).g != Val::X) continue;
          const Cost cc = scoap_.cc(in, c == Val::One);
          if (cc < best_cost) {
            best_cost = cc;
            best = in;
          }
        }
        val = c;
      } else {
        // All inputs must be non-controlling: hardest X input first.
        for (NodeId in : fins) {
          if (sim_.value(in).g != Val::X) continue;
          const Cost cc = scoap_.cc(in, c == Val::Zero);
          if (best == kNullNode || cc > best_cost) {
            best_cost = cc;
            best = in;
          }
        }
        val = !c;
      }
      if (best == kNullNode) return false;
      net = best;
      continue;
    }
    if (t == GateType::Xor || t == GateType::Xnor) {
      // Required parity of one-valued inputs: XOR outputs 1 on odd parity,
      // XNOR on even.
      const bool parity =
          (t == GateType::Xor) ? (val == Val::One) : (val == Val::Zero);
      NodeId chosen = kNullNode;
      int unknowns = 0;
      bool known_par = false;
      for (NodeId in : fins) {
        const Val v = sim_.value(in).g;
        if (v == Val::X) {
          ++unknowns;
          if (chosen == kNullNode) chosen = in;
        } else {
          known_par ^= (v == Val::One);
        }
      }
      if (chosen == kNullNode) return false;
      Val target;
      if (unknowns == 1) {
        target = (parity != known_par) ? Val::One : Val::Zero;
      } else {
        target = (scoap_.cc0[chosen] <= scoap_.cc1[chosen]) ? Val::Zero
                                                            : Val::One;
      }
      net = chosen;
      val = target;
      continue;
    }
    if (t == GateType::Mux) {
      const NodeId sel = fins[0], d0 = fins[1], d1 = fins[2];
      const Val sv = sim_.value(sel).g;
      if (sv == Val::Zero) {
        net = d0;
        continue;
      }
      if (sv == Val::One) {
        net = d1;
        continue;
      }
      // Select the cheaper branch and justify the select line first.
      const Cost c0 = scoap_.cc(d0, val == Val::One);
      const Cost c1 = scoap_.cc(d1, val == Val::One);
      net = sel;
      val = (c0 <= c1) ? Val::Zero : Val::One;
      continue;
    }
    return false;
  }
}

AtpgResult Podem::generate(std::span<const FaultSite> sites,
                           std::int64_t attr_fault) {
  ObsRegistry* aobs = opt_.obs;
  const bool attributed =
      aobs && attr_fault >= 0 && aobs->attribution_enabled();
  // The wall clock is read only on attributed calls, so the disabled path
  // stays at one branch per generate() (the null-sink rule).
  std::chrono::steady_clock::time_point at0;
  if (attributed) at0 = std::chrono::steady_clock::now();
  AtpgResult res = generate_impl(sites);
  if (attributed) {
    const std::size_t f = static_cast<std::size_t>(attr_fault);
    aobs->charge(Attr::PodemCalls, f);
    aobs->charge(Attr::PodemDecisions, f,
                 static_cast<std::uint64_t>(res.decisions));
    aobs->charge(Attr::PodemBacktracks, f,
                 static_cast<std::uint64_t>(res.backtracks));
    aobs->charge(Attr::WallNanos, f,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - at0)
                         .count()));
  }
  if (ObsRegistry* obs = opt_.obs) {
    obs->add(Ctr::PodemCalls);
    switch (res.status) {
      case AtpgStatus::Detected: obs->add(Ctr::PodemDetected); break;
      case AtpgStatus::Untestable: obs->add(Ctr::PodemUntestable); break;
      case AtpgStatus::Aborted: obs->add(Ctr::PodemAborts); break;
    }
    obs->add(Ctr::PodemDecisions, static_cast<std::uint64_t>(res.decisions));
    obs->add(Ctr::PodemBacktracks, static_cast<std::uint64_t>(res.backtracks));
    obs->observe(Hist::PodemDecisionDepth,
                 static_cast<std::uint64_t>(res.decisions));
    obs->observe(Hist::PodemBacktracksPerCall,
                 static_cast<std::uint64_t>(res.backtracks));
  }
  return res;
}

AtpgResult Podem::generate_impl(std::span<const FaultSite> sites) {
  const Netlist& nl = lv_.netlist();
  sim_.init(sites);

  struct Decision {
    NodeId pi;
    Val val;
    bool flipped;
  };
  std::vector<Decision> stack;
  AtpgResult res;
  std::vector<Objective> objectives;

  for (;;) {
    if (detected()) {
      res.status = AtpgStatus::Detected;
      for (NodeId id = 0; id < nl.size(); ++id) {
        if (controllable_[id] && sim_.value(id).g != Val::X) {
          res.assignment.emplace_back(id, sim_.value(id).g);
        }
      }
      return res;
    }

    find_objectives(sites, objectives);
    NodeId pi = kNullNode;
    Val pv = Val::X;
    bool ok = false;
    for (const Objective& obj : objectives) {
      if (backtrace(obj, pi, pv)) {
        ok = true;
        break;
      }
    }

    if (ok) {
      stack.push_back({pi, pv, false});
      sim_.set_source(pi, pv);
      ++res.decisions;
    } else {
      // Backtrack: unwind fully-tried decisions, flip the last open one.
      while (!stack.empty() && stack.back().flipped) {
        sim_.set_source(stack.back().pi, Val::X);
        stack.pop_back();
      }
      if (stack.empty()) {
        res.status = AtpgStatus::Untestable;
        return res;
      }
      if (++res.backtracks > opt_.backtrack_limit) {
        res.status = AtpgStatus::Aborted;
        return res;
      }
      Decision& d = stack.back();
      d.val = (d.val == Val::One) ? Val::Zero : Val::One;
      d.flipped = true;
      sim_.set_source(d.pi, d.val);
    }
  }
}

}  // namespace fsct

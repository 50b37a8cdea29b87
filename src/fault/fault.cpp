#include "fault/fault.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace fsct {

std::string fault_name(const Netlist& nl, const Fault& f) {
  std::string s = nl.node_name(f.node);
  if (f.pin >= 0) {
    s += "/" + std::to_string(f.pin) + "(" +
         nl.node_name(nl.fanins(f.node)[static_cast<std::size_t>(f.pin)]) +
         ")";
  }
  s += f.stuck_one ? " s-a-1" : " s-a-0";
  return s;
}

Injection to_injection(const Fault& f) {
  return {f.node, f.pin, f.stuck_one ? Val::One : Val::Zero};
}

namespace {

std::vector<int> fanout_counts(const Netlist& nl) {
  std::vector<int> n(nl.size(), 0);
  for (NodeId id = 0; id < nl.size(); ++id) {
    for (NodeId f : nl.fanins(id)) {
      if (f != kNullNode) ++n[f];
    }
  }
  // A PO connection also counts as a fanout use.
  for (NodeId id : nl.outputs()) ++n[id];
  return n;
}

struct FaultKeyHash {
  std::size_t operator()(const Fault& f) const {
    return (static_cast<std::size_t>(f.node) << 8) ^
           (static_cast<std::size_t>(f.pin + 1) << 1) ^
           static_cast<std::size_t>(f.stuck_one);
  }
};

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// The dominance tables store 32-bit fault indices.
void check_index_range(std::size_t num_faults) {
  if (num_faults > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("dominance tables: 2^32 or more faults");
  }
}

using FaultIndex = std::unordered_map<Fault, std::size_t, FaultKeyHash>;

FaultIndex build_fault_index(std::span<const Fault> faults) {
  FaultIndex index;
  index.reserve(faults.size() * 2);
  for (std::size_t i = 0; i < faults.size(); ++i) index.emplace(faults[i], i);
  return index;
}

std::size_t idx_of(const FaultIndex& index, const Fault& f) {
  const auto it = index.find(f);
  return it == index.end() ? npos : it->second;
}

std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

// The fault seen on pin (g,p): the branch fault if it exists in the
// universe, otherwise the driver's stem fault (single-fanout driver).
std::size_t pin_fault_index(const Netlist& nl, const FaultIndex& index,
                            const std::vector<int>& fo, NodeId g,
                            std::size_t p, bool v) {
  if (std::size_t i = idx_of(index, {g, static_cast<int>(p), v}); i != npos) {
    return i;
  }
  const NodeId drv = nl.fanins(g)[p];
  if (fo[drv] == 1) return idx_of(index, {drv, -1, v});
  return npos;
}

// Structural-equivalence union-find over `faults`.  `cross_dff` selects
// whether the DFF input<->output rule participates: that equivalence is
// *sequential* (the two faults sit one shift cycle apart), valid when
// collapsing a target list but not for single-frame combinational
// implications, so dominance resolution builds a second union-find without
// it.  Because the universe is emitted in ascending Fault order and unions
// point the larger index at the smaller, uf_find of any member yields the
// class's minimal fault — the representative collapse_equivalent keeps.
std::vector<std::size_t> equivalence_parents(const Netlist& nl,
                                             std::span<const Fault> faults,
                                             const FaultIndex& index,
                                             const std::vector<int>& fo,
                                             bool cross_dff) {
  std::vector<std::size_t> parent(faults.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto unite = [&](std::size_t a, std::size_t b) {
    a = uf_find(parent, a);
    b = uf_find(parent, b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  auto pin_fault = [&](NodeId g, std::size_t p, bool v) {
    return pin_fault_index(nl, index, fo, g, p, v);
  };

  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    const std::size_t out0 = idx_of(index, {id, -1, false});
    const std::size_t out1 = idx_of(index, {id, -1, true});
    if (out0 == npos) continue;
    const std::size_t n = nl.fanins(id).size();
    switch (t) {
      case GateType::And:
      case GateType::Nand: {
        const std::size_t out = (t == GateType::And) ? out0 : out1;
        for (std::size_t p = 0; p < n; ++p) {
          if (std::size_t pf = pin_fault(id, p, false); pf != npos) {
            unite(pf, out);
          }
        }
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        const std::size_t out = (t == GateType::Or) ? out1 : out0;
        for (std::size_t p = 0; p < n; ++p) {
          if (std::size_t pf = pin_fault(id, p, true); pf != npos) {
            unite(pf, out);
          }
        }
        break;
      }
      case GateType::Dff:
        if (!cross_dff) break;
        [[fallthrough]];
      case GateType::Buf: {
        if (std::size_t pf = pin_fault(id, 0, false); pf != npos) {
          unite(pf, out0);
        }
        if (std::size_t pf = pin_fault(id, 0, true); pf != npos) {
          unite(pf, out1);
        }
        break;
      }
      case GateType::Not: {
        if (std::size_t pf = pin_fault(id, 0, false); pf != npos) {
          unite(pf, out1);
        }
        if (std::size_t pf = pin_fault(id, 0, true); pf != npos) {
          unite(pf, out0);
        }
        break;
      }
      default:
        break;  // XOR/XNOR/MUX/PI: no structural equivalences
    }
  }
  return parent;
}

}  // namespace

std::vector<Fault> all_faults(const Netlist& nl) {
  const std::vector<int> fo = fanout_counts(nl);
  std::vector<Fault> faults;
  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    faults.push_back({id, -1, false});
    faults.push_back({id, -1, true});
    const auto fins = nl.fanins(id);
    for (std::size_t p = 0; p < fins.size(); ++p) {
      if (fo[fins[p]] > 1) {  // fanout branch: distinct fault site
        faults.push_back({id, static_cast<int>(p), false});
        faults.push_back({id, static_cast<int>(p), true});
      }
    }
  }
  return faults;
}

std::vector<Fault> collapse_equivalent(const Netlist& nl,
                                       const std::vector<Fault>& faults) {
  const FaultIndex index = build_fault_index(faults);
  const std::vector<int> fo = fanout_counts(nl);
  std::vector<std::size_t> parent =
      equivalence_parents(nl, faults, index, fo, /*cross_dff=*/true);

  std::vector<Fault> out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (uf_find(parent, i) == i) out.push_back(faults[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Fault> collapsed_fault_list(const Netlist& nl) {
  return collapse_equivalent(nl, all_faults(nl));
}

DominanceInfo collapse_dominant(const Netlist& nl,
                                std::span<const Fault> collapsed) {
  check_index_range(collapsed.size());
  DominanceInfo di;
  di.rep.resize(collapsed.size());
  std::iota(di.rep.begin(), di.rep.end(), std::uint32_t{0});

  const std::vector<Fault> universe = all_faults(nl);
  const FaultIndex uindex = build_fault_index(universe);
  const FaultIndex cindex = build_fault_index(collapsed);
  const std::vector<int> fo = fanout_counts(nl);
  std::vector<std::size_t> eq =
      equivalence_parents(nl, universe, uindex, fo, /*cross_dff=*/true);
  std::vector<std::size_t> comb =
      equivalence_parents(nl, universe, uindex, fo, /*cross_dff=*/false);

  // Index in `collapsed` of the class representative of universe fault u,
  // provided the representative is reachable from u through combinationally
  // valid equivalences only (the comb union-find refines the full one, so a
  // representative in a different comb class was merged across a DFF).
  auto comb_rep_in_list = [&](std::size_t u) -> std::size_t {
    const std::size_t r = uf_find(eq, u);
    if (uf_find(comb, r) != uf_find(comb, u)) return npos;
    return idx_of(cindex, universe[r]);
  };

  // One candidate edge per gate: drop the dominating output fault's class in
  // favour of the smallest input-fault class of the excited polarity.
  std::vector<std::size_t> dom(collapsed.size(), npos);
  for (NodeId id = 0; id < nl.size(); ++id) {
    bool out_sa = false, pin_sa = false;
    switch (nl.type(id)) {
      case GateType::And:  out_sa = true;  pin_sa = true;  break;
      case GateType::Nand: out_sa = false; pin_sa = true;  break;
      case GateType::Or:   out_sa = false; pin_sa = false; break;
      case GateType::Nor:  out_sa = true;  pin_sa = false; break;
      default: continue;
    }
    const std::size_t ou = idx_of(uindex, {id, -1, out_sa});
    if (ou == npos) continue;
    const std::size_t oc = comb_rep_in_list(ou);
    if (oc == npos) continue;
    std::size_t best = npos;
    for (std::size_t p = 0; p < nl.fanins(id).size(); ++p) {
      const std::size_t pu = pin_fault_index(nl, uindex, fo, id, p, pin_sa);
      if (pu == npos) continue;
      const std::size_t rc = comb_rep_in_list(pu);
      if (rc == npos || rc == oc) continue;
      if (best == npos || collapsed[rc] < collapsed[best]) best = rc;
    }
    if (best == npos) continue;
    if (dom[oc] == npos || collapsed[best] < collapsed[dom[oc]]) dom[oc] = best;
  }

  // A representative may itself be dominated: resolve chains to their kept
  // fixpoint.  Equivalence classes can span several gates, so guard against a
  // resolution cycle by keeping the class where it closes.
  std::vector<char> state(collapsed.size(), 0);  // 0 new, 1 on path, 2 done
  auto resolve = [&](auto&& self, std::size_t i) -> std::size_t {
    if (state[i] == 2) return di.rep[i];
    if (state[i] == 1) {
      dom[i] = npos;
      return i;
    }
    state[i] = 1;
    const std::size_t r = dom[i] == npos ? i : self(self, dom[i]);
    state[i] = 2;
    di.rep[i] = static_cast<std::uint32_t>(r);
    return r;
  };
  for (std::size_t i = 0; i < collapsed.size(); ++i) resolve(resolve, i);

  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (di.rep[i] == i) di.targets.push_back(static_cast<std::uint32_t>(i));
  }
  return di;
}

FaultAdjacency dominated_sets(const Netlist& nl,
                              std::span<const Fault> collapsed) {
  check_index_range(collapsed.size());
  std::vector<std::vector<std::size_t>> out(collapsed.size());

  const std::vector<Fault> universe = all_faults(nl);
  const FaultIndex uindex = build_fault_index(universe);
  const FaultIndex cindex = build_fault_index(collapsed);
  const std::vector<int> fo = fanout_counts(nl);
  std::vector<std::size_t> eq =
      equivalence_parents(nl, universe, uindex, fo, /*cross_dff=*/true);
  std::vector<std::size_t> comb =
      equivalence_parents(nl, universe, uindex, fo, /*cross_dff=*/false);
  auto comb_rep_in_list = [&](std::size_t u) -> std::size_t {
    const std::size_t r = uf_find(eq, u);
    if (uf_find(comb, r) != uf_find(comb, u)) return npos;
    return idx_of(cindex, universe[r]);
  };

  for (NodeId id = 0; id < nl.size(); ++id) {
    bool out_sa = false, pin_sa = false;
    switch (nl.type(id)) {
      case GateType::And:  out_sa = true;  pin_sa = true;  break;
      case GateType::Nand: out_sa = false; pin_sa = true;  break;
      case GateType::Or:   out_sa = false; pin_sa = false; break;
      case GateType::Nor:  out_sa = true;  pin_sa = false; break;
      default: continue;
    }
    const std::size_t ou = idx_of(uindex, {id, -1, out_sa});
    if (ou == npos) continue;
    const std::size_t oc = comb_rep_in_list(ou);
    if (oc == npos) continue;
    for (std::size_t p = 0; p < nl.fanins(id).size(); ++p) {
      const std::size_t pu = pin_fault_index(nl, uindex, fo, id, p, pin_sa);
      if (pu == npos) continue;
      const std::size_t rc = comb_rep_in_list(pu);
      if (rc == npos || rc == oc) continue;
      out[oc].push_back(rc);
    }
  }
  // Equivalence classes can span gates, so the same class may collect the
  // same dominated index from several sites — and, through a class cycle,
  // even itself.  Deduplicate and drop self-edges so transitive worklist
  // propagation terminates.
  FaultAdjacency adj;
  adj.offsets.reserve(out.size() + 1);
  adj.offsets.push_back(0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    auto& v = out[i];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    v.erase(std::remove(v.begin(), v.end(), i), v.end());
    adj.ids.insert(adj.ids.end(), v.begin(), v.end());
    adj.offsets.push_back(static_cast<std::uint32_t>(adj.ids.size()));
  }
  adj.ids.shrink_to_fit();
  return adj;
}

}  // namespace fsct

#include "netlist/levelize.h"

#include <algorithm>
#include <stdexcept>

namespace fsct {

Levelizer::Levelizer(const Netlist& nl) : nl_(nl) {
  const std::size_t n = nl.size();
  levels_.assign(n, 0);

  // Fanout lists as one flat array (two passes over the fanins: count, then
  // fill in sink order).
  fanout_off_.assign(n + 1, 0);
  std::vector<int> pending(n, 0);  // unprocessed combinational fanins
  for (NodeId id = 0; id < n; ++id) {
    for (NodeId f : nl.fanins(id)) {
      if (f == kNullNode) {
        throw std::runtime_error("levelize: unconnected pin at " +
                                 nl.node_name(id));
      }
      ++fanout_off_[f + 1];
      if (is_combinational(nl.type(id)) && is_combinational(nl.type(f))) {
        ++pending[id];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) fanout_off_[i + 1] += fanout_off_[i];
  fanout_.resize(fanout_off_[n]);
  {
    std::vector<std::uint32_t> fill(fanout_off_.begin(), fanout_off_.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      for (NodeId f : nl.fanins(id)) fanout_[fill[f]++] = id;
    }
  }

  // Kahn's algorithm over combinational gates only.
  topo_.reserve(n);
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id) {
    if (is_combinational(nl.type(id)) && pending[id] == 0) {
      ready.push_back(id);
    }
  }
  std::size_t head = 0;
  while (head < ready.size()) {
    const NodeId id = ready[head++];
    topo_.push_back(id);
    int lvl = 0;
    for (NodeId f : nl.fanins(id)) {
      lvl = std::max(lvl, levels_[f] + 1);
    }
    levels_[id] = lvl;
    max_level_ = std::max(max_level_, lvl);
    for (NodeId s : fanouts(id)) {
      if (is_combinational(nl.type(s)) && --pending[s] == 0) {
        ready.push_back(s);
      }
    }
  }
  std::size_t comb = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (is_combinational(nl.type(id))) ++comb;
  }
  if (topo_.size() != comb) {
    throw std::runtime_error("levelize: combinational cycle in " + nl.name());
  }
}

std::vector<NodeId> Levelizer::forward_cone(NodeId from) const {
  std::vector<char> seen(nl_.size(), 0);
  std::vector<NodeId> cone;
  std::vector<NodeId> stack{from};
  seen[from] = 1;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    cone.push_back(id);
    if (nl_.type(id) == GateType::Dff && id != from) {
      continue;  // stop at DFF D-pin; Q side is a new time frame
    }
    for (NodeId s : fanouts(id)) {
      if (!seen[s]) {
        seen[s] = 1;
        stack.push_back(s);
      }
    }
  }
  return cone;
}

std::vector<NodeId> Levelizer::backward_cone(NodeId to) const {
  std::vector<char> seen(nl_.size(), 0);
  std::vector<NodeId> cone;
  std::vector<NodeId> stack{to};
  seen[to] = 1;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    cone.push_back(id);
    if (!is_combinational(nl_.type(id)) && id != to) {
      continue;  // PI / const / DFF-Q boundary
    }
    if (nl_.type(id) == GateType::Dff && id == to) {
      // starting at a DFF means "cone of its D input"
    }
    for (NodeId f : nl_.fanins(id)) {
      if (!seen[f]) {
        seen[f] = 1;
        stack.push_back(f);
      }
    }
  }
  return cone;
}

}  // namespace fsct

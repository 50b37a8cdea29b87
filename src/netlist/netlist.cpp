#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

namespace fsct {

std::string_view gate_type_name(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux: return "MUX";
    case GateType::Dff: return "DFF";
  }
  return "?";
}

namespace {

// Minimum/maximum legal fanin count per gate type.
void arity_range(GateType t, std::size_t& lo, std::size_t& hi) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      lo = hi = 0;
      break;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff:
      lo = hi = 1;
      break;
    case GateType::Mux:
      lo = hi = 3;
      break;
    default:
      lo = 1;
      hi = kMaxFanin;
      break;
  }
}

/// Empty when `n` fanins are legal for `t`, else why not.
std::string arity_error(GateType t, std::size_t n) {
  std::size_t lo = 0, hi = 0;
  arity_range(t, lo, hi);
  if (n >= lo && n <= hi) return {};
  return std::to_string(n) + " fanins, want " +
         (lo == hi ? std::to_string(lo)
                   : std::to_string(lo) + ".." + std::to_string(hi));
}

}  // namespace

NodeId Netlist::add_node(Node n) {
  if (n.name.empty()) {
    throw std::invalid_argument("node name must not be empty");
  }
  if (by_name_.contains(n.name)) {
    throw std::invalid_argument("duplicate node name: " + n.name);
  }
  if (std::string err = arity_error(n.type, n.fanins.size()); !err.empty()) {
    throw std::invalid_argument("bad fanin count for " +
                                std::string(gate_type_name(n.type)) + " " +
                                n.name + ": " + err);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId f : n.fanins) {
    if (f != kNullNode && f >= id) {
      // Forward references are only legal via add_dff_floating + set_fanin.
      throw std::invalid_argument("fanin id out of range in " + n.name);
    }
  }
  by_name_.emplace(n.name, id);
  nodes_.push_back(std::move(n));
  return id;
}

NodeId Netlist::add_input(std::string name) {
  const NodeId id = add_node({GateType::Input, {}, std::move(name)});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_const(bool value, std::string name) {
  return add_node(
      {value ? GateType::Const1 : GateType::Const0, {}, std::move(name)});
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanins,
                         std::string name) {
  if (!is_combinational(type)) {
    throw std::invalid_argument("add_gate requires a combinational type");
  }
  return add_node({type, std::move(fanins), std::move(name)});
}

NodeId Netlist::add_dff(NodeId d, std::string name) {
  const NodeId id = add_node({GateType::Dff, {d}, std::move(name)});
  dffs_.push_back(id);
  return id;
}

NodeId Netlist::add_dff_floating(std::string name) {
  const NodeId id = add_node({GateType::Dff, {kNullNode}, std::move(name)});
  dffs_.push_back(id);
  return id;
}

void Netlist::mark_output(NodeId id) {
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) {
    outputs_.push_back(id);
  }
}

void Netlist::unmark_output(NodeId id) {
  outputs_.erase(std::remove(outputs_.begin(), outputs_.end(), id),
                 outputs_.end());
}

bool Netlist::is_output(NodeId id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

int Netlist::replace_fanin(NodeId node, NodeId old_in, NodeId new_in) {
  int n = 0;
  for (NodeId& f : nodes_[node].fanins) {
    if (f == old_in) {
      f = new_in;
      ++n;
    }
  }
  return n;
}

void Netlist::set_fanin(NodeId node, std::size_t pin, NodeId new_in) {
  nodes_[node].fanins.at(pin) = new_in;
}

NodeId Netlist::insert_on_edge(NodeId driver, NodeId sink, std::size_t pin,
                               GateType type, std::vector<NodeId> extra_fanins,
                               std::string name) {
  if (nodes_[sink].fanins.at(pin) != driver) {
    throw std::invalid_argument("insert_on_edge: pin is not driven by driver");
  }
  std::vector<NodeId> fanins;
  fanins.push_back(driver);
  fanins.insert(fanins.end(), extra_fanins.begin(), extra_fanins.end());
  const NodeId g = add_gate(type, std::move(fanins), std::move(name));
  nodes_[sink].fanins[pin] = g;
  return g;
}

NodeId Netlist::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNullNode : it->second;
}

std::size_t Netlist::num_gates() const {
  std::size_t n = 0;
  for (const Node& nd : nodes_) {
    if (is_combinational(nd.type)) ++n;
  }
  return n;
}

std::string Netlist::validate() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (std::string err = arity_error(nd.type, nd.fanins.size());
        !err.empty()) {
      return "bad arity at node " + nd.name + ": " + err;
    }
    for (NodeId f : nd.fanins) {
      if (f == kNullNode) return "unconnected fanin at node " + nd.name;
      if (f >= nodes_.size()) return "fanin out of range at node " + nd.name;
    }
  }
  // Combinational cycle check: iterative DFS over combinational edges only
  // (DFF outputs break cycles).
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> color(nodes_.size(), White);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId root = 0; root < nodes_.size(); ++root) {
    if (color[root] != White || !is_combinational(nodes_[root].type)) continue;
    color[root] = Grey;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, pin] = stack.back();
      if (pin == nodes_[id].fanins.size()) {
        color[id] = Black;
        stack.pop_back();
        continue;
      }
      const NodeId f = nodes_[id].fanins[pin++];
      if (!is_combinational(nodes_[f].type)) continue;  // PI/const/DFF-Q
      if (color[f] == Grey) {
        return "combinational cycle through node " + nodes_[f].name;
      }
      if (color[f] == White) {
        color[f] = Grey;
        stack.emplace_back(f, 0);
      }
    }
  }
  return {};
}

}  // namespace fsct

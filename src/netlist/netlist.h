// Gate-level netlist representation for the functional-scan-chain-testing
// (FSCT) library.
//
// A Netlist is a directed graph of typed nodes.  Every node drives exactly
// one net, so nodes and nets are identified: `NodeId` names both the gate and
// the signal at its output.  Primary inputs and constant generators are
// source nodes with no fanins; D flip-flops (GateType::Dff) have a single
// fanin (the D input) and their output is the Q signal, which acts as a
// combinational source.  Primary outputs are a list of node ids (a node may
// be both an internal signal and a PO, as in ISCAS'89 .bench semantics).
//
// The netlist is mutable: the TPI engine inserts test points by splicing new
// gates into fan-in edges (see replace_fanin / insert_on_edge), and the
// MUX-scan inserter rewires DFF D-pins.  Derived structures (fanout lists,
// levels, topological order) are provided by Levelizer (levelize.h) and must
// be recomputed after mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fsct {

/// Identifier of a node (== the net driven by that node).
using NodeId = std::uint32_t;

/// Sentinel "no node".
inline constexpr NodeId kNullNode = static_cast<NodeId>(-1);

/// Most fanins one gate may have.  The simulators evaluate a gate from a
/// fixed on-stack buffer of this size, so Netlist refuses wider gates.
inline constexpr std::size_t kMaxFanin = 64;

/// Gate/node types.  The combinational set matches what ISCAS'89 .bench files
/// and a NAND/NOR/NOT technology mapping produce; Mux exists for conventional
/// MUX-scan insertion (fanins: sel, d0, d1 -> out = sel ? d1 : d0).
enum class GateType : std::uint8_t {
  Input,   ///< primary input, no fanins
  Const0,  ///< constant 0 generator, no fanins
  Const1,  ///< constant 1 generator, no fanins
  Buf,     ///< 1 fanin
  Not,     ///< 1 fanin
  And,     ///< >=1 fanins
  Nand,    ///< >=1 fanins
  Or,      ///< >=1 fanins
  Nor,     ///< >=1 fanins
  Xor,     ///< >=1 fanins
  Xnor,    ///< >=1 fanins
  Mux,     ///< exactly 3 fanins: sel, d0, d1
  Dff,     ///< 1 fanin (D); node output is Q
};

/// Human-readable gate-type name ("NAND", "DFF", ...).
std::string_view gate_type_name(GateType t);

/// True for types with no fanins (Input, Const0, Const1).
inline bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Const0 ||
         t == GateType::Const1;
}

/// True for combinational gate types (everything except Input/Const/Dff).
inline bool is_combinational(GateType t) {
  return !is_source(t) && t != GateType::Dff;
}

/// One node of the netlist.  Plain data; invariants (arity, acyclicity) are
/// maintained by Netlist and checked by Netlist::validate().
struct Node {
  GateType type = GateType::Buf;
  std::vector<NodeId> fanins;
  std::string name;
};

/// Mutable gate-level netlist.  See file comment for the data model.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  /// Circuit name (e.g. "s1423like").
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction -------------------------------------------------------

  /// Adds a primary input. Name must be unique.
  NodeId add_input(std::string name);

  /// Adds a constant-0 / constant-1 source.
  NodeId add_const(bool value, std::string name);

  /// Adds a combinational gate. Arity is checked against the type.
  NodeId add_gate(GateType type, std::vector<NodeId> fanins, std::string name);

  /// Adds a D flip-flop whose D input is `d`. The returned id is Q.
  NodeId add_dff(NodeId d, std::string name);

  /// Adds a D flip-flop whose D input will be connected later via set_fanin.
  NodeId add_dff_floating(std::string name);

  /// Marks an existing node as a primary output (idempotent).
  void mark_output(NodeId id);

  /// Removes PO marking from a node (no-op if not marked).
  void unmark_output(NodeId id);

  // ---- mutation (used by TPI / scan insertion) -----------------------------

  /// Replaces every occurrence of `old_in` in `node`'s fanin list by `new_in`.
  /// Returns the number of pins rewired.
  int replace_fanin(NodeId node, NodeId old_in, NodeId new_in);

  /// Replaces fanin pin `pin` of `node` by `new_in`.
  void set_fanin(NodeId node, std::size_t pin, NodeId new_in);

  /// Splices a new gate of `type` into the edge `driver -> (sink, pin)`:
  /// creates g = type(driver, extra...), rewires the sink pin to g, and
  /// returns g.  Other fanouts of `driver` are untouched.  This is exactly
  /// the test-point insertion primitive.
  NodeId insert_on_edge(NodeId driver, NodeId sink, std::size_t pin,
                        GateType type, std::vector<NodeId> extra_fanins,
                        std::string name);

  // ---- access --------------------------------------------------------------

  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  GateType type(NodeId id) const { return nodes_[id].type; }
  std::span<const NodeId> fanins(NodeId id) const { return nodes_[id].fanins; }
  const std::string& node_name(NodeId id) const { return nodes_[id].name; }

  /// All primary inputs, in creation order.
  const std::vector<NodeId>& inputs() const { return inputs_; }
  /// All primary outputs, in marking order.
  const std::vector<NodeId>& outputs() const { return outputs_; }
  /// All flip-flops (node id == Q signal), in creation order.
  const std::vector<NodeId>& dffs() const { return dffs_; }

  bool is_output(NodeId id) const;

  /// Looks up a node by name; returns kNullNode if absent.
  NodeId find(std::string_view name) const;

  /// Number of combinational gates (excludes PIs, constants and DFFs).
  std::size_t num_gates() const;

  // ---- integrity -----------------------------------------------------------

  /// Checks structural invariants: arities, fanin ids in range, unique names,
  /// no combinational cycles, every DFF has a driven D pin.  Returns an empty
  /// string when the netlist is well formed, else a diagnostic.
  std::string validate() const;

 private:
  NodeId add_node(Node n);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::unordered_map<std::string, NodeId> by_name_;
};

}  // namespace fsct

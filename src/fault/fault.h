// Single stuck-at fault model: fault universe generation and structural
// equivalence collapsing.
//
// A fault is a (location, polarity) pair.  Locations are either a node's
// output stem (pin == -1) or one of its fanin pins (pin >= 0, a branch
// fault).  Pin faults are only generated where they are not trivially
// equivalent to the driver's stem fault, i.e. on fanout branches.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "sim/comb_sim.h"
#include "sim/soa_circuit.h"

namespace fsct {

/// One single stuck-at fault.
struct Fault {
  NodeId node = kNullNode;  ///< gate whose output (pin==-1) or input pin is stuck
  int pin = -1;             ///< -1 = output stem, else fanin pin index
  bool stuck_one = false;   ///< true = s-a-1, false = s-a-0

  friend bool operator==(const Fault&, const Fault&) = default;
  friend auto operator<=>(const Fault&, const Fault&) = default;
};

/// "U123/2 s-a-1" style description using netlist names.
std::string fault_name(const Netlist& nl, const Fault& f);

/// The simulation injection equivalent to this fault.
Injection to_injection(const Fault& f);

/// The packed injection forcing this fault on one lane of a WideSim<NW>.
template <int NW>
WideInjection<NW> to_wide_injection(const Fault& f, unsigned lane) {
  WideInjection<NW> w;
  w.node = f.node;
  w.pin = f.pin;
  w.value = f.stuck_one ? Val::One : Val::Zero;
  w.mask[lane >> 6] = 1ull << (lane & 63u);
  return w;
}

/// Complete uncollapsed universe: both polarities on every node output and on
/// every gate/DFF input pin whose driver has more than one fanout connection
/// (fanout branches).  Pins fed by single-fanout drivers are represented by
/// the driver's stem fault.
std::vector<Fault> all_faults(const Netlist& nl);

/// Structural equivalence collapsing (classic rules):
///  - controlling-value input faults of AND/NAND/OR/NOR collapse with the
///    corresponding output fault,
///  - NOT/BUF/DFF input faults collapse with the (inverted) output fault,
///  - a stem fault collapses with the pin fault of its unique fanout.
/// Returns one representative per equivalence class, in deterministic order.
std::vector<Fault> collapse_equivalent(const Netlist& nl,
                                       const std::vector<Fault>& faults);

/// Convenience: collapse_equivalent(nl, all_faults(nl)).
std::vector<Fault> collapsed_fault_list(const Netlist& nl);

/// Dominance collapsing over an equivalence-collapsed fault list.
///
/// `rep` is the expansion table: for every input fault i, rep[i] indexes the
/// fault in the *input list* whose (single-vector, combinational) detection
/// implies detection of fault i; rep[i] == i for kept targets.  Expanding a
/// target's outcome through this table therefore reproduces the uncollapsed
/// verdict without re-targeting the dropped fault.
struct DominanceInfo {
  std::vector<std::size_t> targets;  ///< kept indices into the input list, ascending
  std::vector<std::size_t> rep;      ///< per input fault: its representative's index
  std::size_t dropped() const { return rep.size() - targets.size(); }
};

/// Classic dominance rules on top of equivalence collapsing: the output fault
/// of AND s-a-1 / NAND s-a-0 / OR s-a-0 / NOR s-a-1 dominates the same gate's
/// input faults of the excited polarity, so the output fault is dropped and
/// one input fault kept as its representative (the smallest resolved fault,
/// for determinism; chains of dominance resolve to a kept fixpoint).
///
/// The implication "any test for the representative also detects the dropped
/// fault" only holds per single combinational vector, so representatives are
/// resolved exclusively through combinationally valid equivalences: a
/// resolution that would cross a DFF boundary (where input/output equivalence
/// is sequential, one shift cycle apart) keeps the fault as a target instead.
/// Faults in `collapsed` that cannot be matched to the netlist's universe are
/// kept unchanged, so the function is total over arbitrary fault lists.
DominanceInfo collapse_dominant(const Netlist& nl,
                                std::span<const Fault> collapsed);

/// Untestability-propagation adjacency.  For each fault i in `collapsed`
/// that is the dominating output fault of some gate (AND s-a-1 / NAND s-a-0 /
/// OR s-a-0 / NOR s-a-1), out[i] lists the same gate's excited-polarity input
/// fault classes (resolved through combinationally valid equivalences into
/// `collapsed`).  Every single-vector test for a listed input fault also
/// detects fault i — tests(input) ⊆ tests(output) — so a proof that fault i
/// is combinationally untestable transfers to every listed fault, and
/// transitively to their own sets.  The reverse direction (detection credit)
/// is NOT sound and is never derived from this table.
std::vector<std::vector<std::size_t>> dominated_sets(
    const Netlist& nl, std::span<const Fault> collapsed);

}  // namespace fsct

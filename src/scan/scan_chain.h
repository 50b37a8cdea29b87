// Scan chain data model shared by the MUX-scan inserter, the TPI engine and
// the functional-scan-chain-testing core.
//
// A chain is an ordered list of flip-flops.  Each link ("segment") describes
// how shift data travels from the previous stage's Q (or the scan-in PI) to
// this stage's D during scan mode:
//   * a *functional* segment rides an existing combinational path whose side
//    inputs are forced non-controlling in scan mode (the paper's TPI links);
//   * a *dedicated* segment is a scan multiplexer inserted in front of the D
//     pin (conventional MUX-scan).
// Segments may invert (odd number of inverting stages on the path); shifting
// still works, the testing code just tracks the parity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "netlist/netlist.h"
#include "sim/value.h"

namespace fsct {

/// One shift link of a scan chain.
struct ScanSegment {
  NodeId from = kNullNode;  ///< previous stage Q, or the scan-in PI
  NodeId to = kNullNode;    ///< this stage's DFF node
  /// Combinational nodes the shift data passes through, in from->to order
  /// (excludes `from`, includes the gate driving the D pin).  Empty for a
  /// dedicated mux link whose only element would be the mux itself — the mux
  /// node is then in `path` as well, so path is only empty for a direct wire.
  std::vector<NodeId> path;
  bool inverting = false;   ///< odd inversion parity along the path
  bool functional = false;  ///< true = TPI link, false = dedicated mux/wire
};

/// One scan chain: ffs[0] is nearest scan-in; Q of ffs.back() is scan-out.
struct ScanChain {
  NodeId scan_in = kNullNode;  ///< dedicated scan-in primary input
  std::vector<NodeId> ffs;
  /// segments[k] feeds ffs[k]; segments[0].from == scan_in.
  std::vector<ScanSegment> segments;

  std::size_t length() const { return ffs.size(); }

  /// Q node observed as scan-out.
  NodeId scan_out() const { return ffs.empty() ? kNullNode : ffs.back(); }

  /// Cumulative inversion parity from scan-in up to and including stage k's
  /// capturing segment.
  bool parity_to(std::size_t k) const {
    bool p = false;
    for (std::size_t i = 0; i <= k && i < segments.size(); ++i) {
      p ^= segments[i].inverting;
    }
    return p;
  }
};

/// A scan-inserted design: the mutated netlist plus everything needed to put
/// it in scan mode.
struct ScanDesign {
  NodeId scan_mode = kNullNode;  ///< PI: 0 normal operation, 1 scan/shift
  /// PI values that establish the scan paths (always includes
  /// {scan_mode, One}; TPI adds the side-input forcing assignments).
  std::vector<std::pair<NodeId, Val>> pi_constraints;
  std::vector<ScanChain> chains;
  int test_points = 0;  ///< TPI gates inserted
  int scan_muxes = 0;   ///< dedicated scan muxes inserted

  /// Longest chain length (the paper's `maxsize`).
  std::size_t max_chain_length() const {
    std::size_t m = 0;
    for (const ScanChain& c : chains) m = std::max(m, c.length());
    return m;
  }

  /// True if `pi` is constrained during scan mode.
  bool is_constrained(NodeId pi) const {
    for (auto [p, v] : pi_constraints) {
      if (p == pi) return true;
    }
    return false;
  }
};

}  // namespace fsct

// Structure-of-arrays compilation of a levelized netlist, plus the W-lane
// (multi-word) packed value types and simulators built on top of it.
//
// A SoaCircuit is compiled once per Levelizer snapshot and then shared
// read-only across threads (std::shared_ptr<const SoaCircuit>).  It flattens
// everything the hot simulation kernels touch into contiguous arrays:
//
//   * per-node gate type (one byte),
//   * fanin ids in one flat array with per-node offsets,
//   * *combinational-only* fanout ids in one flat array with per-node
//     offsets, preserving Levelizer order (one entry per connected pin) so
//     event-driven propagation visits sinks in exactly the order the
//     vector-of-vectors Levelizer API produced,
//   * an evaluation order that is level-major and type-sorted within each
//     level, expressed as same-type runs so the gate-type switch sits
//     outside the inner loop,
//   * cached source lists (inputs, constants, flip-flops and their D
//     drivers).
//
// On top of it, WideVal<NW> generalises PackedVal from one 64-bit word to NW
// words (NW in {1, 4, 8} -> 64 / 256 / 512 lanes).  The words are plain
// alignas'd uint64_t arrays: every per-lane operation is a fixed-trip-count
// loop over NW words, which the compiler auto-vectorises to whatever the
// target ISA offers — no intrinsics, identical results at every width.
//
// Lane-width selection: the compile-time default FSCT_DEFAULT_SIMD_WIDTH
// (CMake cache variable FSCT_SIMD_WIDTH) seeds a process-global default that
// `--simd-width` overrides at runtime; engines pick it up at construction.
// Width never changes results, only how many fault machines ride per pass.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/levelize.h"
#include "sim/comb_sim.h"
#include "sim/value.h"

namespace fsct {

/// Supported lane widths in bits (64-bit words per value plane: 1, 4, 8).
inline constexpr int kSimdWidths[] = {64, 256, 512};

inline bool is_valid_simd_width(int bits) {
  return bits == 64 || bits == 256 || bits == 512;
}

/// Process-global default lane width in bits.  Seeded from the compile-time
/// FSCT_DEFAULT_SIMD_WIDTH; set_default_simd_width (the CLI's --simd-width)
/// overrides it for every engine constructed afterwards.
int default_simd_width();
void set_default_simd_width(int bits);  ///< throws std::invalid_argument

/// Process-lifetime count of *actual* SoA compilations (memo hits through
/// SoaCircuit::compile do not increment it).  The serve cache-hit tests
/// assert a delta of zero across a repeated request.
std::uint64_t soa_compile_count();

/// One maximal same-type run of the evaluation order: order()[begin, end)
/// all have gate type `type` and live on the same level.
struct SoaRun {
  GateType type;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Immutable flat view of a levelized netlist (see file comment).
class SoaCircuit {
 public:
  /// Compiles the snapshot.  O(nodes + edges); the result is immutable and
  /// safe to share across threads.  Memoized per Levelizer snapshot (via
  /// Levelizer::memo()): repeated calls for the same snapshot — every engine
  /// of one pipeline run, every request served from a cached model — return
  /// the same shared compilation.
  static std::shared_ptr<const SoaCircuit> compile(const Levelizer& lv);

  std::size_t size() const { return type_.size(); }
  GateType type(NodeId id) const { return type_[id]; }
  int level(NodeId id) const { return level_[id]; }
  int max_level() const { return max_level_; }

  const NodeId* fanin(NodeId id) const { return fanin_.data() + fanin_off_[id]; }
  std::uint32_t fanin_count(NodeId id) const {
    return fanin_off_[id + 1] - fanin_off_[id];
  }

  /// Combinational sinks of `id` only, one entry per connected pin, in
  /// Levelizer fanout order.  (DFF sinks are excluded: simulation reads a
  /// DFF's D through dff_d(), and event propagation stops at state.)
  const NodeId* fanout(NodeId id) const {
    return fanout_.data() + fanout_off_[id];
  }
  std::uint32_t fanout_count(NodeId id) const {
    return fanout_off_[id + 1] - fanout_off_[id];
  }

  /// Level-major evaluation order of all combinational gates, type-sorted
  /// within each level; any level-compatible order evaluates identically.
  const std::vector<NodeId>& order() const { return order_; }
  /// Maximal same-type runs covering order() (switch-outside-the-loop).
  const std::vector<SoaRun>& runs() const { return runs_; }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }
  /// D-pin driver of dffs()[i].
  const std::vector<NodeId>& dff_d() const { return dff_d_; }
  const std::vector<NodeId>& const0() const { return const0_; }
  const std::vector<NodeId>& const1() const { return const1_; }

 private:
  SoaCircuit() = default;

  std::vector<GateType> type_;
  std::vector<int> level_;
  int max_level_ = 0;
  std::vector<std::uint32_t> fanin_off_;   // size() + 1
  std::vector<NodeId> fanin_;
  std::vector<std::uint32_t> fanout_off_;  // size() + 1
  std::vector<NodeId> fanout_;
  std::vector<NodeId> order_;
  std::vector<SoaRun> runs_;
  std::vector<NodeId> inputs_, dffs_, dff_d_, const0_, const1_;
};

/// NW-word packed ternary value: lane L lives at bit (L % 64) of word
/// (L / 64) in both planes.  Same encoding and invariant as PackedVal
/// ((zero & one) == 0 per word); NW == 1 is layout-identical to PackedVal.
template <int NW>
struct alignas((NW * 8 > 64) ? 64 : NW * 8) WideVal {
  static_assert(NW == 1 || NW == 4 || NW == 8, "lanes = 64 * NW in {64,256,512}");
  static constexpr int kWords = NW;
  static constexpr unsigned kLanes = 64u * NW;

  std::uint64_t zero[NW];
  std::uint64_t one[NW];

  static WideVal broadcast(Val v) {
    WideVal r;
    const std::uint64_t z = (v == Val::Zero) ? ~0ull : 0ull;
    const std::uint64_t o = (v == Val::One) ? ~0ull : 0ull;
    for (int w = 0; w < NW; ++w) {
      r.zero[w] = z;
      r.one[w] = o;
    }
    return r;
  }
  Val at(unsigned lane) const {
    const std::uint64_t m = 1ull << (lane & 63u);
    const unsigned w = lane >> 6;
    if (zero[w] & m) return Val::Zero;
    if (one[w] & m) return Val::One;
    return Val::X;
  }
  void set(unsigned lane, Val v) {
    const std::uint64_t m = 1ull << (lane & 63u);
    const unsigned w = lane >> 6;
    zero[w] &= ~m;
    one[w] &= ~m;
    if (v == Val::Zero) zero[w] |= m;
    if (v == Val::One) one[w] |= m;
  }
  friend bool operator==(const WideVal&, const WideVal&) = default;
};

/// Packed injection over NW words: forces `value` on the lanes of `mask`
/// at (node, pin) — pin == -1 is the node's output stem.
template <int NW>
struct WideInjection {
  NodeId node = kNullNode;
  int pin = -1;
  Val value = Val::X;
  std::uint64_t mask[NW] = {};

  void force(WideVal<NW>& v) const {
    const std::uint64_t z = (value == Val::Zero) ? ~0ull : 0ull;
    const std::uint64_t o = (value == Val::One) ? ~0ull : 0ull;
    for (int w = 0; w < NW; ++w) {
      v.zero[w] = (v.zero[w] & ~mask[w]) | (z & mask[w]);
      v.one[w] = (v.one[w] & ~mask[w]) | (o & mask[w]);
    }
  }
};

namespace wide_detail {

template <int NW>
inline WideVal<NW> not_w(const WideVal<NW>& a) {
  WideVal<NW> r;
  for (int w = 0; w < NW; ++w) {
    r.zero[w] = a.one[w];
    r.one[w] = a.zero[w];
  }
  return r;
}

template <int NW>
inline void and_acc(WideVal<NW>& r, const WideVal<NW>& a) {
  for (int w = 0; w < NW; ++w) {
    r.zero[w] |= a.zero[w];
    r.one[w] &= a.one[w];
  }
}

template <int NW>
inline void or_acc(WideVal<NW>& r, const WideVal<NW>& a) {
  for (int w = 0; w < NW; ++w) {
    r.zero[w] &= a.zero[w];
    r.one[w] |= a.one[w];
  }
}

template <int NW>
inline void xor_acc(WideVal<NW>& r, const WideVal<NW>& a) {
  for (int w = 0; w < NW; ++w) {
    const std::uint64_t z = (r.zero[w] & a.zero[w]) | (r.one[w] & a.one[w]);
    const std::uint64_t o = (r.zero[w] & a.one[w]) | (r.one[w] & a.zero[w]);
    r.zero[w] = z;
    r.one[w] = o;
  }
}

template <int NW>
inline WideVal<NW> mux_w(const WideVal<NW>& s, const WideVal<NW>& d0,
                         const WideVal<NW>& d1) {
  WideVal<NW> r;
  for (int w = 0; w < NW; ++w) {
    const std::uint64_t sx = ~s.zero[w] & ~s.one[w];
    r.zero[w] = (s.zero[w] & d0.zero[w]) | (s.one[w] & d1.zero[w]) |
                (sx & d0.zero[w] & d1.zero[w]);
    r.one[w] = (s.zero[w] & d0.one[w]) | (s.one[w] & d1.one[w]) |
               (sx & d0.one[w] & d1.one[w]);
  }
  return r;
}

}  // namespace wide_detail

/// Evaluates one gate over NW-word packed fanins (generic slow path; the
/// WideSim run loop open-codes the common types per run).
template <int NW>
WideVal<NW> eval_gate_wide(GateType t, const WideVal<NW>* ins, std::size_t n) {
  using namespace wide_detail;
  switch (t) {
    case GateType::Const0: return WideVal<NW>::broadcast(Val::Zero);
    case GateType::Const1: return WideVal<NW>::broadcast(Val::One);
    case GateType::Buf:
    case GateType::Dff: return ins[0];
    case GateType::Not: return not_w(ins[0]);
    case GateType::And:
    case GateType::Nand: {
      WideVal<NW> r = ins[0];
      for (std::size_t i = 1; i < n; ++i) and_acc(r, ins[i]);
      return t == GateType::Nand ? not_w(r) : r;
    }
    case GateType::Or:
    case GateType::Nor: {
      WideVal<NW> r = ins[0];
      for (std::size_t i = 1; i < n; ++i) or_acc(r, ins[i]);
      return t == GateType::Nor ? not_w(r) : r;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      WideVal<NW> r = ins[0];
      for (std::size_t i = 1; i < n; ++i) xor_acc(r, ins[i]);
      return t == GateType::Xnor ? not_w(r) : r;
    }
    case GateType::Mux: return mux_w(ins[0], ins[1], ins[2]);
    default: return WideVal<NW>::broadcast(Val::X);  // Input: never evaluated
  }
}

/// NW-word packed levelized combinational simulator — the W-lane counterpart
/// of PackedCombSim, on the SoA core.  Same contract: sources are pre-set by
/// the caller (constants are overwritten for convenience), run() evaluates
/// every combinational gate, injections force stuck values.
template <int NW>
class WideSim {
 public:
  explicit WideSim(std::shared_ptr<const SoaCircuit> c)
      : c_(std::move(c)),
        values_(c_->size(), WideVal<NW>::broadcast(Val::X)),
        injected_(c_->size(), 0) {}

  const SoaCircuit& circuit() const { return *c_; }
  WideVal<NW>& value(NodeId id) { return values_[id]; }
  const WideVal<NW>& value(NodeId id) const { return values_[id]; }

  void run(std::span<const WideInjection<NW>> inj = {}) {
    const SoaCircuit& c = *c_;
    for (NodeId id : c.const0()) values_[id] = WideVal<NW>::broadcast(Val::Zero);
    for (NodeId id : c.const1()) values_[id] = WideVal<NW>::broadcast(Val::One);
    for (const WideInjection<NW>& i : inj) {
      if (i.pin == -1 && !is_combinational(c.type(i.node))) {
        i.force(values_[i.node]);
      }
      injected_[i.node] = 1;
    }
    for (const SoaRun& r : c.runs()) {
      switch (r.type) {
        case GateType::Buf:
          for (std::uint32_t i = r.begin; i < r.end; ++i) {
            const NodeId id = c.order()[i];
            if (injected_[id]) { eval_injected(id, inj); continue; }
            values_[id] = values_[c.fanin(id)[0]];
          }
          break;
        case GateType::Not:
          for (std::uint32_t i = r.begin; i < r.end; ++i) {
            const NodeId id = c.order()[i];
            if (injected_[id]) { eval_injected(id, inj); continue; }
            values_[id] = wide_detail::not_w(values_[c.fanin(id)[0]]);
          }
          break;
        case GateType::And:
        case GateType::Nand:
          for (std::uint32_t i = r.begin; i < r.end; ++i) {
            const NodeId id = c.order()[i];
            if (injected_[id]) { eval_injected(id, inj); continue; }
            const NodeId* f = c.fanin(id);
            const std::uint32_t n = c.fanin_count(id);
            WideVal<NW> v = values_[f[0]];
            for (std::uint32_t k = 1; k < n; ++k) {
              wide_detail::and_acc(v, values_[f[k]]);
            }
            values_[id] = r.type == GateType::Nand ? wide_detail::not_w(v) : v;
          }
          break;
        case GateType::Or:
        case GateType::Nor:
          for (std::uint32_t i = r.begin; i < r.end; ++i) {
            const NodeId id = c.order()[i];
            if (injected_[id]) { eval_injected(id, inj); continue; }
            const NodeId* f = c.fanin(id);
            const std::uint32_t n = c.fanin_count(id);
            WideVal<NW> v = values_[f[0]];
            for (std::uint32_t k = 1; k < n; ++k) {
              wide_detail::or_acc(v, values_[f[k]]);
            }
            values_[id] = r.type == GateType::Nor ? wide_detail::not_w(v) : v;
          }
          break;
        default:
          for (std::uint32_t i = r.begin; i < r.end; ++i) {
            const NodeId id = c.order()[i];
            if (injected_[id]) { eval_injected(id, inj); continue; }
            const NodeId* f = c.fanin(id);
            const std::uint32_t n = c.fanin_count(id);
            WideVal<NW> ins[64];
            for (std::uint32_t k = 0; k < n; ++k) ins[k] = values_[f[k]];
            values_[id] = eval_gate_wide<NW>(r.type, ins, n);
          }
          break;
      }
    }
    for (const WideInjection<NW>& i : inj) injected_[i.node] = 0;
  }

  /// Value at a DFF's D pin after run(), honouring pin injections on the DFF.
  WideVal<NW> d_value(std::size_t dff_index,
                      std::span<const WideInjection<NW>> inj = {}) const {
    const NodeId dff = c_->dffs()[dff_index];
    WideVal<NW> v = values_[c_->dff_d()[dff_index]];
    for (const WideInjection<NW>& i : inj) {
      if (i.node == dff && i.pin == 0) i.force(v);
    }
    return v;
  }

 private:
  void eval_injected(NodeId id, std::span<const WideInjection<NW>> inj) {
    const SoaCircuit& c = *c_;
    const NodeId* f = c.fanin(id);
    const std::uint32_t n = c.fanin_count(id);
    WideVal<NW> ins[64];
    for (std::uint32_t k = 0; k < n; ++k) ins[k] = values_[f[k]];
    for (const WideInjection<NW>& i : inj) {
      if (i.node == id && i.pin >= 0) i.force(ins[i.pin]);
    }
    WideVal<NW> out = eval_gate_wide<NW>(c.type(id), ins, n);
    for (const WideInjection<NW>& i : inj) {
      if (i.node == id && i.pin == -1) i.force(out);
    }
    values_[id] = out;
  }

  std::shared_ptr<const SoaCircuit> c_;
  std::vector<WideVal<NW>> values_;
  std::vector<char> injected_;
};

/// W-lane sequential stepper (the wide counterpart of SeqSim): per cycle,
/// load PI lanes, apply the flip-flop state, evaluate, clock.
template <int NW>
class WideSeqSim {
 public:
  explicit WideSeqSim(std::shared_ptr<const SoaCircuit> c)
      : sim_(std::move(c)), state_(sim_.circuit().dffs().size()) {}

  const SoaCircuit& circuit() const { return sim_.circuit(); }

  void reset(Val v) { state_.assign(state_.size(), WideVal<NW>::broadcast(v)); }

  /// Sets flip-flop states, indexed in circuit dffs() order.
  void set_state(std::span<const WideVal<NW>> state) {
    if (state.size() != state_.size()) {
      throw std::invalid_argument("set_state: size mismatch");
    }
    state_.assign(state.begin(), state.end());
  }

  /// Current (post-edge) flip-flop states in circuit dffs() order.
  const std::vector<WideVal<NW>>& state() const { return state_; }

  /// `pi_values` indexed in circuit inputs() order.
  const WideSim<NW>& step(std::span<const WideVal<NW>> pi_values,
                          std::span<const WideInjection<NW>> inj = {}) {
    const SoaCircuit& c = sim_.circuit();
    if (pi_values.size() != c.inputs().size()) {
      throw std::invalid_argument("step: PI vector size mismatch");
    }
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
      sim_.value(c.inputs()[i]) = pi_values[i];
    }
    for (std::size_t i = 0; i < state_.size(); ++i) {
      sim_.value(c.dffs()[i]) = state_[i];
    }
    sim_.run(inj);
    for (std::size_t i = 0; i < state_.size(); ++i) {
      state_[i] = sim_.d_value(i, inj);
    }
    return sim_;
  }

 private:
  WideSim<NW> sim_;
  std::vector<WideVal<NW>> state_;
};

}  // namespace fsct

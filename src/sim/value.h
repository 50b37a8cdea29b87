// Three-valued logic (0 / 1 / X), scalar.
//
// Scalar values drive the classifier, the serial fault simulators and ATPG.
// The packed lanes every parallel kernel (PPSFP, sequential fault
// simulation, the test-program export) runs on are WideVal<NW> in
// sim/soa_circuit.h, with the same 0/1/X semantics per lane.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"

namespace fsct {

/// Ternary logic value.
enum class Val : std::uint8_t { Zero = 0, One = 1, X = 2 };

inline Val operator!(Val v) {
  switch (v) {
    case Val::Zero: return Val::One;
    case Val::One: return Val::Zero;
    default: return Val::X;
  }
}

/// 'X' / '0' / '1' for logs and tests.
char val_char(Val v);

/// Parses '0' / '1' / 'x' / 'X'; throws on anything else.
Val val_from_char(char c);

/// Returns the controlling value of an AND/NAND (0) or OR/NOR (1) style gate;
/// Val::X when the gate has no controlling value (XOR/XNOR/BUF/NOT/MUX).
/// Inline: called tens of millions of times per ATPG-heavy pipeline run.
inline Val controlling_value(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand: return Val::Zero;
    case GateType::Or:
    case GateType::Nor: return Val::One;
    default: return Val::X;
  }
}

/// True when the gate output is the complement of its "natural" function
/// (NAND, NOR, XNOR, NOT).
inline bool is_inverting(GateType t) {
  return t == GateType::Nand || t == GateType::Nor || t == GateType::Xnor ||
         t == GateType::Not;
}

namespace detail {

inline Val and_reduce(const Val* ins, std::size_t n) {
  bool saw_x = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (ins[i] == Val::Zero) return Val::Zero;
    if (ins[i] == Val::X) saw_x = true;
  }
  return saw_x ? Val::X : Val::One;
}

inline Val or_reduce(const Val* ins, std::size_t n) {
  bool saw_x = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (ins[i] == Val::One) return Val::One;
    if (ins[i] == Val::X) saw_x = true;
  }
  return saw_x ? Val::X : Val::Zero;
}

inline Val xor_reduce(const Val* ins, std::size_t n) {
  bool parity = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (ins[i] == Val::X) return Val::X;
    parity ^= (ins[i] == Val::One);
  }
  return parity ? Val::One : Val::Zero;
}

}  // namespace detail

/// Evaluates one gate in 3-valued logic. `ins` are the fanin values in pin
/// order; `n` is the pin count.  Sources (Input) must not be passed here.
/// Inline: the single hottest scalar primitive (event-driven pair simulation
/// and serial fault simulation both bottom out here).
inline Val eval_gate(GateType t, const Val* ins, std::size_t n) {
  switch (t) {
    case GateType::Const0: return Val::Zero;
    case GateType::Const1: return Val::One;
    case GateType::Buf:
    case GateType::Dff: return ins[0];
    case GateType::Not: return !ins[0];
    case GateType::And: return detail::and_reduce(ins, n);
    case GateType::Nand: return !detail::and_reduce(ins, n);
    case GateType::Or: return detail::or_reduce(ins, n);
    case GateType::Nor: return !detail::or_reduce(ins, n);
    case GateType::Xor: return detail::xor_reduce(ins, n);
    case GateType::Xnor: return !detail::xor_reduce(ins, n);
    case GateType::Mux: {
      const Val s = ins[0], d0 = ins[1], d1 = ins[2];
      if (s == Val::Zero) return d0;
      if (s == Val::One) return d1;
      return (d0 == d1 && d0 != Val::X) ? d0 : Val::X;
    }
    default: return Val::X;  // Input: never evaluated
  }
}

}  // namespace fsct

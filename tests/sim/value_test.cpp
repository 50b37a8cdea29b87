#include "sim/value.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/soa_circuit.h"

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

Val eval2(GateType t, Val a, Val b) {
  const Val ins[2] = {a, b};
  return eval_gate(t, ins, 2);
}

TEST(Value, Not) {
  EXPECT_EQ(!k0, k1);
  EXPECT_EQ(!k1, k0);
  EXPECT_EQ(!kX, kX);
}

TEST(Value, CharConversions) {
  EXPECT_EQ(val_char(k0), '0');
  EXPECT_EQ(val_char(k1), '1');
  EXPECT_EQ(val_char(kX), 'X');
  EXPECT_EQ(val_from_char('0'), k0);
  EXPECT_EQ(val_from_char('x'), kX);
  EXPECT_THROW(val_from_char('q'), std::invalid_argument);
}

TEST(Value, AndTernary) {
  EXPECT_EQ(eval2(GateType::And, k0, kX), k0);  // controlling wins over X
  EXPECT_EQ(eval2(GateType::And, k1, kX), kX);
  EXPECT_EQ(eval2(GateType::And, k1, k1), k1);
  EXPECT_EQ(eval2(GateType::Nand, k0, kX), k1);
  EXPECT_EQ(eval2(GateType::Nand, k1, k1), k0);
}

TEST(Value, OrTernary) {
  EXPECT_EQ(eval2(GateType::Or, k1, kX), k1);
  EXPECT_EQ(eval2(GateType::Or, k0, kX), kX);
  EXPECT_EQ(eval2(GateType::Nor, k1, kX), k0);
  EXPECT_EQ(eval2(GateType::Nor, k0, k0), k1);
}

TEST(Value, XorTernary) {
  EXPECT_EQ(eval2(GateType::Xor, k1, k0), k1);
  EXPECT_EQ(eval2(GateType::Xor, k1, k1), k0);
  EXPECT_EQ(eval2(GateType::Xor, k1, kX), kX);  // X always poisons XOR
  EXPECT_EQ(eval2(GateType::Xnor, k1, k0), k0);
  EXPECT_EQ(eval2(GateType::Xnor, kX, k0), kX);
}

TEST(Value, MuxTernary) {
  const Val m0[3] = {k0, k1, k0};  // sel=0 -> d0
  EXPECT_EQ(eval_gate(GateType::Mux, m0, 3), k1);
  const Val m1[3] = {k1, k1, k0};  // sel=1 -> d1
  EXPECT_EQ(eval_gate(GateType::Mux, m1, 3), k0);
  const Val mx_agree[3] = {kX, k1, k1};
  EXPECT_EQ(eval_gate(GateType::Mux, mx_agree, 3), k1);
  const Val mx_differ[3] = {kX, k1, k0};
  EXPECT_EQ(eval_gate(GateType::Mux, mx_differ, 3), kX);
}

TEST(Value, BufAndConsts) {
  const Val in[1] = {kX};
  EXPECT_EQ(eval_gate(GateType::Buf, in, 1), kX);
  EXPECT_EQ(eval_gate(GateType::Const0, nullptr, 0), k0);
  EXPECT_EQ(eval_gate(GateType::Const1, nullptr, 0), k1);
}

TEST(Value, ControllingValues) {
  EXPECT_EQ(controlling_value(GateType::And), k0);
  EXPECT_EQ(controlling_value(GateType::Nand), k0);
  EXPECT_EQ(controlling_value(GateType::Or), k1);
  EXPECT_EQ(controlling_value(GateType::Nor), k1);
  EXPECT_EQ(controlling_value(GateType::Xor), kX);
  EXPECT_TRUE(is_inverting(GateType::Nand));
  EXPECT_TRUE(is_inverting(GateType::Not));
  EXPECT_FALSE(is_inverting(GateType::And));
}

// The 64-lane packed value is WideVal<1>; these pin its lane encoding and its
// gate evaluation against the scalar rules.
TEST(PackedVal, BroadcastAndAt) {
  const auto z = WideVal<1>::broadcast(k0);
  const auto o = WideVal<1>::broadcast(k1);
  const auto x = WideVal<1>::broadcast(kX);
  for (unsigned b : {0u, 31u, 63u}) {
    EXPECT_EQ(z.at(b), k0);
    EXPECT_EQ(o.at(b), k1);
    EXPECT_EQ(x.at(b), kX);
  }
}

TEST(PackedVal, SetIndividualBits) {
  auto v = WideVal<1>::broadcast(kX);
  v.set(3, k1);
  v.set(7, k0);
  EXPECT_EQ(v.at(3), k1);
  EXPECT_EQ(v.at(7), k0);
  EXPECT_EQ(v.at(0), kX);
  v.set(3, kX);
  EXPECT_EQ(v.at(3), kX);
  EXPECT_EQ(v.zero[0] & v.one[0], 0u);
}

// Property: packed evaluation agrees with scalar evaluation bit-per-bit.
class PackedAgreement : public ::testing::TestWithParam<GateType> {};

TEST_P(PackedAgreement, MatchesScalarOnAllTernaryPairs) {
  const GateType t = GetParam();
  const Val vals[3] = {k0, k1, kX};
  auto a = WideVal<1>::broadcast(kX);
  auto b = WideVal<1>::broadcast(kX);
  std::vector<std::pair<Val, Val>> cases;
  unsigned bit = 0;
  for (Val va : vals) {
    for (Val vb : vals) {
      a.set(bit, va);
      b.set(bit, vb);
      cases.emplace_back(va, vb);
      ++bit;
    }
  }
  const WideVal<1> ins[2] = {a, b};
  const WideVal<1> out = eval_gate_wide<1>(t, ins, 2);
  for (unsigned i = 0; i < bit; ++i) {
    const Val sins[2] = {cases[i].first, cases[i].second};
    EXPECT_EQ(out.at(i), eval_gate(t, sins, 2))
        << gate_type_name(t) << " bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGateTypes, PackedAgreement,
                         ::testing::Values(GateType::And, GateType::Nand,
                                           GateType::Or, GateType::Nor,
                                           GateType::Xor, GateType::Xnor));

TEST(PackedVal, MuxPackedMatchesScalarAllTriples) {
  const Val vals[3] = {k0, k1, kX};
  auto s = WideVal<1>::broadcast(kX);
  auto d0 = WideVal<1>::broadcast(kX);
  auto d1 = WideVal<1>::broadcast(kX);
  std::vector<std::array<Val, 3>> cases;
  unsigned bit = 0;
  for (Val vs : vals) {
    for (Val v0 : vals) {
      for (Val v1 : vals) {
        s.set(bit, vs);
        d0.set(bit, v0);
        d1.set(bit, v1);
        cases.push_back({vs, v0, v1});
        ++bit;
      }
    }
  }
  const WideVal<1> ins[3] = {s, d0, d1};
  const WideVal<1> out = eval_gate_wide<1>(GateType::Mux, ins, 3);
  for (unsigned i = 0; i < bit; ++i) {
    const Val sins[3] = {cases[i][0], cases[i][1], cases[i][2]};
    EXPECT_EQ(out.at(i), eval_gate(GateType::Mux, sins, 3)) << "bit " << i;
  }
}

}  // namespace
}  // namespace fsct

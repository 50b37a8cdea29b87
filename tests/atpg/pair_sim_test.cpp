#include "atpg/pair_sim.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace fsct {
namespace {

constexpr Val k0 = Val::Zero;
constexpr Val k1 = Val::One;
constexpr Val kX = Val::X;

struct Built {
  Netlist nl;
  Levelizer lv;
  PairSim sim;
  explicit Built(Netlist n) : nl(std::move(n)), lv(nl), sim(lv) {}
};

Netlist and_tree() {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateType::And, {a, b}, "g1");
  nl.add_gate(GateType::Or, {g1, c}, "g2");
  return nl;
}

TEST(PairSim, InitIsAllXWithConstants) {
  Netlist nl("t");
  const NodeId c1 = nl.add_const(true, "c1");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::And, {c1, a}, "g");
  Built b(std::move(nl));
  b.sim.init({});
  EXPECT_EQ(b.sim.value(c1).g, k1);
  EXPECT_EQ(b.sim.value(a).g, kX);
  EXPECT_EQ(b.sim.value(g).g, kX);
  EXPECT_FALSE(b.sim.any_effect());
}

TEST(PairSim, SetSourcePropagates) {
  Built b(and_tree());
  b.sim.init({});
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, k1);
  EXPECT_EQ(b.sim.value(b.nl.find("g2")).g, k1);
  b.sim.set_source(b.nl.find("a"), kX);  // un-assign
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, kX);
}

TEST(PairSim, OutputSiteCreatesD) {
  Built b(and_tree());
  const NodeId g1 = b.nl.find("g1");
  const FaultSite site[] = {{g1, -1, k0}};  // g1 s-a-0
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  const PairVal v = b.sim.value(g1);
  EXPECT_EQ(v.g, k1);
  EXPECT_EQ(v.f, k0);
  EXPECT_TRUE(has_effect(v));
  EXPECT_TRUE(b.sim.any_effect());
}

TEST(PairSim, EffectPropagatesAndMasks) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  b.sim.set_source(b.nl.find("c"), k0);
  EXPECT_TRUE(has_effect(b.sim.value(b.nl.find("g2"))));  // D reaches g2
  b.sim.set_source(b.nl.find("c"), k1);  // OR side input masks
  EXPECT_FALSE(has_effect(b.sim.value(b.nl.find("g2"))));
  EXPECT_EQ(b.sim.value(b.nl.find("g2")).g, k1);
}

TEST(PairSim, PinSiteOnlyAffectsFaultyComponentOfThatGate) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId g2 = nl.add_gate(GateType::Buf, {a}, "g2");
  Built b(std::move(nl));
  const FaultSite site[] = {{g1, 0, k0}};
  b.sim.init(site);
  b.sim.set_source(a, k1);
  EXPECT_TRUE(has_effect(b.sim.value(g1)));
  EXPECT_FALSE(has_effect(b.sim.value(g2)));
  EXPECT_EQ(b.sim.value(a).f, k1);  // the stem itself is healthy
}

TEST(PairSim, InputOutputSite) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(GateType::Not, {a}, "g");
  Built b(std::move(nl));
  const FaultSite site[] = {{a, -1, k1}};  // a s-a-1
  b.sim.init(site);
  EXPECT_EQ(b.sim.value(a).f, k1);
  EXPECT_EQ(b.sim.value(a).g, kX);
  b.sim.set_source(a, k0);
  EXPECT_TRUE(has_effect(b.sim.value(a)));
  EXPECT_TRUE(has_effect(b.sim.value(g)));
  EXPECT_EQ(b.sim.value(g).f, k0);
}

TEST(PairSim, MultipleSitesSameFault) {
  // Two sites of "the same" stuck line across two frame copies.
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::Buf, {a}, "g1");
  const NodeId b2 = nl.add_input("b");
  const NodeId g2 = nl.add_gate(GateType::Buf, {b2}, "g2");
  Built b(std::move(nl));
  const FaultSite sites[] = {{g1, -1, k0}, {g2, -1, k0}};
  b.sim.init(sites);
  b.sim.set_source(a, k1);
  b.sim.set_source(b2, k1);
  EXPECT_TRUE(has_effect(b.sim.value(g1)));
  EXPECT_TRUE(has_effect(b.sim.value(g2)));
}

TEST(PairSim, EffectNetsTracksLiveEffects) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  b.sim.set_source(b.nl.find("c"), k0);
  const auto& nets = b.sim.effect_nets();
  EXPECT_EQ(nets.size(), 2u);  // g1 and g2
  b.sim.set_source(b.nl.find("b"), k0);  // deactivate the fault
  EXPECT_FALSE(b.sim.any_effect());
  EXPECT_TRUE(b.sim.effect_nets().empty());
}

TEST(PairSim, ReInitClearsPreviousFault) {
  Built b(and_tree());
  const FaultSite site[] = {{b.nl.find("g1"), -1, k0}};
  b.sim.init(site);
  b.sim.set_source(b.nl.find("a"), k1);
  b.sim.set_source(b.nl.find("b"), k1);
  EXPECT_TRUE(b.sim.any_effect());
  b.sim.init({});
  EXPECT_FALSE(b.sim.any_effect());
  EXPECT_EQ(b.sim.value(b.nl.find("g1")).g, kX);
}

TEST(PairSim, RejectsSequentialNetlists) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  nl.add_dff(a, "q");
  Built b(std::move(nl));
  EXPECT_THROW(b.sim.init({}), std::logic_error);
}

// Reference copy of the simulator before the undo trail: every change,
// un-assignment included, is re-simulated by event-driven propagation, with
// the same lazily compacted effect list.
class RefPairSim {
 public:
  explicit RefPairSim(const Levelizer& lv)
      : lv_(lv), soa_(SoaCircuit::compile(lv)) {
    const std::size_t n = soa_->size();
    pin_sites_.assign(n, {});
    observed_.assign(n, 0);
    buckets_.resize(static_cast<std::size_t>(soa_->max_level()) + 1);
    queued_.assign(n, 0);
  }

  void set_observed(std::span<const char> mask) {
    observed_.assign(mask.begin(), mask.end());
  }

  void init(std::span<const FaultSite> sites) {
    const std::size_t n = soa_->size();
    values_.assign(n, PairVal{});
    out_override_.assign(n, Val::X);
    for (auto& ps : pin_sites_) ps.clear();
    effect_flag_.assign(n, 0);
    in_effect_list_.assign(n, 0);
    effect_list_.clear();
    effect_count_ = observed_effect_count_ = 0;
    for (const FaultSite& s : sites) {
      if (s.pin == -1) {
        out_override_[s.node] = s.value;
      } else {
        pin_sites_[s.node].push_back(s);
      }
    }
    for (NodeId id = 0; id < n; ++id) {
      const GateType t = soa_->type(id);
      if (t == GateType::Const0 || t == GateType::Const1 ||
          t == GateType::Input) {
        const Val v = t == GateType::Const1   ? Val::One
                      : t == GateType::Const0 ? Val::Zero
                                              : Val::X;
        PairVal pv{v, v};
        if (out_override_[id] != Val::X) pv.f = out_override_[id];
        note_change(id, pv);
      }
    }
    for (NodeId id : lv_.topo_order()) note_change(id, eval_node(id));
  }

  void set_source(NodeId src, Val v) {
    PairVal pv{v, v};
    if (out_override_[src] != Val::X) pv.f = out_override_[src];
    if (values_[src] == pv) return;
    note_change(src, pv);
    const SoaCircuit& c = *soa_;
    const auto enqueue = [&](NodeId s) {
      if (!queued_[s]) {
        queued_[s] = 1;
        buckets_[static_cast<std::size_t>(c.level(s))].push_back(s);
      }
    };
    for (std::uint32_t i = 0; i < c.fanout_count(src); ++i) {
      enqueue(c.fanout(src)[i]);
    }
    for (auto& bucket : buckets_) {
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const NodeId id = bucket[i];
        queued_[id] = 0;
        const PairVal nv = eval_node(id);
        if (nv == values_[id]) continue;
        note_change(id, nv);
        for (std::uint32_t k = 0; k < c.fanout_count(id); ++k) {
          enqueue(c.fanout(id)[k]);
        }
      }
      bucket.clear();
    }
  }

  PairVal value(NodeId n) const { return values_[n]; }
  bool any_effect() const { return effect_count_ > 0; }
  bool any_observed_effect() const { return observed_effect_count_ > 0; }

  const std::vector<NodeId>& effect_nets() {
    std::size_t w = 0;
    for (const NodeId id : effect_list_) {
      if (effect_flag_[id]) {
        effect_list_[w++] = id;
      } else {
        in_effect_list_[id] = 0;
      }
    }
    effect_list_.resize(w);
    return effect_list_;
  }

 private:
  PairVal eval_node(NodeId id) const {
    const NodeId* fins = soa_->fanin(id);
    const std::uint32_t n = soa_->fanin_count(id);
    Val gin[kMaxFanin], fin[kMaxFanin];
    for (std::uint32_t p = 0; p < n; ++p) {
      gin[p] = values_[fins[p]].g;
      fin[p] = values_[fins[p]].f;
    }
    for (const FaultSite& s : pin_sites_[id]) fin[s.pin] = s.value;
    PairVal pv{eval_gate(soa_->type(id), gin, n),
               eval_gate(soa_->type(id), fin, n)};
    if (out_override_[id] != Val::X) pv.f = out_override_[id];
    return pv;
  }

  void note_change(NodeId id, PairVal nv) {
    values_[id] = nv;
    const bool eff = has_effect(nv);
    if (eff == (effect_flag_[id] != 0)) return;
    effect_flag_[id] = eff;
    if (eff) {
      ++effect_count_;
      observed_effect_count_ += observed_[id];
      if (!in_effect_list_[id]) {
        in_effect_list_[id] = 1;
        effect_list_.push_back(id);
      }
    } else {
      --effect_count_;
      observed_effect_count_ -= observed_[id];
    }
  }

  const Levelizer& lv_;
  std::shared_ptr<const SoaCircuit> soa_;
  std::vector<PairVal> values_;
  std::vector<Val> out_override_;
  std::vector<std::vector<FaultSite>> pin_sites_;
  std::vector<char> effect_flag_, in_effect_list_, observed_, queued_;
  std::vector<NodeId> effect_list_;
  std::size_t effect_count_ = 0, observed_effect_count_ = 0;
  std::vector<std::vector<NodeId>> buckets_;
};

Netlist random_pair_circuit(std::mt19937_64& rng) {
  Netlist nl("undo");
  std::vector<NodeId> pool;
  const int pis = 4 + static_cast<int>(rng() % 8);
  for (int i = 0; i < pis; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  pool.push_back(nl.add_const(rng() % 2 != 0, "c"));
  constexpr GateType kTypes[] = {
      GateType::And, GateType::Nand, GateType::Or,  GateType::Nor,
      GateType::Xor, GateType::Xnor, GateType::Mux, GateType::Buf,
      GateType::Not};
  const int gates = 20 + static_cast<int>(rng() % 60);
  for (int i = 0; i < gates; ++i) {
    const GateType t = kTypes[rng() % std::size(kTypes)];
    const int k = t == GateType::Mux                            ? 3
                  : t == GateType::Buf || t == GateType::Not ? 1
                                                              : 2 + rng() % 3;
    std::vector<NodeId> fins;
    for (int j = 0; j < k; ++j) {
      const std::size_t n = pool.size();
      fins.push_back(rng() % 2 ? pool[rng() % n]
                               : pool[n - 1 - rng() % std::min<std::size_t>(
                                                      n, 8)]);
    }
    pool.push_back(nl.add_gate(t, std::move(fins), "g" + std::to_string(i)));
  }
  return nl;
}

// PODEM-shaped random searches (assign, flip, pop in LIFO order) run on the
// simulator, popping with undo_to, and on the reference, popping with
// set_source(pi, X).  Every net's pair, both effect predicates and the exact
// effect_nets() order agree after every step.
TEST(PairSim, UndoMatchesReferenceUnassign) {
  std::mt19937_64 rng(23);
  std::size_t compared_effects = 0, pops = 0;
  for (int c = 0; c < 200; ++c) {
    const Netlist nl = random_pair_circuit(rng);
    const Levelizer lv(nl);
    PairSim sim(lv);
    RefPairSim ref(lv);
    std::vector<char> observed(nl.size(), 0);
    for (NodeId id = 0; id < nl.size(); ++id) observed[id] = rng() % 4 == 0;
    sim.set_observed(observed);
    ref.set_observed(observed);
    for (int f = 0; f < 6; ++f) {
      // One to five stem and pin sites, several on one node at times.
      std::vector<FaultSite> sites;
      const int nsites = 1 + static_cast<int>(rng() % 5);
      for (int s = 0; s < nsites; ++s) {
        const NodeId node = static_cast<NodeId>(
            sites.empty() || rng() % 3 ? rng() % nl.size()
                                       : sites.back().node);
        const int nfi = static_cast<int>(nl.fanins(node).size());
        const int pin =
            nfi > 0 && rng() % 2 ? static_cast<int>(rng() % nfi) : -1;
        sites.push_back({node, pin, rng() % 2 ? Val::One : Val::Zero});
      }
      sim.init(sites);
      ref.init(sites);
      struct Decision {
        NodeId pi;
        Val val;
        bool flipped;
        std::size_t mark;
      };
      std::vector<Decision> stack;
      const auto agree = [&](const char* step) {
        for (NodeId id = 0; id < nl.size(); ++id) {
          ASSERT_EQ(sim.value(id), ref.value(id))
              << step << " circuit " << c << " net " << nl.node_name(id);
        }
        ASSERT_EQ(sim.any_effect(), ref.any_effect()) << step;
        ASSERT_EQ(sim.any_observed_effect(), ref.any_observed_effect())
            << step;
        if (rng() % 2) {
          const std::vector<NodeId> got = sim.effect_nets();
          ASSERT_EQ(got, ref.effect_nets()) << step << " circuit " << c;
          compared_effects += got.size();
        }
      };
      for (int step = 0; step < 40; ++step) {
        const unsigned op = static_cast<unsigned>(rng() % 3);
        std::vector<NodeId> open;
        for (NodeId pi : nl.inputs()) {
          if (sim.value(pi).g == Val::X) open.push_back(pi);
        }
        if (op == 0 && !open.empty()) {
          const NodeId pi = open[rng() % open.size()];
          const Val v = rng() % 2 ? Val::One : Val::Zero;
          stack.push_back({pi, v, false, sim.mark()});
          sim.set_source(pi, v);
          ref.set_source(pi, v);
          agree("assign");
        } else if (!stack.empty()) {
          // PODEM's backtrack: pop flipped decisions, flip the next one.
          while (!stack.empty() && (stack.back().flipped || op == 2)) {
            sim.undo_to(stack.back().mark);
            ref.set_source(stack.back().pi, Val::X);
            stack.pop_back();
            ++pops;
            agree("undo");
            if (op == 2) break;
          }
          if (op == 1 && !stack.empty()) {
            Decision& d = stack.back();
            d.val = !d.val;
            d.flipped = true;
            sim.set_source(d.pi, d.val);
            ref.set_source(d.pi, d.val);
            agree("flip");
          }
        }
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(pops, 5000u);
  EXPECT_GT(compared_effects, 2000u);
}

}  // namespace
}  // namespace fsct

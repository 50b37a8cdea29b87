// Chain diagnosis demo: a part fails the chain test on the tester — which
// fault is it?
//
//   1. build a circuit with a TPI functional scan chain,
//   2. secretly inject a chain-affecting stuck-at fault,
//   3. apply the flush test + a marker load and record the responses,
//   4. run the diagnoser over every collapsed fault and print the suspects.
#include <cstdio>
#include <random>

#include "bench_circuits/generator.h"
#include "core/classify.h"
#include "core/diagnose.h"
#include "scan/scan_sequences.h"
#include "scan/tpi.h"

int main(int argc, char** argv) {
  using namespace fsct;
  RandomCircuitSpec spec;
  spec.num_gates = 400;
  spec.num_ffs = 32;
  spec.num_pis = 10;
  spec.num_pos = 8;
  spec.seed = (argc > 1) ? std::strtoull(argv[1], nullptr, 10) : 2024;
  Netlist nl = make_random_sequential(spec);
  const ScanDesign design = run_tpi(nl);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, design);
  const auto faults = collapsed_fault_list(nl);

  // Pick the "real" defect: a chain-affecting fault chosen by the seed.
  ChainFaultClassifier cls(model);
  std::mt19937_64 rng(spec.seed ^ 0xd1a6);
  Fault defect{};
  for (int tries = 0; tries < 1000; ++tries) {
    const Fault& f = faults[rng() % faults.size()];
    if (cls.classify(f).category != ChainFaultCategory::NotAffecting) {
      defect = f;
      break;
    }
  }
  std::printf("injected defect (hidden from the diagnoser): %s\n",
              fault_name(nl, defect).c_str());

  // Tester stimulus: flush + random marker loads.
  const ScanSequenceBuilder& sb = model.sequences();
  TestSequence seq = sb.alternating(model.flush_cycles());
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Val>> marker(design.chains.size());
    for (std::size_t c = 0; c < design.chains.size(); ++c) {
      marker[c].resize(design.chains[c].length());
      for (auto& v : marker[c]) v = (rng() & 1) ? Val::One : Val::Zero;
    }
    const TestSequence load = sb.load_state(marker);
    seq.insert(seq.end(), load.begin(), load.end());
    for (std::size_t i = 0; i < model.observe_cycles(); ++i) {
      seq.push_back(sb.base_vector(Val::Zero));
    }
  }
  std::printf("stimulus: %zu scan-mode cycles\n", seq.size());

  ChainDiagnoser diag(model);
  const ObservedResponse obs = diag.make_response(seq, defect);

  std::size_t symptoms = 0;  // mismatches vs the good machine
  {
    SeqSim good(lv);
    for (std::size_t t = 0; t < seq.size(); ++t) {
      const auto& v = good.step(seq[t]);
      for (std::size_t o = 0; o < diag.observe().size(); ++o) {
        const Val g = v[diag.observe()[o]];
        const Val ob = obs.observed[t][o];
        if (g != Val::X && ob != Val::X && g != ob) ++symptoms;
      }
    }
  }
  std::printf("observed symptoms: %zu mismatching strobe points\n\n", symptoms);

  const auto ranked = diag.diagnose(obs, faults, 8);
  std::printf("%-4s %-30s %-10s %-14s\n", "#", "suspect", "explained",
              "contradicts");
  bool hit = false;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const bool is_it = ranked[i].fault == defect;
    hit |= is_it;
    std::printf("%-4zu %-30s %-10d %-14d%s\n", i + 1,
                fault_name(nl, ranked[i].fault).c_str(), ranked[i].explained,
                ranked[i].contradictions, is_it ? "   <-- the defect" : "");
  }
  std::printf("\n%s\n", hit ? "defect found in the top suspects"
                            : "defect not in top suspects (signature-"
                              "equivalent faults rank above it)");
  return 0;
}

#include "core/diagnose.h"

#include <algorithm>

#include "sim/seq_sim.h"

namespace fsct {

ObservedResponse ChainDiagnoser::make_response(const TestSequence& sequence,
                                               const Fault& fault) const {
  ObservedResponse r;
  r.sequence = sequence;
  SeqSim sim(model_.levelizer());
  const Injection inj[1] = {to_injection(fault)};
  for (const auto& pi : sequence) {
    const auto& v = sim.step(pi, inj);
    std::vector<Val> row;
    row.reserve(observe().size());
    for (NodeId o : observe()) row.push_back(v[o]);
    r.observed.push_back(std::move(row));
  }
  return r;
}

std::vector<DiagnosisCandidate> ChainDiagnoser::diagnose(
    const ObservedResponse& response, std::span<const Fault> candidates,
    std::size_t top_k) const {
  const Levelizer& lv = model_.levelizer();

  // Good-machine trace: mismatches against it are the symptoms a candidate
  // must explain.
  std::vector<std::vector<Val>> good(response.sequence.size());
  {
    SeqSim sim(lv);
    for (std::size_t t = 0; t < response.sequence.size(); ++t) {
      const auto& v = sim.step(response.sequence[t]);
      good[t].reserve(observe().size());
      for (NodeId o : observe()) good[t].push_back(v[o]);
    }
  }

  std::vector<DiagnosisCandidate> out;
  out.reserve(candidates.size());
  for (const Fault& f : candidates) {
    DiagnosisCandidate c;
    c.fault = f;
    SeqSim sim(lv);
    const Injection inj[1] = {to_injection(f)};
    for (std::size_t t = 0; t < response.sequence.size(); ++t) {
      const auto& v = sim.step(response.sequence[t], inj);
      for (std::size_t o = 0; o < observe().size(); ++o) {
        const Val obs = response.observed[t][o];
        if (obs == Val::X) continue;  // masked / unrecorded
        const Val pred = v[observe()[o]];
        const Val g = good[t][o];
        if (pred != Val::X && pred != obs) ++c.contradictions;
        if (g != Val::X && g != obs && pred == obs) ++c.explained;
      }
    }
    out.push_back(c);
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const DiagnosisCandidate& a, const DiagnosisCandidate& b) {
                     if (a.score() != b.score()) return a.score() > b.score();
                     if (a.contradictions != b.contradictions) {
                       return a.contradictions < b.contradictions;
                     }
                     return a.fault < b.fault;
                   });
  if (top_k > 0 && out.size() > top_k) out.resize(top_k);
  return out;
}

}  // namespace fsct

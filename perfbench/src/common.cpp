#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/obs.h"

namespace perfbench {

fsct::Netlist make_circuit(const fsct::SuiteEntry& e, std::uint64_t seed,
                           std::uint64_t variant) {
  const fsct::Netlist base = fsct::build_suite_circuit(e);
  // Same fold build_suite_circuit applies to its fixed seed.
  std::uint64_t mix = seed;
  for (char c : e.name) mix = mix * 131 + static_cast<unsigned char>(c);
  mix ^= variant * 0x9e3779b97f4a7c15ull;
  if (seed == kSuiteSeed && variant == 0) return base;

  // Rename every net, keeping node ids, fanin order and output order, so the
  // screening work is exactly the suite circuit's.  Structural variation is
  // deliberately not seeded: one generated circuit's abort tail differs from
  // another's by 10x or more, which no run length here could average out.
  char tag[24];
  std::snprintf(tag, sizeof tag, "_%06llx",
                static_cast<unsigned long long>(mix & 0xffffff));
  fsct::Netlist nl(base.name());
  std::vector<fsct::NodeId> dffs;
  for (fsct::NodeId id = 0; id < base.size(); ++id) {
    const fsct::Node& n = base.node(id);
    const std::string name = n.name + tag;
    fsct::NodeId got;
    switch (n.type) {
      case fsct::GateType::Input:
        got = nl.add_input(name);
        break;
      case fsct::GateType::Const0:
      case fsct::GateType::Const1:
        got = nl.add_const(n.type == fsct::GateType::Const1, name);
        break;
      case fsct::GateType::Dff:
        got = nl.add_dff_floating(name);
        dffs.push_back(id);
        break;
      default:
        for (fsct::NodeId f : n.fanins) {
          if (f >= id && base.type(f) != fsct::GateType::Dff) {
            throw std::runtime_error("make_circuit: forward gate reference");
          }
        }
        got = nl.add_gate(n.type, n.fanins, name);
    }
    if (got != id) throw std::runtime_error("make_circuit: node id drift");
  }
  for (fsct::NodeId q : dffs) nl.set_fanin(q, 0, base.fanins(q)[0]);
  for (fsct::NodeId o : base.outputs()) nl.mark_output(o);
  return nl;
}

fsct::PipelineOptions screening_options(int jobs) {
  fsct::PipelineOptions opt;
  opt.jobs = jobs;
  opt.verify_easy = true;
  opt.dominance = true;
  opt.simd_width = 0;
  opt.comb_time_limit_ms = 0;
  opt.seq_time_limit_ms = 0;
  opt.final_time_limit_ms = 0;
  return opt;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() { return fsct::process_cpu_seconds(); }

double peak_rss_mb() {
  long cur = 0, peak = 0;
  fsct::ObsRegistry::read_rss_kb(cur, peak);
  return static_cast<double>(peak) / 1024.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t outcome_hash(const fsct::PipelineResult& r) {
  std::uint64_t h =
      fnv1a(r.outcome.data(), r.outcome.size() * sizeof(fsct::FaultOutcome));
  for (const fsct::ScanVector& v : r.vectors) {
    h = fnv1a(v.pi_vals.data(), v.pi_vals.size() * sizeof(fsct::Val), h);
    h = fnv1a(v.ff_state.data(), v.ff_state.size() * sizeof(fsct::Val), h);
  }
  for (const fsct::TestSequence& s : r.s3_sequences) {
    for (const auto& cyc : s) {
      h = fnv1a(cyc.data(), cyc.size() * sizeof(fsct::Val), h);
    }
  }
  h = fnv1a(r.s3_sequence_fault.data(),
            r.s3_sequence_fault.size() * sizeof(std::size_t), h);
  return h;
}

std::vector<std::string> workload_shapes(const Args& a) {
  if (a.smoke) return {"s1488", "s1494"};
  if (a.workload == "atpg_tail") return {"s1423", "s4863", "s5378"};
  if (a.workload == "sim_wide") return {"s9234", "s13207"};
  if (a.workload == "serve_mix") return {"s1423", "s1488", "s1494"};
  throw std::invalid_argument("unknown workload: " + a.workload);
}

}  // namespace perfbench

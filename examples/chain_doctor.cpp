// "Chain doctor": a small command-line tool a test engineer would actually
// use.  Takes a .bench file (or a built-in demo circuit), inserts a
// functional scan chain, and prints a per-chain health report: which
// faults threaten each chain segment, which are covered by the flush test,
// and the generated chain test set.
//
//   ./build/examples/chain_doctor [circuit.bench] [num_chains]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_circuits/paper_examples.h"
#include "core/pipeline.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "scan/tpi.h"

int main(int argc, char** argv) {
  using namespace fsct;
  Netlist nl = (argc > 1) ? read_bench_file(argv[1]) : iscas_s27();
  TpiOptions topt;
  if (argc > 2) topt.num_chains = std::atoi(argv[2]);

  TpiStats stats;
  const ScanDesign design = run_tpi(nl, topt, &stats);
  const Levelizer lv(nl);
  const ScanModeModel model(lv, design);
  if (std::string err = model.check(); !err.empty()) {
    std::printf("scan-mode invariant violated: %s\n", err.c_str());
    return 2;
  }

  std::printf("== %s ==\n%s", nl.name().c_str(),
              stats_string(compute_stats(nl)).c_str());
  std::printf("scan style: %d functional links / %d muxes, %d test points\n\n",
              stats.functional_segments, stats.mux_segments,
              stats.test_points);

  const auto faults = collapsed_fault_list(nl);
  PipelineOptions opt;
  opt.verify_easy = true;
  const PipelineResult r = run_fsct_pipeline(model, faults, opt);

  // Per-segment threat map.
  std::map<std::pair<int, int>, std::pair<int, int>> seg_counts;  // easy,hard
  for (std::size_t i = 0; i < faults.size(); ++i) {
    for (const ChainLocation& loc : r.info[i].locations) {
      auto& c = seg_counts[{loc.chain, loc.segment}];
      if (r.info[i].category == ChainFaultCategory::Easy) {
        ++c.first;
      } else {
        ++c.second;
      }
    }
  }
  for (std::size_t ci = 0; ci < design.chains.size(); ++ci) {
    const ScanChain& chain = design.chains[ci];
    std::printf("chain %zu (%zu FFs, scan_in=%s):\n", ci, chain.length(),
                nl.node_name(chain.scan_in).c_str());
    for (std::size_t k = 0; k < chain.segments.size(); ++k) {
      const auto it = seg_counts.find({static_cast<int>(ci),
                                       static_cast<int>(k)});
      const int easy = it == seg_counts.end() ? 0 : it->second.first;
      const int hard = it == seg_counts.end() ? 0 : it->second.second;
      const ScanSegment& s = chain.segments[k];
      std::printf("  seg %3zu -> %-12s %s%s  threats: %d flush-covered, %d hard\n",
                  k, nl.node_name(chain.ffs[k]).c_str(),
                  s.functional ? "functional" : "mux",
                  s.inverting ? " (inverting)" : "", easy, hard);
    }
  }

  std::printf("\nchain test plan:\n");
  std::printf("  1. alternating flush: %zu cycles (covers %zu faults)\n",
              model.flush_cycles(), r.easy);
  std::printf("  2. %zu converted combinational vectors (cover %zu faults)\n",
              r.s2_vectors, r.s2_detected);
  std::printf("  3. %zu sequential-ATPG circuit models (cover %zu faults)\n",
              r.s3_circuits_group + r.s3_circuits_final, r.s3_detected);
  std::printf("result: %zu/%zu chain-affecting faults covered, "
              "%zu undetectable, %zu open\n",
              r.easy + r.s2_detected + r.s3_detected, r.affecting(),
              r.s2_undetectable + r.s3_undetectable, r.s3_undetected);
  return 0;
}

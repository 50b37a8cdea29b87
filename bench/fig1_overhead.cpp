// Regenerates the Figure 1 claim: TPI functional scan needs far fewer scan
// muxes (and no dedicated chain wiring) than conventional full MUX scan.
//
// Area is compared in gate equivalents (GE): a 2:1 scan mux costs ~3.5 GE,
// a test point (one AND/OR gate) ~1.5 GE; dedicated scan wiring — the other
// half of the paper's motivation — is counted as chain links that need no
// new route because they ride existing functional paths.
#include <cstdio>

#include "bench/common.h"
#include "scan/mux_scan.h"

namespace {
constexpr double kMuxGe = 3.5;
constexpr double kTpGe = 1.5;
}  // namespace

int main(int argc, char** argv) {
  using namespace fsct;
  std::printf("Figure 1: scan overhead, conventional MUX scan vs TPI\n");
  std::printf("%-10s %-8s %-6s | %-9s | %-9s %-9s %-5s %-9s | %-9s %-9s\n",
              "name", "gates", "FFs", "mux-scan", "func", "muxes", "TPs",
              "pinnedPI", "GE saved", "no-route");
  double total_saved = 0;
  long total_ffs = 0, total_func = 0;
  for (const SuiteEntry& e : benchtool::select_circuits(argc, argv)) {
    Netlist mux_nl = build_suite_circuit(e);
    MuxScanOptions mopt;
    mopt.num_chains = e.chains;
    const ScanDesign md = insert_mux_scan(mux_nl, mopt);

    Netlist tpi_nl = build_suite_circuit(e);
    TpiOptions topt;
    topt.num_chains = e.chains;
    TpiStats stats;
    run_tpi(tpi_nl, topt, &stats);

    const double full_ge = kMuxGe * md.scan_muxes;
    const double tpi_ge =
        kMuxGe * stats.mux_segments + kTpGe * stats.test_points;
    const double saved = full_ge - tpi_ge;
    std::printf(
        "%-10s %-8d %-6d | %-9.0f | %-9d %-9d %-5d %-9d | %-9.0f %-9d\n",
        e.name.c_str(), e.gates, e.ffs, full_ge, stats.functional_segments,
        stats.mux_segments, stats.test_points, stats.assigned_pis, saved,
        stats.functional_segments);
    total_saved += saved;
    total_ffs += e.ffs;
    total_func += stats.functional_segments;
  }
  std::printf(
      "total: %.0f GE of scan-mux area saved across %ld scanned FFs, and\n"
      "%ld chain links need no dedicated scan route at all (they ride\n"
      "sensitised functional paths) — the paper's Figure-1 motivation.\n",
      total_saved, total_ffs, total_func);
  return 0;
}

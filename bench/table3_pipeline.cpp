// Regenerates Table 3: detecting the faults in f_hard.
// Left half: combinational ATPG + sequential fault simulation of the
// converted scan sequences (step 2).  Right half: grouped sequential ATPG on
// enhanced-controllability/observability circuit models (step 3).
//
// Paper totals for comparison: after step 2 only 0.159% of all faults remain
// undetected; after step 3 just 0.006% (0.022% of the chain-affecting ones).
#include <iostream>

#include "bench/common.h"
#include "core/obs.h"
#include "core/pipeline.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace fsct;
  PipelineOptions opt;
  opt.jobs = benchtool::select_jobs(argc, argv);
  benchtool::warn_if_oversubscribed(resolve_jobs(opt.jobs));
  // Long-run visibility: SIGUSR1 prints a live status dump; --progress adds
  // a heartbeat line (phase, done/total, rate, ETA, RSS) every second.
  install_sigusr1_handler();
  ObsMonitor::Options mopt;
  mopt.heartbeat = benchtool::select_progress(argc, argv);
  const ObsMonitor monitor(mopt);
  std::cout << "Table 3: detecting the faults in f_hard\n";
  print_table3_header(std::cout);
  Table3Row total{"total"};
  std::size_t total_faults = 0, total_affecting = 0;
  for (const SuiteEntry& e : benchtool::select_circuits(argc, argv)) {
    const benchtool::Prepared p = benchtool::prepare(e);
    ObsRegistry reg;
    opt.obs = &reg;
    const PipelineResult r = run_fsct_pipeline(*p.model, p.faults, opt);
    const Table3Row row = to_table3(e.name, r);
    print_table3_row(std::cout, row);
    total.s2_det += row.s2_det;
    total.s2_undetectable += row.s2_undetectable;
    total.s2_undetected += row.s2_undetected;
    total.s2_seconds += row.s2_seconds;
    total.circ_group += row.circ_group;
    total.circ_final += row.circ_final;
    total.s3_det += row.s3_det;
    total.s3_undetectable += row.s3_undetectable;
    total.s3_undetected += row.s3_undetected;
    total.s3_seconds += row.s3_seconds;
    total_faults += r.total_faults;
    total_affecting += r.affecting();
  }
  print_table3_total(std::cout, total);
  if (total_faults > 0) {
    std::cout << "\nundetected after step 2: " << total.s2_undetected << " = "
              << 100.0 * static_cast<double>(total.s2_undetected) /
                     static_cast<double>(total_faults)
              << "% of all faults (paper: 0.159%)\n";
    std::cout << "undetected after step 3: " << total.s3_undetected << " = "
              << 100.0 * static_cast<double>(total.s3_undetected) /
                     static_cast<double>(total_faults)
              << "% of all faults (paper: 0.006%), "
              << 100.0 * static_cast<double>(total.s3_undetected) /
                     static_cast<double>(total_affecting ? total_affecting : 1)
              << "% of chain-affecting faults (paper: 0.022%)\n";
  }
  return 0;
}

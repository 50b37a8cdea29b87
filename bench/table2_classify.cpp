// Regenerates Table 2: per circuit, the number of chain-affecting faults
// detectable by the alternating sequence (#easy, category 1) and the number
// that may escape it (#hard, category 2), with the classification CPU time.
//
// Paper totals for comparison: 22% of all faults are easy, 3% hard — i.e.
// about a quarter of all faults touch the functional scan chain at all.
#include <chrono>
#include <iostream>

#include "bench/common.h"
#include "core/classify.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace fsct;
  ThreadPool pool(benchtool::select_jobs(argc, argv));
  benchtool::warn_if_oversubscribed(pool.jobs());
  std::cout << "Table 2: finding easy and hard faults (jobs=" << pool.jobs()
            << ")\n";
  print_table2_header(std::cout);
  Table2Row total{"total", 0, 0, 0, 0};
  for (const SuiteEntry& e : benchtool::select_circuits(argc, argv)) {
    const benchtool::Prepared p = benchtool::prepare(e);
    const auto t0 = std::chrono::steady_clock::now();
    const auto infos = ChainFaultClassifier::classify_all_parallel(
        *p.model, p.faults, pool);
    Table2Row r{e.name, p.faults.size(), 0, 0, 0};
    for (const ChainFaultInfo& info : infos) {
      switch (info.category) {
        case ChainFaultCategory::Easy: ++r.easy; break;
        case ChainFaultCategory::Hard: ++r.hard; break;
        default: break;
      }
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    print_table2_row(std::cout, r);
    total.total_faults += r.total_faults;
    total.easy += r.easy;
    total.hard += r.hard;
    total.seconds += r.seconds;
  }
  print_table2_total(std::cout, total);
  std::cout << "paper shape: easy ~22% of all faults, hard ~3%, "
               "affecting ~25%\n";
  return 0;
}

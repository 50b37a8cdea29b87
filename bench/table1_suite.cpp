// Regenerates Table 1: the test suite (name, #gates, #FFs, #faults, #chains).
// Gate/FF counts are the published ISCAS'89 post-SIS sizes the generator
// targets; fault counts come from our collapsed single-stuck-at universe.
#include <iostream>

#include "bench/common.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace fsct;
  std::cout << "Table 1: test suite\n";
  print_table1_header(std::cout);
  Table1Row total{"total", 0, 0, 0, 0};
  for (const SuiteEntry& e : benchtool::select_circuits(argc, argv)) {
    const benchtool::Prepared p = benchtool::prepare(e);
    Table1Row r{e.name, p.base_gates, p.nl.dffs().size(), p.faults.size(),
                p.design.chains.size()};
    print_table1_row(std::cout, r);
    total.gates += r.gates;
    total.ffs += r.ffs;
    total.faults += r.faults;
    total.chains += r.chains;
  }
  print_table1_row(std::cout, total);
  return 0;
}

// Shared plumbing for the table/figure reproduction binaries: builds each
// suite circuit, applies TPI with the paper's chain counts, and offers a
// simple circuit filter plus the cross-bench options:
//   <bench> [circuit ...]        run only the named circuits
//   <bench> --max-gates N        skip circuits above N gates
//   <bench> --jobs N             executors for the fault-parallel phases
//                                (0 = one per hardware thread, 1 = serial)
//   <bench> --progress           periodic heartbeat lines on stderr; a
//                                SIGUSR1 prints a full live status dump
// With no arguments every suite circuit runs (paper configuration).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/suite.h"
#include "fault/fault.h"
#include "netlist/levelize.h"
#include "scan/scan_mode_model.h"
#include "scan/tpi.h"

namespace fsct::benchtool {

/// True when argv[i] is an option that consumes the next argument.
inline bool option_with_value(const char* s) {
  return std::strcmp(s, "--max-gates") == 0 || std::strcmp(s, "--jobs") == 0;
}

inline std::vector<SuiteEntry> select_circuits(int argc, char** argv) {
  std::vector<std::string> names;
  int max_gates = 1 << 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-gates") == 0 && i + 1 < argc) {
      max_gates = std::atoi(argv[++i]);
    } else if (option_with_value(argv[i]) && i + 1 < argc) {
      ++i;  // not ours; skip its value so it is not taken for a circuit name
    } else if (argv[i][0] != '-') {
      names.emplace_back(argv[i]);
    }
  }
  std::vector<SuiteEntry> out;
  for (const SuiteEntry& e : paper_suite()) {
    if (!names.empty()) {
      bool want = false;
      for (const std::string& n : names) want |= (n == e.name);
      if (!want) continue;
    }
    if (e.gates > max_gates) continue;
    out.push_back(e);
  }
  return out;
}

/// --jobs value (default 0 = one executor per hardware thread).
inline int select_jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) return std::atoi(argv[i + 1]);
  }
  return 0;
}

/// Host hardware threads (0 when the runtime cannot tell).
inline unsigned hardware_threads() { return std::thread::hardware_concurrency(); }

/// True when `jobs_used` oversubscribes the host: more executors than
/// hardware threads.  Timings are then wall-clock of time-sliced threads and
/// speedup numbers are not meaningful (results are still correct).
inline bool jobs_oversubscribed(unsigned jobs_used) {
  const unsigned hc = hardware_threads();
  return hc != 0 && jobs_used > hc;
}

/// Warns on stderr when the resolved job count oversubscribes the host —
/// once per process, not once per circuit (benches call this in a loop).
inline void warn_if_oversubscribed(unsigned jobs_used) {
  static bool warned = false;
  if (jobs_oversubscribed(jobs_used) && !warned) {
    warned = true;
    std::fprintf(stderr,
                 "warning: --jobs %u oversubscribes this host "
                 "(%u hardware threads); timings will not reflect real "
                 "parallel speedup\n",
                 jobs_used, hardware_threads());
  }
}

/// --progress: periodic heartbeat lines from an ObsMonitor.
inline bool select_progress(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--progress") == 0) return true;
  }
  return false;
}

/// One fully prepared circuit: netlist + TPI scan design + scan-mode model.
struct Prepared {
  SuiteEntry entry;
  Netlist nl;
  std::size_t base_gates = 0;  ///< mapped gates before DFT insertion
  ScanDesign design;
  TpiStats tpi_stats;
  std::unique_ptr<Levelizer> lv;
  std::unique_ptr<ScanModeModel> model;
  std::vector<Fault> faults;
};

inline Prepared prepare(const SuiteEntry& e) {
  Prepared p;
  p.entry = e;
  p.nl = build_suite_circuit(e);
  p.base_gates = p.nl.num_gates();
  TpiOptions topt;
  topt.num_chains = e.chains;
  p.design = run_tpi(p.nl, topt, &p.tpi_stats);
  p.lv = std::make_unique<Levelizer>(p.nl);
  p.model = std::make_unique<ScanModeModel>(*p.lv, p.design);
  p.faults = collapsed_fault_list(p.nl);
  return p;
}

}  // namespace fsct::benchtool

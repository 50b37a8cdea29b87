// Regenerates Figure 5: number of sequentially simulated step-2 test vectors
// versus cumulative detected faults.  The paper plots s38584 and observes
// that the large majority of detected faults fall to the first few vectors,
// so the test set can be truncated cheaply.
//
// Default circuit: s38584 (pass another suite name to change it).
#include <cstdio>

#include "bench/common.h"
#include "core/pipeline.h"

int main(int argc, char** argv) {
  using namespace fsct;
  PipelineOptions opt;
  opt.jobs = benchtool::select_jobs(argc, argv);
  benchtool::warn_if_oversubscribed(resolve_jobs(opt.jobs));
  auto circuits = benchtool::select_circuits(argc, argv);
  // Default to the paper's circuit when none was named.
  bool named = false;
  for (int i = 1; i < argc; ++i) {
    if (benchtool::option_with_value(argv[i])) {
      ++i;
    } else if (argv[i][0] != '-') {
      named = true;
    }
  }
  if (!named) circuits = {suite_entry("s38584")};
  for (const SuiteEntry& e : circuits) {
    const benchtool::Prepared p = benchtool::prepare(e);
    const PipelineResult r = run_fsct_pipeline(*p.model, p.faults, opt);
    std::printf("Figure 5: %s — detected faults vs simulated vectors\n",
                e.name.c_str());
    std::printf("%-10s %-10s\n", "#vectors", "#detected");
    // Print a decimated curve plus the exact head (the interesting region).
    const auto& curve = r.detection_curve;
    const std::size_t step = curve.size() > 40 ? curve.size() / 40 : 1;
    for (std::size_t i = 0; i < curve.size(); ++i) {
      if (i < 10 || i % step == 0 || i + 1 == curve.size()) {
        std::printf("%-10zu %-10zu\n", i + 1, curve[i]);
      }
    }
    if (!curve.empty()) {
      const std::size_t half = curve.size() / 2;
      std::printf(
          "shape: first half of the vectors detect %.1f%% of all step-2 "
          "detections (paper: strongly front-loaded)\n",
          100.0 * static_cast<double>(curve[half]) /
              static_cast<double>(curve.back() ? curve.back() : 1));
    }
  }
  return 0;
}

// Tester-program export/import for chain test sets.
//
// A chain test program is what actually ships to ATE: the ordered scan-mode
// stimulus (flush + converted vectors) together with the expected good-
// machine responses at every strobe point.  The format is a simple,
// line-oriented text format that round-trips:
//
//   FSCT-TEST 1
//   circuit <name>
//   inputs <pi names...>
//   observe <net names...>
//   cycles <n>
//   v <pi values> | <expected observe values>     # one line per cycle
//
// Values are '0', '1' or 'X' (don't-care stimulus / unpredictable strobe).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fault/seq_fault_sim.h"
#include "scan/scan_mode_model.h"

namespace fsct {

/// One exported tester program.
struct TestProgram {
  std::string circuit;
  std::vector<std::string> input_names;
  std::vector<std::string> observe_names;
  TestSequence stimulus;                       ///< per cycle, PI values
  std::vector<std::vector<Val>> expected;      ///< per cycle, observe values
};

/// Builds a program from stimulus segments played back to back: simulates
/// the good machine from power-up (all-X state) through their concatenation
/// and records the expected strobe values.  A flat stimulus is the
/// one-segment case; how the stimulus is cut never changes the program, only
/// how fast its strobes are computed (segments are traced side by side, one
/// per SIMD lane).  `observe` empty = POs + scan-outs.
TestProgram make_test_program(const ScanModeModel& model,
                              std::vector<TestSequence> segments,
                              std::vector<NodeId> observe = {});

/// Serialises / parses the text format (throws std::runtime_error with a
/// line number on malformed input).
void write_test_program(std::ostream& os, const TestProgram& p);
std::string write_test_program_string(const TestProgram& p);
TestProgram read_test_program(std::istream& is);
TestProgram read_test_program_string(const std::string& text);

/// Re-binds a parsed program to a netlist (names -> node ids) so it can be
/// simulated; throws if a name is unknown or the PI count mismatches.
struct BoundTestProgram {
  TestSequence stimulus;          ///< reordered to the netlist's inputs()
  std::vector<NodeId> observe;
  const std::vector<std::vector<Val>>* expected = nullptr;
};
BoundTestProgram bind_test_program(const Netlist& nl, const TestProgram& p);

/// Runs the program against the circuit (optionally with an injected fault)
/// and returns the number of strobe mismatches vs the expected responses.
std::size_t run_test_program(const Levelizer& lv, const TestProgram& p,
                             const Fault* fault = nullptr);

/// Assembles the complete chain test program from a pipeline result: the
/// alternating flush, every step-2 vector as a scan-load + flush-out
/// sequence, and every verified step-3 sequential test, concatenated into
/// one scan-mode stimulus with expected responses.
TestProgram make_chain_test_program(const ScanModeModel& model,
                                    const PipelineResult& result);

}  // namespace fsct

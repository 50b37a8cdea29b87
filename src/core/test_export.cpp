#include "core/test_export.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "scan/scan_sequences.h"
#include "sim/seq_sim.h"
#include "sim/soa_circuit.h"

namespace fsct {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("test program parse error, line " +
                           std::to_string(line) + ": " + msg);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  std::string t;
  while (is >> t) out.push_back(t);
  return out;
}

// Good-machine strobes of `stim` played from power-up, written into
// `expected`.  `first` holds the first row of every segment (ascending, no
// empty segments).  Segment s runs in lane s % 64 of a 64-lane block; blocks
// run in order.  Within a block, every pass sweeps the lanes from their
// current start states, then lane l + 1 restarts from the end state lane l
// just reached, until no start state changes.  Lane 0 starts from the true
// state (power-up, or the previous block's last end), so by induction every
// lane starts from its true state at the fixed point and its rows equal the
// flat sequential trace.  A pass whose first changed lane is f sweeps only
// as far as the longest segment from f on: lanes below f already started
// from their true states, and each pass makes at least one more lane start
// from its true state, so a block costs at most its lane count in passes.
// A scan load settles the state, so two passes are the usual case.
void trace_segments(const Levelizer& lv, const TestSequence& stim,
                    const std::vector<std::size_t>& first,
                    const std::vector<NodeId>& observe,
                    std::vector<std::vector<Val>>& expected) {
  using W = WideVal<1>;
  constexpr std::size_t kLanes = W::kLanes;
  WideSeqSim<1> sim(SoaCircuit::compile(lv));
  const SoaCircuit& c = sim.circuit();
  const std::size_t npi = c.inputs().size();
  const std::size_t nff = c.dffs().size();
  const std::size_t nobs = observe.size();
  std::vector<Val> carry(nff, Val::X);  // true end state of the last block
  std::vector<W> start(nff), end(nff), pis, strobes;
  std::vector<std::uint64_t> ends_at;   // per cycle: lanes ending there
  for (std::size_t b = 0; b < first.size(); b += kLanes) {
    const std::size_t n = std::min(kLanes, first.size() - b);
    std::size_t row0[kLanes] = {}, len[kLanes] = {}, longest = 0;
    for (std::size_t l = 0; l < n; ++l) {
      row0[l] = first[b + l];
      len[l] = (b + l + 1 < first.size() ? first[b + l + 1] : stim.size()) -
               row0[l];
      longest = std::max(longest, len[l]);
    }
    pis.assign(longest * npi, W::broadcast(Val::X));
    ends_at.assign(longest, 0);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t t = 0; t < len[l]; ++t) {
        const std::vector<Val>& row = stim[row0[l] + t];
        if (row.size() != npi) {
          throw std::invalid_argument(
              "make_test_program: PI vector size mismatch");
        }
        for (std::size_t i = 0; i < npi; ++i) {
          pis[t * npi + i].set(static_cast<unsigned>(l), row[i]);
        }
      }
      ends_at[len[l] - 1] |= 1ull << l;
    }
    strobes.resize(longest * nobs);
    for (std::size_t i = 0; i < nff; ++i) {
      start[i] = W::broadcast(Val::X);
      start[i].set(0, carry[i]);
      end[i] = W::broadcast(Val::X);
    }
    const std::uint64_t used = n == kLanes ? ~0ull : (1ull << n) - 1;
    std::size_t from = 0;  // first lane whose start changed
    for (;;) {
      std::size_t sweep = 0;
      for (std::size_t l = from; l < n; ++l) sweep = std::max(sweep, len[l]);
      sim.set_state(start);
      for (std::size_t t = 0; t < sweep; ++t) {
        const WideSim<1>& v =
            sim.step(std::span<const W>(pis.data() + t * npi, npi));
        for (std::size_t o = 0; o < nobs; ++o) {
          strobes[t * nobs + o] = v.value(observe[o]);
        }
        if (const std::uint64_t m = ends_at[t]) {
          for (std::size_t i = 0; i < nff; ++i) {
            const W& s = sim.state()[i];
            end[i].zero[0] = (end[i].zero[0] & ~m) | (s.zero[0] & m);
            end[i].one[0] = (end[i].one[0] & ~m) | (s.one[0] & m);
          }
        }
      }
      std::uint64_t changed = 0;
      for (std::size_t i = 0; i < nff; ++i) {
        const std::uint64_t z = (end[i].zero[0] << 1) | (start[i].zero[0] & 1);
        const std::uint64_t o = (end[i].one[0] << 1) | (start[i].one[0] & 1);
        changed |= (z ^ start[i].zero[0]) | (o ^ start[i].one[0]);
        start[i].zero[0] = z;
        start[i].one[0] = o;
      }
      changed &= used;
      if (changed == 0) break;
      from = static_cast<std::size_t>(std::countr_zero(changed));
    }
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t t = 0; t < len[l]; ++t) {
        std::vector<Val>& row = expected[row0[l] + t];
        row.resize(nobs);
        for (std::size_t o = 0; o < nobs; ++o) {
          row[o] = strobes[t * nobs + o].at(static_cast<unsigned>(l));
        }
      }
    }
    for (std::size_t i = 0; i < nff; ++i) {
      carry[i] = end[i].at(static_cast<unsigned>(n - 1));
    }
  }
}

}  // namespace

TestProgram make_test_program(const ScanModeModel& model,
                              std::vector<TestSequence> segments) {
  const Levelizer& lv = model.levelizer();
  const Netlist& nl = lv.netlist();
  const std::vector<NodeId>& observe = model.observe();
  TestProgram p;
  p.circuit = nl.name();
  for (NodeId pi : nl.inputs()) p.input_names.push_back(nl.node_name(pi));
  for (NodeId o : observe) p.observe_names.push_back(nl.node_name(o));
  std::size_t cycles = 0;
  for (const TestSequence& seg : segments) cycles += seg.size();
  p.stimulus.reserve(cycles);
  std::vector<std::size_t> first;
  for (TestSequence& seg : segments) {
    if (seg.empty()) continue;
    first.push_back(p.stimulus.size());
    std::move(seg.begin(), seg.end(), std::back_inserter(p.stimulus));
  }
  p.expected.resize(p.stimulus.size());
  trace_segments(lv, p.stimulus, first, observe, p.expected);
  return p;
}

void write_test_program(std::ostream& os, const TestProgram& p) {
  os << "FSCT-TEST 1\n";
  os << "circuit " << p.circuit << "\n";
  os << "inputs";
  for (const auto& n : p.input_names) os << ' ' << n;
  os << "\nobserve";
  for (const auto& n : p.observe_names) os << ' ' << n;
  os << "\ncycles " << p.stimulus.size() << "\n";
  for (std::size_t t = 0; t < p.stimulus.size(); ++t) {
    os << "v ";
    for (Val v : p.stimulus[t]) os << val_char(v);
    os << " | ";
    for (Val v : p.expected[t]) os << val_char(v);
    os << "\n";
  }
}

std::string write_test_program_string(const TestProgram& p) {
  std::ostringstream os;
  write_test_program(os, p);
  return os.str();
}

TestProgram read_test_program(std::istream& is) {
  TestProgram p;
  std::string line;
  int ln = 0;

  auto next = [&]() -> bool {
    while (std::getline(is, line)) {
      ++ln;
      if (auto h = line.find('#'); h != std::string::npos) line.erase(h);
      if (!split_ws(line).empty()) return true;
    }
    return false;
  };

  if (!next() || split_ws(line) != std::vector<std::string>{"FSCT-TEST", "1"}) {
    fail(ln, "missing FSCT-TEST 1 header");
  }
  std::size_t cycles = 0;
  bool have_cycles = false;
  while (!have_cycles) {
    if (!next()) fail(ln, "unexpected end of header");
    auto toks = split_ws(line);
    if (toks[0] == "circuit") {
      if (toks.size() != 2) fail(ln, "circuit takes one name");
      p.circuit = toks[1];
    } else if (toks[0] == "inputs") {
      p.input_names.assign(toks.begin() + 1, toks.end());
    } else if (toks[0] == "observe") {
      p.observe_names.assign(toks.begin() + 1, toks.end());
    } else if (toks[0] == "cycles") {
      if (toks.size() != 2) fail(ln, "cycles takes one number");
      // std::stoul alone would accept "12abc" and throw context-free
      // exceptions on overflow or garbage.
      std::size_t pos = 0;
      unsigned long v = 0;
      try {
        v = std::stoul(toks[1], &pos);
      } catch (const std::exception&) {
        fail(ln, "invalid cycle count '" + toks[1] + "'");
      }
      if (pos != toks[1].size() || v > 100000000) {
        fail(ln, "invalid cycle count '" + toks[1] + "'");
      }
      cycles = static_cast<std::size_t>(v);
      have_cycles = true;
    } else {
      fail(ln, "unknown directive '" + toks[0] + "'");
    }
  }
  for (std::size_t t = 0; t < cycles; ++t) {
    if (!next()) fail(ln, "missing vector line");
    const auto toks = split_ws(line);
    if (toks.size() != 4 || toks[0] != "v" || toks[2] != "|") {
      fail(ln, "expected 'v <stimulus> | <expected>'");
    }
    if (toks[1].size() != p.input_names.size()) {
      fail(ln, "stimulus width != #inputs");
    }
    if (toks[3].size() != p.observe_names.size()) {
      fail(ln, "expected-response width != #observe");
    }
    std::vector<Val> stim, exp;
    try {
      for (char c : toks[1]) stim.push_back(val_from_char(c));
      for (char c : toks[3]) exp.push_back(val_from_char(c));
    } catch (const std::invalid_argument&) {
      fail(ln, "vector contains a character other than 0/1/X");
    }
    p.stimulus.push_back(std::move(stim));
    p.expected.push_back(std::move(exp));
  }
  return p;
}

TestProgram read_test_program_string(const std::string& text) {
  std::istringstream is(text);
  return read_test_program(is);
}

BoundTestProgram bind_test_program(const Netlist& nl, const TestProgram& p) {
  if (p.input_names.size() != nl.inputs().size()) {
    throw std::runtime_error("bind: program has " +
                             std::to_string(p.input_names.size()) +
                             " inputs, netlist has " +
                             std::to_string(nl.inputs().size()));
  }
  // Program order -> netlist inputs() order.
  std::vector<std::size_t> perm(p.input_names.size());
  for (std::size_t i = 0; i < p.input_names.size(); ++i) {
    const NodeId id = nl.find(p.input_names[i]);
    if (id == kNullNode) {
      throw std::runtime_error("bind: unknown input " + p.input_names[i]);
    }
    bool found = false;
    for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
      if (nl.inputs()[k] == id) {
        perm[i] = k;
        found = true;
      }
    }
    if (!found) {
      throw std::runtime_error("bind: " + p.input_names[i] +
                               " is not a primary input");
    }
  }
  BoundTestProgram b;
  b.stimulus.reserve(p.stimulus.size());
  for (const auto& row : p.stimulus) {
    std::vector<Val> v(nl.inputs().size(), Val::X);
    for (std::size_t i = 0; i < row.size(); ++i) v[perm[i]] = row[i];
    b.stimulus.push_back(std::move(v));
  }
  for (const auto& n : p.observe_names) {
    const NodeId id = nl.find(n);
    if (id == kNullNode) {
      throw std::runtime_error("bind: unknown observe net " + n);
    }
    b.observe.push_back(id);
  }
  b.expected = &p.expected;
  return b;
}

std::size_t run_test_program(const Levelizer& lv, const TestProgram& p,
                             const Fault* fault) {
  const BoundTestProgram b = bind_test_program(lv.netlist(), p);
  SeqSim sim(lv);
  Injection inj[1];
  std::span<const Injection> injections;
  if (fault != nullptr) {
    inj[0] = to_injection(*fault);
    injections = std::span<const Injection>(inj, 1);
  }
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < b.stimulus.size(); ++t) {
    const auto& v = sim.step(b.stimulus[t], injections);
    for (std::size_t o = 0; o < b.observe.size(); ++o) {
      const Val want = (*b.expected)[t][o];
      const Val got = v[b.observe[o]];
      if (want != Val::X && got != Val::X && want != got) ++mismatches;
    }
  }
  return mismatches;
}

TestProgram make_chain_test_program(const ScanModeModel& model,
                                    const PipelineResult& result) {
  const ScanSequenceBuilder& sb = model.sequences();
  std::vector<TestSequence> segments;
  segments.reserve(1 + result.vectors.size() + result.s3_sequences.size());
  segments.push_back(sb.alternating(model.flush_cycles()));
  for (const ScanVector& v : result.vectors) {
    segments.push_back(
        sb.apply_comb_vector(v.ff_state, v.pi_vals, model.observe_cycles()));
  }
  segments.insert(segments.end(), result.s3_sequences.begin(),
                  result.s3_sequences.end());
  return make_test_program(model, std::move(segments));
}

}  // namespace fsct

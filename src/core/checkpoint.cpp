// The checkpoint file format, its durable writer and the in-process runner
// (safe-point cadence, stop signals, resume with observability restored).
#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/io_util.h"
#include "core/json.h"
#include "core/obs.h"
#include "netlist/bench_io.h"
#include "sim/value.h"

namespace fsct {
namespace {

constexpr const char* kSchema = "fsct-ckpt-v1";

constexpr const char* kVerdictNames[] = {
    "detected", "unverified", "untestable", "aborted", "nosites",
};

[[noreturn]] void fail(const std::string& name, std::size_t lineno,
                       const std::string& msg) {
  throw JsonParseError(name + ": line " + std::to_string(lineno) + ": " + msg);
}

// ---------------------------------------------------------------- writing --

void append_u64_array(std::ostream& os, const std::vector<std::size_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

void append_val_string(std::ostream& os, const std::vector<Val>& vals) {
  os << '"';
  for (Val v : vals) os << val_char(v);
  os << '"';
}

void append_seq(std::ostream& os, const TestSequence& seq) {
  os << '[';
  for (std::size_t c = 0; c < seq.size(); ++c) {
    if (c) os << ',';
    append_val_string(os, seq[c]);
  }
  os << ']';
}

// The header's "scalars" object: every PipelineResult tally, in this order.
constexpr std::pair<const char*, std::size_t PipelineResult::*> kScalars[] = {
    {"total_faults", &PipelineResult::total_faults},
    {"easy", &PipelineResult::easy},
    {"hard", &PipelineResult::hard},
    {"easy_verified", &PipelineResult::easy_verified},
    {"dominance_targets", &PipelineResult::dominance_targets},
    {"flush_detected", &PipelineResult::flush_detected},
    {"ledger_dropped", &PipelineResult::ledger_dropped},
    {"s2_detected", &PipelineResult::s2_detected},
    {"s2_undetectable", &PipelineResult::s2_undetectable},
    {"s2_undetected", &PipelineResult::s2_undetected},
    {"s2_vectors", &PipelineResult::s2_vectors},
    {"s3_circuits_group", &PipelineResult::s3_circuits_group},
    {"s3_circuits_final", &PipelineResult::s3_circuits_final},
    {"s3_detected", &PipelineResult::s3_detected},
    {"s3_undetectable", &PipelineResult::s3_undetectable},
    {"s3_undetected", &PipelineResult::s3_undetected},
    {"s3_unverified", &PipelineResult::s3_unverified},
};

// ---------------------------------------------------------------- parsing --

// Parses one NDJSON line, re-anchoring any error to the file line number (the
// per-line parser would otherwise always report "line 1").
JVal parse_line(const std::string& line, const std::string& name,
                std::size_t lineno) {
  JsonParser p(line, name);
  try {
    return p.parse();
  } catch (const JsonParseError& e) {
    std::string msg = e.what();
    const std::string prefix = name + ": line ";
    if (msg.rfind(prefix, 0) == 0) {
      const std::size_t colon = msg.find(": ", prefix.size());
      if (colon != std::string::npos) msg = msg.substr(colon + 2);
    }
    fail(name, lineno, msg);
  }
}

const JVal& want(const JVal& obj, const char* key, JVal::Kind kind,
                 const std::string& name, std::size_t lineno) {
  const JVal* v = obj.find(key);
  if (!v) fail(name, lineno, std::string("missing field \"") + key + "\"");
  if (v->kind != kind) {
    fail(name, lineno, std::string("field \"") + key + "\" has wrong type");
  }
  return *v;
}

std::uint64_t as_u64(const JVal& v, const std::string& name,
                     std::size_t lineno) {
  if (v.kind != JVal::Num || v.num < 0 || v.num >= 0x1p64) {
    fail(name, lineno, "expected count");
  }
  return static_cast<std::uint64_t>(v.num);
}

std::uint64_t want_u64(const JVal& obj, const char* key,
                       const std::string& name, std::size_t lineno) {
  return as_u64(want(obj, key, JVal::Num, name, lineno), name, lineno);
}

std::vector<Val> vals_from_string(const std::string& s,
                                  const std::string& name,
                                  std::size_t lineno) {
  std::vector<Val> out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '0') out.push_back(Val::Zero);
    else if (c == '1') out.push_back(Val::One);
    else if (c == 'x' || c == 'X') out.push_back(Val::X);
    else fail(name, lineno, "bad value character in cycle string");
  }
  return out;
}

TestSequence parse_seq(const JVal& v, const std::string& name,
                       std::size_t lineno) {
  if (v.kind != JVal::Arr) fail(name, lineno, "sequence is not an array");
  TestSequence seq;
  seq.reserve(v.arr.size());
  for (const JVal& cyc : v.arr) {
    if (cyc.kind != JVal::Str) fail(name, lineno, "cycle is not a string");
    seq.push_back(vals_from_string(cyc.str, name, lineno));
  }
  return seq;
}

std::vector<std::size_t> parse_u64_array(const JVal& v,
                                         const std::string& name,
                                         std::size_t lineno) {
  if (v.kind != JVal::Arr) fail(name, lineno, "expected array of counts");
  std::vector<std::size_t> out;
  out.reserve(v.arr.size());
  for (const JVal& e : v.arr) {
    out.push_back(static_cast<std::size_t>(as_u64(e, name, lineno)));
  }
  return out;
}

}  // namespace

std::string serialize_checkpoint(const CheckpointData& data) {
  const PipelineState& st = data.state;
  const PipelineResult& r = st.res;
  std::ostringstream os;

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(data.hash));
  os << "{\"schema\":\"" << kSchema << "\",\"hash\":\"" << hex
     << "\",\"phase\":\"" << pipeline_phase_name(st.next)
     << "\",\"podem_next\":" << st.podem_next << ",\"scalars\":";
  const char* sep = "{";
  for (const auto& [key, field] : kScalars) {
    os << sep << '"' << key << "\":" << r.*field;
    sep = ",";
  }
  os << "}}\n";

  os << "{\"section\":\"outcome\",\"data\":\"";
  for (FaultOutcome o : r.outcome) os << static_cast<int>(o);
  os << "\"}\n";

  os << "{\"section\":\"info\",\"data\":[";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    const ChainFaultInfo& ci = r.info[i];
    os << (i ? "," : "") << '[' << static_cast<int>(ci.category) << ','
       << (ci.multi_chain ? 1 : 0) << ",[";
    for (std::size_t k = 0; k < ci.locations.size(); ++k) {
      os << (k ? "," : "") << ci.locations[k].chain << ','
         << ci.locations[k].segment;
    }
    os << "]]";
  }
  os << "]}\n";

  if (st.next == PipelinePhase::S2Podem) {
    os << "{\"section\":\"comb\",\"data\":\"";
    for (char c : st.comb_covered) os << (c ? '1' : '0');
    os << "\"}\n";
  }

  os << "{\"section\":\"vectors\",\"data\":[";
  for (std::size_t i = 0; i < r.vectors.size(); ++i) {
    os << (i ? "," : "") << '[';
    append_val_string(os, r.vectors[i].pi_vals);
    os << ',';
    append_val_string(os, r.vectors[i].ff_state);
    os << ']';
  }
  os << "]}\n";

  os << "{\"section\":\"curve\",\"data\":";
  append_u64_array(os, r.detection_curve);
  os << "}\n";

  os << "{\"section\":\"seqs\",\"data\":[";
  for (std::size_t i = 0; i < r.s3_sequences.size(); ++i) {
    if (i) os << ',';
    append_seq(os, r.s3_sequences[i]);
  }
  os << "]}\n";

  os << "{\"section\":\"seqfault\",\"data\":";
  append_u64_array(os, r.s3_sequence_fault);
  os << "}\n";

  os << "{\"section\":\"counters\",\"data\":{";
  for (std::size_t i = 0; i < data.counters.size(); ++i) {
    os << (i ? "," : "") << '"' << data.counters[i].first
       << "\":" << data.counters[i].second;
  }
  os << "}}\n";

  os << "{\"section\":\"hists\",\"data\":{";
  for (std::size_t i = 0; i < data.hists.size(); ++i) {
    const CheckpointData::HistState& h = data.hists[i];
    os << (i ? "," : "") << '"' << h.name << "\":{\"sum\":" << h.sum
       << ",\"buckets\":[";
    for (std::size_t k = 0; k < h.buckets.size(); ++k) {
      os << (k ? "," : "") << h.buckets[k];
    }
    os << "]}";
  }
  os << "}}\n";

  os << "{\"section\":\"attr\",\"data\":[";
  for (std::size_t i = 0; i < data.attr.size(); ++i) {
    os << (i ? "," : "") << '[' << data.attr[i].fault << ",\""
       << data.attr[i].column << "\"," << data.attr[i].count << ']';
  }
  os << "]}\n";

  // Every line before the sentinel counts: the header, the nine fixed
  // sections, the optional comb section, then one line per finished group
  // (ascending index) or final (ascending fault id: slot order).
  std::size_t lines = 10 + (st.next == PipelinePhase::S2Podem);

  for (std::size_t gi = 0; gi < st.groups_done.size(); ++gi) {
    if (!st.groups_done[gi]) continue;
    const GroupOutcome& go = st.groups[gi];
    os << "{\"section\":\"group\",\"gi\":" << gi << ",\"detected\":";
    append_u64_array(os, go.detected);
    os << ",\"credited\":";
    append_u64_array(os, go.credited);
    os << ",\"unverified\":" << go.unverified << ",\"seqs\":[";
    for (std::size_t i = 0; i < go.seqs.size(); ++i) {
      if (i) os << ',';
      append_seq(os, go.seqs[i]);
    }
    os << "]}\n";
    ++lines;
  }

  const std::vector<std::size_t> final_ids = open_hard_faults(r);
  for (std::size_t k = 0; k < st.finals_done.size(); ++k) {
    if (!st.finals_done[k]) continue;
    const FinalOutcome& fo = st.finals[k];
    os << "{\"section\":\"final\",\"id\":" << final_ids.at(k)
       << ",\"verdict\":\""
       << kVerdictNames[static_cast<std::size_t>(fo.verdict)] << "\",\"seq\":";
    append_seq(os, fo.seq);
    os << "}\n";
    ++lines;
  }

  os << "{\"section\":\"end\",\"lines\":" << lines << "}\n";
  return os.str();
}

CheckpointData parse_checkpoint(const std::string& text,
                                const std::string& name) {
  CheckpointData data;
  PipelineState& st = data.state;
  PipelineResult& r = st.res;

  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) fail(name, 1, "empty checkpoint file");

  // Header.
  {
    const JVal h = parse_line(lines[0], name, 1);
    if (h.kind != JVal::Obj) fail(name, 1, "header is not an object");
    const JVal& schema = want(h, "schema", JVal::Str, name, 1);
    if (schema.str != kSchema) {
      fail(name, 1, "unsupported checkpoint schema \"" + schema.str + "\"");
    }
    const JVal& hash = want(h, "hash", JVal::Str, name, 1);
    char* endp = nullptr;
    data.hash = std::strtoull(hash.str.c_str(), &endp, 16);
    if (hash.str.empty() || (endp && *endp != '\0')) {
      fail(name, 1, "malformed binding hash");
    }
    const JVal& phase = want(h, "phase", JVal::Str, name, 1);
    if (!pipeline_phase_from_name(phase.str, &st.next)) {
      fail(name, 1, "unknown phase \"" + phase.str + "\"");
    }
    st.podem_next =
        static_cast<std::size_t>(want_u64(h, "podem_next", name, 1));
    const JVal& scalars = want(h, "scalars", JVal::Obj, name, 1);
    for (const auto& [key, v] : scalars.obj) {
      const auto it =
          std::find_if(std::begin(kScalars), std::end(kScalars),
                       [&](const auto& s) { return key == s.first; });
      if (it == std::end(kScalars)) {
        fail(name, 1, "unknown scalar \"" + key + "\"");
      }
      r.*(it->second) = static_cast<std::size_t>(as_u64(v, name, 1));
    }
  }

  bool saw_end = false;
  bool saw_outcome = false, saw_info = false, saw_comb = false;
  std::vector<std::size_t> final_ids;  // fault id per final slot

  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::size_t lineno = li + 1;
    if (saw_end) fail(name, lineno, "content after end sentinel");
    const JVal v = parse_line(lines[li], name, lineno);
    if (v.kind != JVal::Obj) fail(name, lineno, "line is not an object");
    const std::string section = want(v, "section", JVal::Str, name, lineno).str;
    auto counts = [&](const char* key) {
      return parse_u64_array(want(v, key, JVal::Arr, name, lineno), name,
                             lineno);
    };

    if (section == "end") {
      const std::uint64_t n = want_u64(v, "lines", name, lineno);
      if (n != li) {
        fail(name, lineno,
             "checkpoint is corrupt: end sentinel expects " +
                 std::to_string(n) + " lines, found " + std::to_string(li));
      }
      saw_end = true;
    } else if (section == "outcome") {
      const JVal& d = want(v, "data", JVal::Str, name, lineno);
      r.outcome.clear();
      r.outcome.reserve(d.str.size());
      for (char c : d.str) {
        if (c < '0' || c > '7') fail(name, lineno, "bad outcome digit");
        r.outcome.push_back(static_cast<FaultOutcome>(c - '0'));
      }
      saw_outcome = true;
    } else if (section == "info") {
      const JVal& d = want(v, "data", JVal::Arr, name, lineno);
      r.info.clear();
      r.info.reserve(d.arr.size());
      for (const JVal& e : d.arr) {
        if (e.kind != JVal::Arr || e.arr.size() != 3 ||
            e.arr[0].kind != JVal::Num || e.arr[1].kind != JVal::Num ||
            e.arr[2].kind != JVal::Arr) {
          fail(name, lineno, "malformed fault info entry");
        }
        ChainFaultInfo ci;
        const std::uint64_t cat = as_u64(e.arr[0], name, lineno);
        if (cat > 2) fail(name, lineno, "bad fault category");
        ci.category = static_cast<ChainFaultCategory>(cat);
        ci.multi_chain = as_u64(e.arr[1], name, lineno) != 0;
        const std::vector<std::size_t> flat =
            parse_u64_array(e.arr[2], name, lineno);
        if (flat.size() % 2) fail(name, lineno, "odd location list");
        for (std::size_t k = 0; k + 1 < flat.size(); k += 2) {
          if (std::max(flat[k], flat[k + 1]) > INT_MAX) {
            fail(name, lineno, "chain location out of range");
          }
          ci.locations.push_back(ChainLocation{static_cast<int>(flat[k]),
                                               static_cast<int>(flat[k + 1])});
        }
        r.info.push_back(std::move(ci));
      }
      saw_info = true;
    } else if (section == "comb") {
      const JVal& d = want(v, "data", JVal::Str, name, lineno);
      st.comb_covered.clear();
      for (char c : d.str) {
        if (c != '0' && c != '1') fail(name, lineno, "bad comb-covered flag");
        st.comb_covered.push_back(c == '1');
      }
      saw_comb = true;
    } else if (section == "vectors") {
      const JVal& d = want(v, "data", JVal::Arr, name, lineno);
      r.vectors.clear();
      for (const JVal& e : d.arr) {
        if (e.kind != JVal::Arr || e.arr.size() != 2 ||
            e.arr[0].kind != JVal::Str || e.arr[1].kind != JVal::Str) {
          fail(name, lineno, "malformed scan vector");
        }
        ScanVector sv;
        sv.pi_vals = vals_from_string(e.arr[0].str, name, lineno);
        sv.ff_state = vals_from_string(e.arr[1].str, name, lineno);
        r.vectors.push_back(std::move(sv));
      }
    } else if (section == "curve") {
      r.detection_curve = counts("data");
    } else if (section == "seqs") {
      const JVal& d = want(v, "data", JVal::Arr, name, lineno);
      r.s3_sequences.clear();
      for (const JVal& e : d.arr) {
        r.s3_sequences.push_back(parse_seq(e, name, lineno));
      }
    } else if (section == "seqfault") {
      r.s3_sequence_fault = counts("data");
    } else if (section == "counters") {
      const JVal& d = want(v, "data", JVal::Obj, name, lineno);
      for (const auto& [key, cv] : d.obj) {
        data.counters.emplace_back(key, as_u64(cv, name, lineno));
      }
    } else if (section == "hists") {
      const JVal& d = want(v, "data", JVal::Obj, name, lineno);
      for (const auto& [key, hv] : d.obj) {
        if (hv.kind != JVal::Obj) fail(name, lineno, "malformed histogram");
        CheckpointData::HistState hs;
        hs.name = key;
        hs.sum = want_u64(hv, "sum", name, lineno);
        const std::vector<std::size_t> b = parse_u64_array(
            want(hv, "buckets", JVal::Arr, name, lineno), name, lineno);
        hs.buckets.assign(b.begin(), b.end());
        data.hists.push_back(std::move(hs));
      }
    } else if (section == "attr") {
      const JVal& d = want(v, "data", JVal::Arr, name, lineno);
      for (const JVal& e : d.arr) {
        if (e.kind != JVal::Arr || e.arr.size() != 3 ||
            e.arr[1].kind != JVal::Str) {
          fail(name, lineno, "malformed attribution cell");
        }
        CheckpointData::AttrCell cell;
        cell.fault = static_cast<std::size_t>(as_u64(e.arr[0], name, lineno));
        cell.column = e.arr[1].str;
        cell.count = as_u64(e.arr[2], name, lineno);
        data.attr.push_back(std::move(cell));
      }
    } else if (section == "group") {
      if (st.next != PipelinePhase::S3Groups) {
        fail(name, lineno, "group entry outside phase s3.groups");
      }
      const std::size_t gi =
          static_cast<std::size_t>(want_u64(v, "gi", name, lineno));
      // A group holds at least one fault: a valid index is below the fault
      // count (the outcome section precedes the items).
      if (gi >= r.outcome.size()) {
        fail(name, lineno, "group index out of range");
      }
      if (gi >= st.groups.size()) {
        st.groups.resize(gi + 1);
        st.groups_done.resize(gi + 1);
      }
      if (st.groups_done[gi]) fail(name, lineno, "duplicate group entry");
      st.groups_done[gi] = 1;
      GroupOutcome& go = st.groups[gi];
      go.detected = counts("detected");
      go.credited = counts("credited");
      go.unverified =
          static_cast<std::size_t>(want_u64(v, "unverified", name, lineno));
      const JVal& seqs = want(v, "seqs", JVal::Arr, name, lineno);
      for (const JVal& e : seqs.arr) {
        go.seqs.push_back(parse_seq(e, name, lineno));
      }
      if (go.seqs.size() != go.detected.size()) {
        fail(name, lineno, "group sequences misaligned with detections");
      }
    } else if (section == "final") {
      if (st.next != PipelinePhase::S3Final) {
        fail(name, lineno, "final entry outside phase s3.final");
      }
      const std::size_t id =
          static_cast<std::size_t>(want_u64(v, "id", name, lineno));
      FinalOutcome fo;
      const std::string verdict =
          want(v, "verdict", JVal::Str, name, lineno).str;
      const auto vit = std::find(std::begin(kVerdictNames),
                                 std::end(kVerdictNames), verdict);
      if (vit == std::end(kVerdictNames)) {
        fail(name, lineno, "unknown verdict \"" + verdict + "\"");
      }
      fo.verdict = static_cast<FinalVerdict>(vit - std::begin(kVerdictNames));
      fo.seq = parse_seq(want(v, "seq", JVal::Arr, name, lineno), name,
                         lineno);
      // A final's slot is its rank among the open hard faults.
      if (st.finals.empty()) {
        if (!saw_outcome || !saw_info || r.outcome.size() != r.info.size()) {
          fail(name, lineno, "final entry before the fault state sections");
        }
        final_ids = open_hard_faults(r);
        st.finals.resize(final_ids.size());
        st.finals_done.resize(final_ids.size());
      }
      const auto it = std::lower_bound(final_ids.begin(), final_ids.end(), id);
      if (it == final_ids.end() || *it != id) {
        fail(name, lineno, "final fault " + std::to_string(id) +
                               " is not an open hard fault");
      }
      const std::size_t k = static_cast<std::size_t>(it - final_ids.begin());
      if (st.finals_done[k]) fail(name, lineno, "duplicate final entry");
      st.finals[k] = std::move(fo);
      st.finals_done[k] = 1;
    } else {
      fail(name, lineno, "unknown section \"" + section + "\"");
    }
  }

  if (!saw_end) {
    fail(name, lines.size(),
         "checkpoint is truncated: missing end sentinel");
  }
  if (!saw_outcome || !saw_info) {
    fail(name, lines.size(), "checkpoint is missing fault state sections");
  }
  if (r.outcome.size() != r.info.size()) {
    fail(name, lines.size(),
         "outcome and info sections disagree on fault count");
  }
  if (st.next == PipelinePhase::S2Podem && !saw_comb) {
    fail(name, lines.size(),
         "checkpoint at phase s2.podem is missing the comb section");
  }
  return data;
}

void write_checkpoint_atomic(const std::string& path,
                             const CheckpointData& data) {
  const std::string text = serialize_checkpoint(data);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot create checkpoint temp file: " + tmp);
  }
  bool ok = write_all(fd, text.data(), text.size());
  ok = ::fsync(fd) == 0 && ok;
  ok = ::close(fd) == 0 && ok;
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot write checkpoint: " + path);
  }
  // The rename lives in the directory: fsync it too, or a crash can roll the
  // directory entry back to the previous checkpoint (or to none at all).
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  bool dir_ok = dfd >= 0 && ::fsync(dfd) == 0;
  if (dfd >= 0) dir_ok = ::close(dfd) == 0 && dir_ok;
  if (!dir_ok) {
    throw std::runtime_error("cannot sync checkpoint directory: " + dir);
  }
}

CheckpointData read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_checkpoint(ss.str(), path);
}

namespace {

// The metric of kind E named `metric`; throws naming checkpoint `ckpt`.
template <class E>
E metric_named(const std::string& metric, std::size_t n,
               const char* (*name_of)(E), const std::string& ckpt) {
  for (std::size_t i = 0; i < n; ++i) {
    if (metric == name_of(static_cast<E>(i))) return static_cast<E>(i);
  }
  throw std::runtime_error(ckpt + ": unknown metric: " + metric);
}

// Set by the handler on whichever thread takes the signal, read by the
// skeleton thread: a lock-free atomic is both signal-safe and race-free.
std::atomic<bool> g_stop_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void request_stop(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

// Installs the cooperative-stop handlers for one run and restores the
// previous ones on scope exit.  SA_RESTART: nothing needs waking, the flag
// is read at the next safe point.
struct StopSignals {
  bool on;
  struct sigaction old_term {}, old_int {};

  explicit StopSignals(bool catch_signals) : on(catch_signals) {
    g_stop_requested.store(false, std::memory_order_relaxed);
    if (!on) return;
    struct sigaction sa {};
    sa.sa_handler = request_stop;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);
  }
  ~StopSignals() {
    if (!on) return;
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
  }
};

}  // namespace

std::uint64_t checkpoint_binding_hash(const ScanModeModel& model,
                                      std::span<const Fault> faults,
                                      const PipelineOptions& opt) {
  std::ostringstream os;
  os << write_bench_string(model.levelizer().netlist());
  const ScanDesign& d = model.design();
  os << "|m" << d.scan_mode;
  for (const auto& [pi, v] : d.pi_constraints) {
    os << ";p" << pi << ':' << val_char(v);
  }
  for (const ScanChain& c : d.chains) {
    os << ";c" << c.scan_in;
    for (NodeId ff : c.ffs) os << ',' << ff;
  }
  os << '|';
  for (const Fault& f : faults) {
    os << 'f' << f.node << '/' << f.pin << '/' << (f.stuck_one ? 1 : 0) << ';';
  }
  os << "|o" << opt.auto_dist << ',' << opt.dist.large_dist << ','
     << opt.dist.med_dist << ',' << opt.dist.dist << ','
     << opt.comb_backtrack_limit << ',' << opt.seq_backtrack_limit << ','
     << opt.final_backtrack_limit
     // The retired wall-clock budgets' slot: budget-free checkpoints keep
     // their hash, and ones written under a budget are refused as foreign.
     << ",0,0,0," << opt.random_patterns << ',' << opt.frame_slack << ','
     << opt.frame_cap << ',' << opt.final_extra_frames << ','
     << opt.observe_pos << ',' << opt.verify_easy
     // The retired verify_seq switch's slot: step 3 always verifies.
     << ",1," << opt.dominance << ',' << opt.alternating_cycles << ','
     << opt.observe_cycles;
  return fnv1a64(os.str());
}

CheckpointData make_checkpoint(const PipelineState& st, std::uint64_t hash,
                               const ObsRegistry* obs) {
  CheckpointData ck;
  ck.hash = hash;
  ck.state = st;
  if (!obs) return ck;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Ctr c = static_cast<Ctr>(i);
    if (const std::uint64_t n = obs->total(c)) {
      ck.counters.emplace_back(counter_name(c), n);
    }
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const Hist h = static_cast<Hist>(i);
    const auto buckets = obs->hist_total(h);
    if (std::all_of(buckets.begin(), buckets.end(),
                    [](std::uint64_t b) { return b == 0; })) {
      continue;  // never observed (so the sample sum is zero too)
    }
    ck.hists.push_back(
        {hist_name(h), obs->hist_sum(h), {buckets.begin(), buckets.end()}});
  }
  if (obs->attribution_enabled()) {
    for (std::size_t f = 0; f < obs->attribution_faults(); ++f) {
      for (std::size_t a = 0; a < kNumAttrs; ++a) {
        const Attr col = static_cast<Attr>(a);
        if (const std::uint64_t n = obs->attr_total(col, f)) {
          ck.attr.push_back({f, attr_name(col), n});
        }
      }
    }
  }
  return ck;
}

PipelineState restore_checkpoint(CheckpointData data, std::uint64_t hash,
                                 std::size_t num_faults, ObsRegistry* obs,
                                 const std::string& name) {
  if (data.hash != hash) {
    throw std::runtime_error("checkpoint " + name +
                             " was written by a different circuit or "
                             "configuration (binding hash mismatch)");
  }
  if (obs) {
    // Attribution must be sized before cells can be charged; the pipeline's
    // own init is idempotent.
    if (obs->attribution_requested()) obs->init_attribution(num_faults);
    for (const auto& [metric, n] : data.counters) {
      obs->add(metric_named(metric, kNumCounters, counter_name, name), n);
    }
    for (const CheckpointData::HistState& h : data.hists) {
      obs->import_hist(metric_named(h.name, kNumHists, hist_name, name),
                       h.buckets, h.sum);
    }
    for (const CheckpointData::AttrCell& cell : data.attr) {
      if (cell.fault >= num_faults) {
        throw std::runtime_error(
            "resume: checkpoint " + name +
            " charges attribution to a fault beyond the fault list");
      }
      obs->charge(metric_named(cell.column, kNumAttrs, attr_name, name),
                  cell.fault, cell.count);
    }
  }
  return std::move(data.state);
}

PipelineResult run_checkpointed_pipeline(const ScanModeModel& model,
                                         std::span<const Fault> faults,
                                         const PipelineOptions& opt,
                                         const CheckpointOptions& copt) {
  const std::uint64_t hash = checkpoint_binding_hash(model, faults, opt);
  PipelineState resume;
  if (!copt.resume_path.empty()) {
    resume = restore_checkpoint(read_checkpoint(copt.resume_path), hash,
                                faults.size(), opt.obs, copt.resume_path);
  }

  const StopSignals signals(!copt.path.empty());
  std::size_t safepoints = 0;
  auto last = std::chrono::steady_clock::now();
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineState& st) {
    ++safepoints;
    const bool stop =
        g_stop_requested.load(std::memory_order_relaxed) ||
        (copt.stop_after_safepoints > 0 &&
         safepoints >= static_cast<std::size_t>(copt.stop_after_safepoints));
    if (!copt.path.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (stop || copt.interval_ms <= 0 ||
          now - last >= std::chrono::milliseconds(copt.interval_ms)) {
        write_checkpoint_atomic(copt.path, make_checkpoint(st, hash, opt.obs));
        last = now;
      }
    }
    return !stop;
  };

  PipelineOptions run_opt = opt;
  run_opt.hooks = &hooks;
  run_opt.resume = copt.resume_path.empty() ? nullptr : &resume;
  return run_fsct_pipeline(model, faults, run_opt);
}

}  // namespace fsct

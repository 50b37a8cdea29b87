// The checkpoint file format, its durable writer and the in-process runner
// (safe-point cadence, stop signals, resume with observability restored).
#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

void append_scalars(std::ostream& os, const PipelineResult& r) {
  os << "{\"total_faults\":" << r.total_faults << ",\"easy\":" << r.easy
     << ",\"hard\":" << r.hard << ",\"easy_verified\":" << r.easy_verified
     << ",\"dominance_targets\":" << r.dominance_targets
     << ",\"flush_detected\":" << r.flush_detected
     << ",\"ledger_dropped\":" << r.ledger_dropped
     << ",\"s2_detected\":" << r.s2_detected
     << ",\"s2_undetectable\":" << r.s2_undetectable
     << ",\"s2_undetected\":" << r.s2_undetected
     << ",\"s2_vectors\":" << r.s2_vectors
     << ",\"s3_circuits_group\":" << r.s3_circuits_group
     << ",\"s3_circuits_final\":" << r.s3_circuits_final
     << ",\"s3_detected\":" << r.s3_detected
     << ",\"s3_undetectable\":" << r.s3_undetectable
     << ",\"s3_undetected\":" << r.s3_undetected
     << ",\"s3_unverified\":" << r.s3_unverified << '}';
}

bool assign_scalar(PipelineResult& r, const std::string& key,
                   std::uint64_t n) {
  const std::size_t v = static_cast<std::size_t>(n);
  if (key == "total_faults") r.total_faults = v;
  else if (key == "easy") r.easy = v;
  else if (key == "hard") r.hard = v;
  else if (key == "easy_verified") r.easy_verified = v;
  else if (key == "dominance_targets") r.dominance_targets = v;
  else if (key == "flush_detected") r.flush_detected = v;
  else if (key == "ledger_dropped") r.ledger_dropped = v;
  else if (key == "s2_detected") r.s2_detected = v;
  else if (key == "s2_undetectable") r.s2_undetectable = v;
  else if (key == "s2_undetected") r.s2_undetected = v;
  else if (key == "s2_vectors") r.s2_vectors = v;
  else if (key == "s3_circuits_group") r.s3_circuits_group = v;
  else if (key == "s3_circuits_final") r.s3_circuits_final = v;
  else if (key == "s3_detected") r.s3_detected = v;
  else if (key == "s3_undetectable") r.s3_undetectable = v;
  else if (key == "s3_undetected") r.s3_undetected = v;
  else if (key == "s3_unverified") r.s3_unverified = v;
  else return false;
  return true;
}

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

std::uint64_t want_u64(const JVal& obj, const char* key,
                       const std::string& name, std::size_t lineno) {
  const JVal& v = want(obj, key, JVal::Num, name, lineno);
  if (v.num < 0) fail(name, lineno, std::string(key) + " is negative");
  return static_cast<std::uint64_t>(v.num);
}

std::uint64_t as_u64(const JVal& v, const std::string& name,
                     std::size_t lineno) {
  if (v.kind != JVal::Num || v.num < 0) fail(name, lineno, "expected count");
  return static_cast<std::uint64_t>(v.num);
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
  const PipelineResult& r = data.resume.partial;
  std::ostringstream os;

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(data.hash));
  os << "{\"schema\":\"" << kSchema << "\",\"hash\":\"" << hex
     << "\",\"phase\":\"" << pipeline_phase_name(data.resume.phase)
     << "\",\"podem_next\":" << data.resume.podem_next << ",\"scalars\":";
  append_scalars(os, r);
  os << "}\n";

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

  if (data.resume.phase == PipelinePhase::S2Podem) {
    os << "{\"section\":\"comb\",\"data\":\"";
    for (char c : data.resume.comb_covered) os << (c ? '1' : '0');
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
  // sections, the optional comb section, then one line per group/final.
  std::size_t lines = 10 + (data.resume.phase == PipelinePhase::S2Podem);

  for (const auto& [gi, go] : data.resume.groups_done) {
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

  for (const auto& [id, fo] : data.resume.finals_done) {
    os << "{\"section\":\"final\",\"id\":" << id << ",\"verdict\":\""
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
  PipelineResult& r = data.resume.partial;

  std::vector<std::string> lines;
  {
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) {
        lines.push_back(text.substr(pos));
        pos = text.size();
      } else {
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
      }
    }
    while (!lines.empty() && lines.back().empty()) lines.pop_back();
  }
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
    if (!pipeline_phase_from_name(phase.str, &data.resume.phase)) {
      fail(name, 1, "unknown phase \"" + phase.str + "\"");
    }
    data.resume.podem_next =
        static_cast<std::size_t>(want_u64(h, "podem_next", name, 1));
    const JVal& scalars = want(h, "scalars", JVal::Obj, name, 1);
    for (const auto& [key, v] : scalars.obj) {
      if (!assign_scalar(r, key, as_u64(v, name, 1))) {
        fail(name, 1, "unknown scalar \"" + key + "\"");
      }
    }
  }

  bool saw_end = false;
  bool saw_outcome = false, saw_info = false, saw_comb = false;
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::size_t lineno = li + 1;
    if (saw_end) fail(name, lineno, "content after end sentinel");
    const JVal v = parse_line(lines[li], name, lineno);
    if (v.kind != JVal::Obj) fail(name, lineno, "line is not an object");
    const std::string section = want(v, "section", JVal::Str, name, lineno).str;

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
          ci.locations.push_back(ChainLocation{static_cast<int>(flat[k]),
                                               static_cast<int>(flat[k + 1])});
        }
        r.info.push_back(std::move(ci));
      }
      saw_info = true;
    } else if (section == "comb") {
      const JVal& d = want(v, "data", JVal::Str, name, lineno);
      data.resume.comb_covered.clear();
      for (char c : d.str) {
        if (c != '0' && c != '1') fail(name, lineno, "bad comb-covered flag");
        data.resume.comb_covered.push_back(c == '1');
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
      r.detection_curve =
          parse_u64_array(want(v, "data", JVal::Arr, name, lineno), name,
                          lineno);
    } else if (section == "seqs") {
      const JVal& d = want(v, "data", JVal::Arr, name, lineno);
      r.s3_sequences.clear();
      for (const JVal& e : d.arr) {
        r.s3_sequences.push_back(parse_seq(e, name, lineno));
      }
    } else if (section == "seqfault") {
      r.s3_sequence_fault =
          parse_u64_array(want(v, "data", JVal::Arr, name, lineno), name,
                          lineno);
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
        for (std::size_t b :
             parse_u64_array(want(hv, "buckets", JVal::Arr, name, lineno),
                             name, lineno)) {
          hs.buckets.push_back(b);
        }
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
      const std::size_t gi =
          static_cast<std::size_t>(want_u64(v, "gi", name, lineno));
      GroupOutcome go;
      go.detected =
          parse_u64_array(want(v, "detected", JVal::Arr, name, lineno), name,
                          lineno);
      go.credited =
          parse_u64_array(want(v, "credited", JVal::Arr, name, lineno), name,
                          lineno);
      go.unverified =
          static_cast<std::size_t>(want_u64(v, "unverified", name, lineno));
      const JVal& seqs = want(v, "seqs", JVal::Arr, name, lineno);
      for (const JVal& e : seqs.arr) {
        go.seqs.push_back(parse_seq(e, name, lineno));
      }
      if (go.seqs.size() != go.detected.size()) {
        fail(name, lineno, "group sequences misaligned with detections");
      }
      if (!data.resume.groups_done.emplace(gi, std::move(go)).second) {
        fail(name, lineno, "duplicate group entry");
      }
    } else if (section == "final") {
      const std::size_t id =
          static_cast<std::size_t>(want_u64(v, "id", name, lineno));
      FinalOutcome fo;
      const std::string verdict =
          want(v, "verdict", JVal::Str, name, lineno).str;
      bool found = false;
      for (std::size_t k = 0; k < std::size(kVerdictNames); ++k) {
        if (verdict == kVerdictNames[k]) {
          fo.verdict = static_cast<FinalVerdict>(k);
          found = true;
          break;
        }
      }
      if (!found) fail(name, lineno, "unknown verdict \"" + verdict + "\"");
      fo.seq = parse_seq(want(v, "seq", JVal::Arr, name, lineno), name,
                         lineno);
      if (!data.resume.finals_done.emplace(id, std::move(fo)).second) {
        fail(name, lineno, "duplicate final entry");
      }
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
  if (data.resume.phase == PipelinePhase::S2Podem && !saw_comb) {
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
     << opt.final_backtrack_limit << ',' << opt.comb_time_limit_ms << ','
     << opt.seq_time_limit_ms << ',' << opt.final_time_limit_ms << ','
     << opt.random_patterns << ',' << opt.frame_slack << ',' << opt.frame_cap
     << ',' << opt.final_extra_frames << ',' << opt.observe_pos << ','
     << opt.verify_easy << ',' << opt.verify_seq << ',' << opt.dominance
     << ',' << opt.alternating_cycles << ',' << opt.observe_cycles;
  return fnv1a64(os.str());
}

CheckpointData make_checkpoint(const PipelineProgress& pg, std::uint64_t hash,
                               const ObsRegistry* obs) {
  CheckpointData ck;
  ck.hash = hash;
  ck.resume.phase = pg.next;
  ck.resume.partial = *pg.res;
  ck.resume.podem_next = pg.podem_next;
  if (pg.next == PipelinePhase::S2Podem && pg.comb_covered) {
    ck.resume.comb_covered = *pg.comb_covered;
  }
  if (pg.groups && pg.groups_done) {
    for (std::size_t gi = 0; gi < pg.groups_done->size(); ++gi) {
      if ((*pg.groups_done)[gi]) ck.resume.groups_done[gi] = (*pg.groups)[gi];
    }
  }
  if (pg.finals && pg.finals_done && pg.final_ids) {
    for (std::size_t k = 0; k < pg.finals_done->size(); ++k) {
      if ((*pg.finals_done)[k]) {
        ck.resume.finals_done[(*pg.final_ids)[k]] = (*pg.finals)[k];
      }
    }
  }
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

PipelineResume restore_checkpoint(CheckpointData data, std::uint64_t hash,
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
      obs->charge(metric_named(cell.column, kNumAttrs, attr_name, name),
                  cell.fault, cell.count);
    }
  }
  return std::move(data.resume);
}

PipelineResult run_checkpointed_pipeline(const ScanModeModel& model,
                                         std::span<const Fault> faults,
                                         const PipelineOptions& opt,
                                         const CheckpointOptions& copt) {
  const std::uint64_t hash = checkpoint_binding_hash(model, faults, opt);
  PipelineResume resume;
  if (!copt.resume_path.empty()) {
    resume = restore_checkpoint(read_checkpoint(copt.resume_path), hash,
                                faults.size(), opt.obs, copt.resume_path);
  }

  const StopSignals signals(!copt.path.empty());
  std::size_t safepoints = 0;
  auto last = std::chrono::steady_clock::now();
  PipelineHooks hooks;
  hooks.safe_point = [&](const PipelineProgress& pg) {
    ++safepoints;
    const bool stop =
        g_stop_requested.load(std::memory_order_relaxed) ||
        (copt.stop_after_safepoints > 0 &&
         safepoints >= static_cast<std::size_t>(copt.stop_after_safepoints));
    if (!copt.path.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (stop || copt.interval_ms <= 0 ||
          now - last >= std::chrono::milliseconds(copt.interval_ms)) {
        write_checkpoint_atomic(copt.path, make_checkpoint(pg, hash, opt.obs));
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

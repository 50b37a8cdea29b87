#include "trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common.h"
#include "core/json.h"

namespace perfbench {

int SpanLog::begin(const std::string& name, int parent, std::uint64_t op) {
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = parent;
  s.op = op;
  return add(s);
}

void SpanLog::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(m_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int SpanLog::add(const Span& s) {
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_seconds(std::uint64_t op_lo,
                                                    std::uint64_t op_hi) const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op < op_lo || s.op >= op_hi) continue;
    // Union of the children's intervals, clipped to the parent.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.name] += (s.end - s.start) - covered;
  }
  return out;
}

void SpanLog::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(m_);
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \""
       << fsct::json_escape(s.name) << "\", \"op\": " << s.op
       << ", \"parent\": " << s.parent
       << ", \"start_us\": " << static_cast<long long>((s.start - t0) * 1e6)
       << ", \"end_us\": " << static_cast<long long>((s.end - t0) * 1e6)
       << "}";
  }
  os << "\n]";
}

PhaseCost& PhaseCost::operator+=(const PhaseCost& o) {
  wall += o.wall;
  cpu += o.cpu;
  for (std::size_t i = 0; i < ctr.size(); ++i) ctr[i] += o.ctr[i];
  return *this;
}

TracingExec::TracingExec(fsct::PipelineExec& inner,
                         const fsct::ObsRegistry& reg, SpanLog& log,
                         int parent_span, std::uint64_t op)
    : inner_(inner), reg_(reg), log_(log), parent_(parent_span), op_(op) {}

TracingExec::Mark TracingExec::mark() const {
  Mark m;
  m.wall = now_s();
  m.cpu = cpu_s();
  for (std::size_t i = 0; i < fsct::kNumCounters; ++i) {
    m.ctr[i] = reg_.total(static_cast<fsct::Ctr>(i));
  }
  return m;
}

void TracingExec::record(const char* phase, const Mark& a, const Mark& b) {
  PhaseCost c;
  c.wall = b.wall - a.wall;
  c.cpu = b.cpu - a.cpu;
  for (std::size_t i = 0; i < fsct::kNumCounters; ++i) {
    c.ctr[i] = b.ctr[i] - a.ctr[i];
  }
  phases_[phase] += c;
  Span s;
  s.name = phase;
  s.start = a.wall;
  s.end = b.wall;
  s.parent = parent_;
  s.op = op_;
  log_.add(s);
}

template <class F>
auto TracingExec::timed(const char* phase, F&& f) {
  const Mark a = mark();
  // Recorded from a destructor, so a call that throws still closes its span.
  struct Done {
    TracingExec* self;
    const char* phase;
    const Mark& a;
    ~Done() {
      self->last_end_ = self->mark();
      self->have_last_ = true;
      self->record(phase, a, self->last_end_);
    }
  } done{this, phase, a};
  return f();
}

std::vector<fsct::ChainFaultInfo> TracingExec::classify(
    std::span<const std::size_t> ids) {
  return timed("classify", [&] { return inner_.classify(ids); });
}

std::vector<char> TracingExec::seq_detect(const fsct::TestSequence& seq,
                                          std::span<const std::size_t> ids) {
  return timed("seq_detect", [&] { return inner_.seq_detect(seq, ids); });
}

std::vector<int> TracingExec::s2_first_vec(
    std::span<const fsct::ScanVector> vectors,
    std::span<const std::size_t> ids) {
  if (have_last_) record("s2_atpg", last_end_, mark());
  return timed("s2_verify", [&] { return inner_.s2_first_vec(vectors, ids); });
}

void TracingExec::run_groups(const std::vector<fsct::AtpgGroup>& groups,
                             std::span<const std::size_t> todo,
                             std::vector<fsct::GroupOutcome>& done,
                             const ItemDone& on_done) {
  timed("s3_groups",
        [&] { inner_.run_groups(groups, todo, done, on_done); });
}

void TracingExec::run_finals(
    std::span<const std::size_t> final_ids,
    const std::vector<std::vector<fsct::ChainWindow>>& windows,
    std::span<const std::size_t> todo, std::vector<fsct::FinalOutcome>& fdone,
    const ItemDone& on_done) {
  timed("s3_final",
        [&] { inner_.run_finals(final_ids, windows, todo, fdone, on_done); });
}

}  // namespace perfbench

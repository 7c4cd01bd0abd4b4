#include "rackbench/spans.h"

#include <algorithm>
#include <chrono>

#include "src/telemetry/json.h"

namespace lemur::rackbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // Everything before `reach` is counted.
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += hi - lo;
    reach = hi;
  }
  return covered;
}

int SpanRecorder::open(std::string name, int parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), parent, t, t);
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int SpanRecorder::add(std::string name, int parent, std::int64_t start_ns,
                      std::int64_t end_ns) {
  spans_.push_back(Span{std::move(name), run_, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::vector<std::vector<int>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0) {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<int>(i));
    }
  }
  return children;
}

std::int64_t self_of(const std::vector<Span>& spans,
                     const std::vector<int>& children, int id) {
  const Span& span = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(children.size());
  for (const int c : children) {
    const Span& child = spans[static_cast<std::size_t>(c)];
    intervals.emplace_back(child.start_ns, child.end_ns);
  }
  return span.duration_ns() -
         covered_ns(span.start_ns, span.end_ns, std::move(intervals));
}

}  // namespace

std::int64_t SpanRecorder::self_ns(int id) const {
  const auto children = children_of(spans_);
  return self_of(spans_, children[static_cast<std::size_t>(id)], id);
}

SpanRecorder::Totals SpanRecorder::totals(const std::string& name) const {
  const auto children = children_of(spans_);
  Totals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    ++out.count;
    out.total_ns += spans_[i].duration_ns();
    out.self_ns += self_of(spans_, children[i], static_cast<int>(i));
  }
  return out;
}

std::string SpanRecorder::to_json() const {
  const auto children = children_of(spans_);
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  telemetry::JsonWriter w(0);
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("run", s.run);
    w.kv("parent", s.parent);
    w.kv("start_ns", s.start_ns - epoch);
    w.kv("end_ns", s.end_ns - epoch);
    w.kv("self_ns", self_of(spans_, children[i], static_cast<int>(i)));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace lemur::rackbench

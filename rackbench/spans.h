// Benchmark-side tracing: spans recorded in memory around calls into each
// layer's public functions, written out when the benchmark ends. A span
// has a name, host start/end (steady clock), the span that caused it and
// the id of the benchmark repetition it belongs to. A layer's self time
// is its span's duration minus the part of that interval its child spans
// cover (overlapping children are counted once).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lemur::rackbench {

/// Host steady-clock time in nanoseconds.
std::int64_t now_ns();

struct Span {
  std::string name;
  int run = 0;
  int parent = -1;  ///< Index of the causing span; -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Length of [start, end) covered by the union of `intervals`, each
/// clipped to [start, end).
std::int64_t covered_ns(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals);

class SpanRecorder {
 public:
  /// Spans opened from now on carry this repetition id.
  void set_run(int run) { run_ = run; }

  /// Opens a span starting now; returns its id.
  int open(std::string name, int parent);
  /// Ends span `id` now.
  void close(int id);
  /// Records a span whose times were taken elsewhere.
  int add(std::string name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);

  /// Duration of span `id` minus the time its direct children cover.
  [[nodiscard]] std::int64_t self_ns(int id) const;

  /// Over every span called `name`: how many, summed duration, summed
  /// self time.
  struct Totals {
    std::size_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  [[nodiscard]] Totals totals(const std::string& name) const;

  /// {"spans": [{name, run, parent, start_ns, end_ns, self_ns}, ...]},
  /// times relative to the first span's start.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  int run_ = 0;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing with a null recorder, so untraced runs share the code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int parent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(std::move(name), parent)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace lemur::rackbench

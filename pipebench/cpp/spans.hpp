// In-memory span recorder for the traced run.
//
// The benchmark records a span around each public call it makes into a
// layer: name, start, end, parent span and op id.  Spans stay in a
// preallocated vector while the run measures and are written out when
// it ends.  A span's self time is its duration minus its direct
// children's; an op's coverage is the share of its root span's wall
// time that its stage spans account for.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = "";   ///< a string literal naming the layer call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t op = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  /// Opens a span under the innermost open one and returns its index.
  std::size_t open(const char* name);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  /// True while `n` more spans fit without reallocating.
  bool has_room(std::size_t n) const;

  /// Starts a new op id; spans opened at depth 0 afterwards are op roots.
  void next_op() { ++op_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span, grouped by span name in recording order.
  std::map<std::string, std::vector<std::uint64_t>> self_times() const;

  /// For every root span named `root`: the summed durations of its
  /// direct children and its own duration.
  struct OpCover {
    std::uint64_t covered_ns = 0;
    std::uint64_t wall_ns = 0;
  };
  std::vector<OpCover> op_coverage(const std::string& root) const;

  /// Writes one tab-separated line per span:
  /// op, index, parent, name, start_ns, end_ns.  Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t op_ = 0;
};

/// Scoped span; a no-op when constructed with a null recorder, so the
/// same op code serves the traced and the untraced run.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name) : 0) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace pipebench

#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace pipebench {

SpanRecorder::SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

std::size_t SpanRecorder::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  rec.op = op_;
  const std::size_t index = spans_.size();
  stack_.push_back(index);
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  return index;
}

void SpanRecorder::close(std::size_t index) {
  const std::uint64_t end = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("spans must close innermost first");
  }
  stack_.pop_back();
  spans_[index].end_ns = end;
}

bool SpanRecorder::has_room(std::size_t n) const {
  return spans_.capacity() - spans_.size() >= n;
}

namespace {

/// Summed durations of each span's direct children.
std::vector<std::uint64_t> child_durations(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
    }
  }
  return child_ns;
}

}  // namespace

std::map<std::string, std::vector<std::uint64_t>> SpanRecorder::self_times()
    const {
  const auto child_ns = child_durations(spans_);
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(spans_[i].duration_ns() - child_ns[i]);
  }
  return out;
}

std::vector<SpanRecorder::OpCover> SpanRecorder::op_coverage(
    const std::string& root) const {
  const auto child_ns = child_durations(spans_);
  std::vector<OpCover> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || root != spans_[i].name) continue;
    out.push_back({child_ns[i], spans_[i].duration_ns()});
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%lld\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.op), i,
                 static_cast<long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace pipebench

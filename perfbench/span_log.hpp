// In-memory span log for the traced benchmark run.
//
// A span is one call into a layer's public function, made by the benchmark:
// name ("<layer>.<call>"), start, end, the span that was open when it began
// (its parent) and the op it belongs to.  Spans are kept in memory while the
// benchmark runs and written out once at exit, so recording one costs two
// clock reads and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string_view name;  ///< always a string literal
  double start = 0.0;     ///< seconds since the log was created
  double end = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none
  std::uint32_t op = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  std::int32_t open(std::string_view name, std::uint32_t op) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now(), 0.0, current_, op});
    current_ = index;
    return index;
  }

  void close(std::int32_t index) {
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end = now();
    current_ = span.parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per op: total duration of the spans named `name`.
  std::map<std::uint32_t, double> total_by_op(std::string_view name) const {
    std::map<std::uint32_t, double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) out[s.op] += s.end - s.start;
    }
    return out;
  }

  /// Per op and layer: self time, i.e. each span's duration minus the part
  /// its child spans cover.  The layer is the name up to the first '.'.
  std::map<std::uint32_t, std::map<std::string, double>> self_by_op() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::uint32_t, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const std::string layer(s.name.substr(0, s.name.find('.')));
      out[s.op][layer] += (s.end - s.start) - child_time[i];
    }
    return out;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
          << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
    }
    out << "\n]";
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null log records nothing, so the same code serves the
/// untraced and the traced run.
class Span {
 public:
  Span(SpanLog* log, std::string_view name, std::uint32_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench

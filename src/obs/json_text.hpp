// Direct text writer for the telemetry JSON exporters.
//
// Formats numbers with std::to_chars into a bounded buffer that is flushed
// to the target stream in chunks, instead of streaming every token through
// std::ostream.  Doubles use the general format at 17 significant digits —
// the exact text `ostream << double` prints at precision 17 (both are
// printf's %.17g), so exports stay byte-identical to the stream-formatted
// form and round-trip every double.  Integers print as plain decimal.
//
// Constructing a writer sets the target stream's precision to 17, as the
// stream-based exporters always did: callers that keep writing doubles to
// the same stream after an export see the precision they always saw.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace harl::obs {

class JsonText {
 public:
  explicit JsonText(std::ostream& out) : out_(out) {
    out_.precision(17);
    buf_.reserve(kChunk + 64);
  }
  ~JsonText() { flush(); }
  JsonText(const JsonText&) = delete;
  JsonText& operator=(const JsonText&) = delete;

  JsonText& operator<<(std::string_view s) {
    buf_.append(s);
    return spill();
  }
  JsonText& operator<<(char c) {
    buf_.push_back(c);
    return spill();
  }
  JsonText& operator<<(double v) {
    char tmp[32];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v,
                                 std::chars_format::general, 17);
    buf_.append(tmp, r.ptr);
    return spill();
  }
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  JsonText& operator<<(T v) {
    char tmp[24];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, r.ptr);
    return spill();
  }

  /// Quoted JSON string with minimal escaping (metric and track names are
  /// plain identifiers, but a malformed name must not produce malformed
  /// JSON).
  JsonText& quoted(std::string_view s) {
    buf_.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': buf_.append("\\\""); break;
        case '\\': buf_.append("\\\\"); break;
        case '\n': buf_.append("\\n"); break;
        case '\t': buf_.append("\\t"); break;
        default: buf_.push_back(c);
      }
    }
    buf_.push_back('"');
    return spill();
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;

  JsonText& spill() {
    if (buf_.size() >= kChunk) flush();
    return *this;
  }

  std::ostream& out_;
  std::string buf_;
};

}  // namespace harl::obs

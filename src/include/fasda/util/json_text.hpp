#pragma once
// The JSON text primitives every hand-written writer shares: serve
// payloads and journal records (serve/json.hpp), structured log lines
// (util/log.hpp), Chrome traces and metrics snapshots (obs/). One escaper
// means one set of bytes for the same string everywhere.

#include <charconv>
#include <string>
#include <string_view>

namespace fasda::util {

/// Appends `s` JSON-escaped, without surrounding quotes: `"` and `\`, and
/// newline, CR and tab get their short escapes, any other control byte
/// becomes \u00xx, and everything else (UTF-8 included) is copied as is.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// Appends an integer in decimal.
template <class T>
void append_decimal(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace fasda::util

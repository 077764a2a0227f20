#include "fasda/serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "fasda/util/json_text.hpp"

namespace fasda::serve::json {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value v;
    if (!parse_value(v, 0)) {
      if (error) *error = error_.empty() ? "malformed JSON" : error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error) *error = "trailing bytes after JSON value";
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* why) {
    if (error_.empty()) {
      error_ = std::string(why) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool peek(char& c) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    c = text_[pos_];
    return true;
  }

  bool consume(char want) {
    char c;
    if (!peek(c) || c != want) return false;
    ++pos_;
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    char c;
    if (!peek(c)) return fail("unexpected end of input");
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't':
      case 'f': return parse_literal(out, c == 't');
      case 'n':
        if (text_.substr(pos_, 4) != "null") return fail("bad literal");
        pos_ += 4;
        out.type = Value::Type::kNull;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_literal(Value& out, bool truth) {
    const std::string_view want = truth ? "true" : "false";
    if (text_.substr(pos_, want.size()) != want) return fail("bad literal");
    pos_ += want.size();
    out.type = Value::Type::kBool;
    out.boolean = truth;
    return true;
  }

  bool parse_object(Value& out, int depth) {
    ++pos_;  // '{'
    out.type = Value::Type::kObject;
    char c;
    if (!peek(c)) return fail("unterminated object");
    if (c == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!peek(c) || c != '"') return fail("expected member key");
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return fail("expected ':'");
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out, int depth) {
    ++pos_;  // '['
    out.type = Value::Type::kArray;
    char c;
    if (!peek(c)) return fail("unterminated array");
    if (c == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.items.push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // needed by any serve payload and decode as two replacement
          // sequences rather than failing.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return fail("bad number");
    char* end = nullptr;
    out.type = Value::Type::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    if (integral) {
      errno = 0;
      char* iend = nullptr;
      const long long ll = std::strtoll(token.c_str(), &iend, 10);
      if (errno == 0 && iend == token.c_str() + token.size()) {
        out.integer = ll;
        out.integral = true;
      }
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void dump_into(const Value& v, std::string& out) {
  switch (v.type) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Value::Type::kNumber: {
      if (v.integral) {
        out += std::to_string(v.integer);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.number);
        out += buf;
      }
      break;
    }
    case Value::Type::kString: out += quoted(v.string); break;
    case Value::Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i) out += ',';
        dump_into(v.items[i], out);
      }
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, m] : v.members) {
        if (!first) out += ',';
        first = false;
        out += quoted(k);
        out += ':';
        dump_into(m, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  util::append_json_escaped(out, s);
  out += '"';
  return out;
}

std::string dump(const Value& v) {
  std::string out;
  dump_into(v, out);
  return out;
}

}  // namespace fasda::serve::json

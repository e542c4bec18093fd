#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dmp {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
      if (s_[i] == '\n') ++line;
    }
    throw std::runtime_error{"json: " + message + " (line " +
                             std::to_string(line) + ")"};
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    if (depth_ > 128) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
          return v;
        }
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = false;
          return v;
        }
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.object.reserve(8);  // one allocation for a typical artifact line
    ++depth_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++depth_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      // Copy the run of plain characters up to the next quote, escape or
      // control byte in one append.
      std::size_t end = pos_;
      while (end < s_.size() && s_[end] != '"' && s_[end] != '\\' &&
             static_cast<unsigned char>(s_[end]) >= 0x20) {
        ++end;
      }
      out.append(s_.substr(pos_, end - pos_));
      pos_ = end;
      if (pos_ >= s_.size()) break;
      const char c = s_[pos_++];
      if (c == '"') return out;
      // RFC 8259: control characters inside a string must be escaped.
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our writers only escape control characters; render anything in
          // the ASCII range directly and pass the rest through as '?'.
          if (code < 0x80) out += static_cast<char>(code);
          else out += '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = s_.substr(start, pos_ - start);
    const char* end = v.text.data() + v.text.size();
    const auto [ptr, ec] = std::from_chars(v.text.data(), end, v.number);
    if (ec != std::errc{} || ptr != end) fail("bad number");
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::int64_t> JsonValue::as_int64() const {
  if (kind != Kind::kNumber) return std::nullopt;
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::string JsonValue::brief() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kNumber: return text;
    case Kind::kString: return "\"" + text + "\"";
    case Kind::kArray:
      return std::string("[").append(std::to_string(array.size()))
          .append(" items]");
    case Kind::kObject:
      return std::string("{").append(std::to_string(object.size()))
          .append(" keys}");
  }
  return "?";
}

std::string JsonValue::to_json() const {
  std::string out;
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kNumber: return text;
    case Kind::kString:
      append_json_string(out, text);
      return out;
    case Kind::kArray:
      out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out += ", ";
        out += array[i].to_json();
      }
      return out + "]";
    case Kind::kObject:
      out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i) out += ", ";
        append_json_string(out, object[i].first);
        out += ": ";
        out += object[i].second.to_json();
      }
      return out + "}";
  }
  return "null";
}

JsonValue parse_json(std::string_view text) {
  return Parser{text}.parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    throw std::runtime_error{path + " is empty"};
  }
  try {
    return parse_json(text);
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
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
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double v, int digits) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // 17 digits + sign, point and a 5-byte exponent fit with room to spare.
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, digits);
  if (ec != std::errc{}) {
    out += "null";
    return;
  }
  out.append(buf, ptr);
}

}  // namespace dmp

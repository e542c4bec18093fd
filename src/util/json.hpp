// The one JSON codec: every artifact the repo writes (run reports, event
// logs, flight traces, sketches, divergence series, BENCH_*.json, Chrome
// traces) is assembled by its owner in a fixed key order from the two
// writer primitives below, and every reader parses it back with
// parse_json().
//
// The parser is a recursive-descent reader with choices made for comparing
// artifacts: objects keep key order (diffs walk both documents in the left
// document's order), numbers keep their source text (so "identical" can
// mean byte-identical, and as_int64() reads integers above 2^53 exactly),
// unescaped control characters in strings are rejected as RFC 8259 says,
// and a syntax error throws std::runtime_error naming the 1-based line.
// \u escapes outside ASCII decode to '?'; the writers never produce them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmp {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // kString: the value; kNumber: the source spelling
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // key order kept

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // The number as an exact integer, read from its source spelling (not the
  // double, which rounds above 2^53); nullopt unless this is a number
  // spelled as a plain integer that fits in 64 bits.
  std::optional<std::int64_t> as_int64() const;

  // Human-readable scalar rendering for diff/SLO messages ("3.25", "true",
  // "\"fig4\"", "[12 items]", "{8 keys}").
  std::string brief() const;

  // Canonical re-serialization (numbers keep their source spelling, key
  // order preserved) — what --json emitters write back out.
  std::string to_json() const;
};

// Parses one JSON document; trailing non-whitespace is an error.  Throws
// std::runtime_error naming the 1-based line of the first offence.
JsonValue parse_json(std::string_view text);

// Reads and parses a whole file.  Throws std::runtime_error when the file
// cannot be opened, is empty, or is malformed.
JsonValue parse_json_file(const std::string& path);

// Appends `s` as a quoted JSON string.  '"', '\\', '\n', '\r' and '\t' get
// their short escapes; every other byte below 0x20 becomes \u00XX.  Bytes
// from 0x80 up pass through unchanged (UTF-8 stays UTF-8).
void append_json_string(std::string& out, std::string_view s);

// Appends `v` at `digits` significant digits (1..17), spelled exactly as
// printf("%.<digits>g") would.  Non-finite values become null.  Two
// spellings are in use: 17 digits (round-trips every double) for BENCH
// reports, divergence series and sketches; kJsonStreamDigits for the
// high-volume run report, event, trace and telemetry streams.
inline constexpr int kJsonStreamDigits = 12;
void append_json_number(std::string& out, double v, int digits = 17);

}  // namespace dmp

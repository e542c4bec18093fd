// Strict `--name=value` flags for the offline tools.  A value that does not
// parse as a whole (`--tau=abc`, `--abs-tol=1e-3x`, `--q=0.5,x`) exits with
// status 2 and names the flag, instead of reading as 0 or a prefix; so
// does a `--` argument the command does not read (`--tua=2`,
// `--fail-on-divergense`), instead of reading as an absent flag.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace dmp::tools {

[[noreturn]] inline void bad_value(const char* what, const char* text) {
  std::fprintf(stderr, "error: %s: malformed value '%s'\n", what, text);
  std::exit(2);
}

// The whole of `text` as a finite number; `what` names it in the error.
inline double parse_number(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    bad_value(what, text);
  }
  return v;
}

inline std::int64_t parse_integer(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) bad_value(what, text);
  return v;
}

// The flags among argv[first..argc).  `known` lists the flags the command
// reads: "--name=" for one that takes a value, "--name" for a bare one.
class Flags {
 public:
  Flags(int argc, char** argv, int first,
        const std::vector<const char*>& known)
      : argc_(argc), argv_(argv), first_(first) {
    for (int i = first_; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      bool read = false;
      for (const char* k : known) {
        const std::size_t len = std::strlen(k);
        read = k[len - 1] == '=' ? std::strncmp(arg, k, len) == 0
                                 : std::strcmp(arg, k) == 0;
        if (read) break;
      }
      if (!read) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
        std::exit(2);
      }
    }
  }

  // The text after `name=`, or nullptr when the flag is absent.
  const char* text(const char* name) const {
    const std::size_t len = std::strlen(name);
    for (int i = first_; i < argc_; ++i) {
      if (std::strncmp(argv_[i], name, len) == 0 && argv_[i][len] == '=') {
        return argv_[i] + len + 1;
      }
    }
    return nullptr;
  }
  // A bare `name`.
  bool has(const char* name) const {
    for (int i = first_; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }
  double number(const char* name, double fallback) const {
    const char* v = text(name);
    return v == nullptr ? fallback : parse_number(v, name);
  }
  std::int64_t integer(const char* name, std::int64_t fallback) const {
    const char* v = text(name);
    return v == nullptr ? fallback : parse_integer(v, name);
  }
  // A comma list of numbers, every item parsed whole.
  std::vector<double> numbers(const char* name,
                              std::vector<double> fallback) const {
    const char* v = text(name);
    if (v == nullptr) return fallback;
    std::vector<double> out;
    const std::string list = v;
    for (std::size_t start = 0;;) {
      const std::size_t end = list.find(',', start);
      const std::string item = list.substr(start, end - start);
      if (item.empty()) bad_value(name, v);
      out.push_back(parse_number(item.c_str(), name));
      if (end == std::string::npos) return out;
      start = end + 1;
    }
  }

 private:
  int argc_;
  char** argv_;
  int first_;
};

}  // namespace dmp::tools

#include "exp/options.hpp"

#include "fault/fault_plan.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "stream/scheduler/path_scheduler.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

extern char** environ;

namespace dmp::exp {

namespace {

// Every DMP_* variable any part of the repo reads.  DMP_OUT_DIR belongs to
// util/csv, DMP_SANITIZE / DMP_CHECK_BUILD_DIR to scripts/check.sh — they
// are not bench knobs but must not trip the unknown-variable check.
const char* const kKnownVars[] = {
    "DMP_RUNS",            "DMP_DURATION_S", "DMP_SEED",
    "DMP_MC_MIN",          "DMP_MC_MAX",     "DMP_THREADS",
    "DMP_MODEL_SHARDS",    "DMP_OBS",        "DMP_OUT_DIR",
    "DMP_TABLE1_PROBE_S",  "DMP_FAULTS",     "DMP_SANITIZE",
    "DMP_CHECK_BUILD_DIR", "DMP_SCHED",      "DMP_QDISC",
};

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument{"bench options: " + message};
}

// Strict full-string parses: "8x" or "" are errors, not 8 and 0.
std::int64_t parse_int(const char* name, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    fail(std::string(name) + "='" + text + "' is not an integer");
  }
  return v;
}

double parse_double(const char* name, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    fail(std::string(name) + "='" + text + "' is not a number");
  }
  return v;
}

// Seeds and budgets: a leading '-' would wrap through the uint64_t cast.
std::uint64_t parse_unsigned(const char* name, const char* text) {
  const char* p = text;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '-') {
    fail(std::string(name) + "='" + text + "' must not be negative");
  }
  return static_cast<std::uint64_t>(parse_int(name, text));
}

// Runs a spec parser on the variable's value, naming the variable in any
// error it throws.
template <typename Parse>
auto parse_spec(const char* name, const char* text, Parse parse) {
  try {
    return parse(text);
  } catch (const std::exception& e) {
    fail(std::string(name) + ": " + e.what());
  }
}

const char* get(const char* name) { return std::getenv(name); }

void reject_unknown_vars() {
  for (char** e = environ; e && *e; ++e) {
    const std::string_view entry{*e};
    if (entry.rfind("DMP_", 0) != 0) continue;
    const auto eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    bool known = false;
    for (const char* k : kKnownVars) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      // Build the accepted set from kKnownVars itself: a hand-maintained
      // copy of the list in this message drifted out of date once already
      // (it was missing newer knobs), so generate it.
      std::string accepted;
      for (const char* k : kKnownVars) {
        if (!accepted.empty()) accepted += ' ';
        accepted += k;
      }
      fail("unknown variable " + std::string(name) +
           " (misspelled knob? known: " + accepted + ")");
    }
  }
}

}  // namespace

BenchOptions BenchOptions::from_env() {
  reject_unknown_vars();
  BenchOptions o;
  if (const char* v = get("DMP_RUNS")) o.runs = parse_int("DMP_RUNS", v);
  if (const char* v = get("DMP_DURATION_S")) {
    o.duration_s = parse_double("DMP_DURATION_S", v);
  }
  if (const char* v = get("DMP_SEED")) o.seed = parse_unsigned("DMP_SEED", v);
  if (const char* v = get("DMP_MC_MIN")) {
    o.mc_min = parse_unsigned("DMP_MC_MIN", v);
  }
  if (const char* v = get("DMP_MC_MAX")) {
    o.mc_max = parse_unsigned("DMP_MC_MAX", v);
  }
  if (const char* v = get("DMP_THREADS")) {
    const std::int64_t t = parse_int("DMP_THREADS", v);
    if (t < 0 || t > 1024) fail("DMP_THREADS must be in [0, 1024]");
    o.threads = static_cast<std::size_t>(t);
  }
  if (const char* v = get("DMP_MODEL_SHARDS")) {
    const std::int64_t s = parse_int("DMP_MODEL_SHARDS", v);
    if (s < 0 || s > 65536) fail("DMP_MODEL_SHARDS must be in [0, 65536]");
    o.model_shards = static_cast<std::uint64_t>(s);
  }
  if (const char* v = get("DMP_OBS")) {
    o.obs = parse_spec("DMP_OBS", v, obs::parse_obs_sinks);
  }
  if (const char* v = get("DMP_TABLE1_PROBE_S")) {
    o.table1_probe_s = parse_double("DMP_TABLE1_PROBE_S", v);
  }
  // Specs are validated here so a typo fails before any run starts; the
  // benches re-parse them.
  if (const char* v = get("DMP_SCHED")) {
    parse_spec("DMP_SCHED", v, SchedulerSpec::parse);
    o.sched = v;
  }
  if (const char* v = get("DMP_QDISC")) {
    parse_spec("DMP_QDISC", v, QdiscSpec::parse);
    o.qdisc = v;
  }
  if (const char* v = get("DMP_FAULTS")) {
    parse_spec("DMP_FAULTS", v, fault::FaultPlan::parse);
    o.faults = v;
  }

  if (o.runs < 1) fail("DMP_RUNS must be >= 1");
  if (!(o.duration_s > 0.0)) fail("DMP_DURATION_S must be > 0");
  if (o.mc_min < 1) fail("DMP_MC_MIN must be >= 1");
  if (o.mc_max < o.mc_min) fail("DMP_MC_MAX must be >= DMP_MC_MIN");
  if (!(o.table1_probe_s > 0.0)) fail("DMP_TABLE1_PROBE_S must be > 0");
  return o;
}

std::string BenchOptions::summary() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "runs=%lld duration_s=%g seed=%llu mc=[%llu, %llu] "
                "threads=%zu model_shards=%llu obs=%s",
                static_cast<long long>(runs), duration_s,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(mc_min),
                static_cast<unsigned long long>(mc_max), threads,
                static_cast<unsigned long long>(model_shards),
                obs.to_string().c_str());
  std::string out = buf;
  if (sched != "pull") out += " sched=" + sched;
  if (qdisc != "droptail") out += " qdisc=" + qdisc;
  if (!faults.empty()) out += " faults='" + faults + "'";
  return out;
}

BenchOptions bench_options() {
  static bool printed = false;
  try {
    BenchOptions o = BenchOptions::from_env();
    if (!printed) {
      printed = true;
      std::printf("[bench config] %s\n", o.summary().c_str());
    }
    return o;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

}  // namespace dmp::exp

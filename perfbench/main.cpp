// perfbench: the repository benchmark.  Runs one workload (see
// workloads.hpp and METRICS.md), checks its outputs, and prints every
// metric by name with its unit; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--reference-dir DIR] [--write-reference]
//
// --trace 0 (end-to-end): runs the batch once in each of a series of fresh
//   processes of this program (rounds, --round) until --seconds are used,
//   and at least kMinRounds times.  Every time is in reference seconds
//   (stats.hpp); each metric is the median over the rounds.  Set-up is
//   timed from main() entry, in every round and in fresh processes run with
//   --setup-only (which stop where the first item would start).
// --trace 1 (per-layer): one untraced pass, one traced pass (DES profiler
//   with wall time, obs counters, spans), for validation_sweep a 1-worker
//   pass, and the unit-cost arms.  The traced and 1-worker passes must
//   reproduce the untraced outputs bit for bit.
// At the default seed (2007) the outputs must also match the pinned
// reference in --reference-dir; --write-reference regenerates it.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "unit_costs.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Output;
using perfbench::PassConfig;
using perfbench::PassResult;

constexpr std::uint64_t kDefaultSeed = 2007;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 64;
constexpr std::size_t kSetupProbes = 16;
// Calibration slices a set-up probe runs after it has timed its set-up.
constexpr std::size_t kSetupProbeSlices = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string reference_dir = "perfbench/reference";
  bool write_reference = false;
  // Internal: the modes of the fresh processes trace 0 runs.
  bool setup_only = false;
  bool round = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference-dir DIR] "
               "[--write-reference]\nworkloads:",
               why.c_str());
  for (const auto& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      args.write_reference = true;
      continue;
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (flag == "--round") {
      args.round = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--reference-dir") {
      args.reference_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == args.workload;
  }
  if (!known) usage("unknown workload '" + args.workload + "'");
  return args;
}

// --- outputs: bit-for-bit comparison and the pinned reference ---

bool same_outputs(const std::vector<Output>& a, const std::vector<Output>& b,
                  std::string* why) {
  if (a.size() != b.size()) {
    *why = "output row count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same =
        a[i].label == b[i].label && a[i].values.size() == b[i].values.size() &&
        std::memcmp(a[i].values.data(), b[i].values.data(),
                    a[i].values.size() * sizeof(double)) == 0;
    if (!same) {
      *why = "output row '" + a[i].label + "' differs";
      return false;
    }
  }
  return true;
}

std::string reference_path(const Args& args) {
  return args.reference_dir + "/" + args.workload + ".txt";
}

void write_reference(const Args& args, const std::vector<Output>& outputs) {
  const std::string path = reference_path(args);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"cannot write " + path};
  std::fprintf(f, "# perfbench reference outputs: %s, seed %llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (const auto& row : outputs) {
    std::fprintf(f, "%s", row.label.c_str());
    for (double v : row.values) std::fprintf(f, " %.17g", v);
    std::fprintf(f, "\n");
  }
  if (std::fclose(f) != 0) throw std::runtime_error{"cannot write " + path};
  std::printf("wrote %s (%zu rows)\n", path.c_str(), outputs.size());
}

bool matches_reference(const Args& args, const std::vector<Output>& outputs,
                       std::string* why) {
  std::ifstream in(reference_path(args));
  if (!in) {
    *why = "missing reference " + reference_path(args);
    return false;
  }
  std::vector<Output> reference;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Output row;
    fields >> row.label;
    std::string token;
    while (fields >> token) {
      row.values.push_back(std::strtod(token.c_str(), nullptr));
    }
    reference.push_back(std::move(row));
  }
  if (!same_outputs(outputs, reference, why)) {
    *why = "reference mismatch: " + *why;
    return false;
  }
  return true;
}

// Order-sensitive FNV-1a digest of the outputs, so that fresh processes
// can show they reproduced each other bit for bit.
std::uint64_t digest(const std::vector<Output>& outputs) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (const auto& row : outputs) {
    mix(row.label.data(), row.label.size() + 1);
    mix(row.values.data(), row.values.size() * sizeof(double));
  }
  return h;
}

// --- fresh processes of this program ---

// Runs this program again with the workload, the seed, the reference
// directory and `extra` arguments, waits for it to end, and returns its
// standard output.
std::string run_self(const Args& args,
                     const std::vector<std::string>& extra) {
  char exe[4096] = {};
  if (readlink("/proc/self/exe", exe, sizeof exe - 1) <= 0) {
    throw std::runtime_error{"cannot find this program"};
  }
  std::vector<std::string> argv_strings{
      exe, "--workload", args.workload, "--seed", std::to_string(args.seed),
      "--reference-dir", args.reference_dir};
  argv_strings.insert(argv_strings.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error{"pipe failed"};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawn_error =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawn_error == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (spawn_error != 0) throw std::runtime_error{"spawn failed"};
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!exited) throw std::runtime_error{"a fresh perfbench process failed"};
  return out;
}

// The set-up time, in reference seconds, that a fresh process measured
// from its own main() entry to where its first item would start.
double setup_probe(const Args& args) {
  const std::string out = run_self(args, {"--setup-only"});
  char* end = nullptr;
  const double setup_s = std::strtod(out.c_str(), &end);
  if (end == out.c_str() || !(setup_s >= 0.0)) {
    throw std::runtime_error{"set-up probe failed"};
  }
  return setup_s;
}

// --- metrics ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
    std::printf("  %-34s %18.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// Peak resident set of this program: VmHWM, which exec resets.  (Linux
// carries ru_maxrss across exec, so it would report the launcher's peak
// whenever that is larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add_pass(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const auto& error : pass.errors) {
      std::printf("FAILED %s\n", error.c_str());
    }
    if (pass.failed != 0) correct = false;
  }
  void require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

void check_reference(const Args& args, const std::vector<Output>& outputs,
                     Verdict* verdict) {
  if (args.seed != kDefaultSeed) return;
  std::string why;
  verdict->require(matches_reference(args, outputs, &why), why);
}

// --- trace 0: end-to-end metrics ---
//
// The benchmark shares its host with other tenants, and the host's speed
// drifts by tens of percent within seconds.  So every time is measured
// beside a fixed calibration slice and reported in reference seconds
// (stats.hpp), which takes the drift out.  A run is a series of rounds,
// each a fresh process that runs the batch once, as reproducing the figure
// does; each metric is the median over the rounds.

// One round, in a fresh process: runs the batch once, checks the outputs
// and prints its figures for the parent, one record a line.
int run_round(const Args& args, double process_start_s) {
  PassConfig config;
  config.started_at_s = process_start_s;
  const PassResult pass = perfbench::run_pass(args.workload, args.seed, config);
  Verdict verdict;
  verdict.add_pass(pass);
  check_reference(args, pass.outputs, &verdict);
  const auto ref = perfbench::reference_times(pass);

  std::printf("setup %.17g\n", ref.setup_s);
  std::printf("pass %.17g %.17g %.17g %.17g\n", ref.wall_s, ref.cpu_s,
              pass.wall_s, perfbench::mean(pass.host_slices_s));
  std::printf("items");
  for (double ms : ref.item_ms) std::printf(" %.17g", ms);
  std::printf("\n");
  std::printf("outputs %016llx\n",
              static_cast<unsigned long long>(digest(pass.outputs)));
  std::printf("workers %zu\n", pass.workers);
  std::printf("rss %.17g\n", peak_rss_mb());
  std::printf("verdict %d %zu %zu\n", verdict.correct ? 1 : 0,
              verdict.attempted, verdict.failed);
  return 0;
}

// What one round printed.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;  // reference seconds
  double cpu_s = 0.0;   // reference seconds
  double raw_wall_s = 0.0;
  double slice_s = 0.0;  // mean calibration slice
  std::vector<double> item_ms;
  std::string outputs;  // digest
  std::size_t workers = 0;
  double rss_mb = 0.0;
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

Round run_round_process(const Args& args) {
  const std::string out = run_self(args, {"--round"});
  Round r;
  bool finished = false;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "setup") {
      fields >> r.setup_s;
    } else if (key == "pass") {
      fields >> r.wall_s >> r.cpu_s >> r.raw_wall_s >> r.slice_s;
    } else if (key == "items") {
      for (double ms = 0.0; fields >> ms;) r.item_ms.push_back(ms);
    } else if (key == "outputs") {
      fields >> r.outputs;
    } else if (key == "workers") {
      fields >> r.workers;
    } else if (key == "rss") {
      fields >> r.rss_mb;
    } else if (key == "verdict") {
      int correct = 0;
      fields >> correct >> r.attempted >> r.failed;
      r.correct = correct == 1;
      finished = !fields.fail();
    } else {
      std::printf("%s\n", line.c_str());  // the round's failure reports
    }
  }
  if (!finished || !(r.slice_s > 0.0) || r.item_ms.empty()) {
    throw std::runtime_error{"a round printed no result"};
  }
  return r;
}

int run_end_to_end(const Args& args) {
  const double start_s = perfbench::now_s();
  std::vector<Round> rounds;
  // Another round while, judged by the rounds so far, at most half of it
  // would run past --seconds.
  while (rounds.size() < kMinRounds ||
         (rounds.size() < kMaxRounds &&
          perfbench::now_s() - start_s +
                  0.5 * (perfbench::now_s() - start_s) /
                      static_cast<double>(rounds.size()) <=
              args.seconds)) {
    rounds.push_back(run_round_process(args));
  }
  // Set-up counts from process start, so one-time process-level work
  // (static tables, allocator growth, lazily filled caches) shows: every
  // round gives one sample and fresh processes that stop at the first item
  // give the rest.
  std::vector<double> setup;
  for (const auto& r : rounds) setup.push_back(r.setup_s);
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    setup.push_back(setup_probe(args));
  }

  Verdict verdict;
  std::vector<double> wall, cpu, raw_wall;
  const std::size_t n_items = rounds.front().item_ms.size();
  std::vector<std::vector<double>> item_repeats(n_items);
  double rss_mb = 0.0;
  for (const auto& r : rounds) {
    verdict.attempted += r.attempted;
    verdict.failed += r.failed;
    verdict.require(r.correct, "a round failed its checks");
    verdict.require(r.outputs == rounds.front().outputs &&
                        r.item_ms.size() == n_items,
                    "rounds disagree on the outputs");
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    raw_wall.push_back(r.raw_wall_s);
    for (std::size_t i = 0; i < std::min(n_items, r.item_ms.size()); ++i) {
      item_repeats[i].push_back(r.item_ms[i]);
    }
    rss_mb = std::max(rss_mb, r.rss_mb);
  }
  std::vector<double> item_ms;
  for (const auto& repeats : item_repeats) {
    item_ms.push_back(perfbench::median(repeats));
  }

  std::printf("perfbench %s seed=%llu: %zu rounds, %zu items, %zu workers\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rounds.size(),
              n_items, rounds.front().workers);
  std::printf("  per round: wall (s) reference / raw, mean slice (ms):");
  for (const auto& r : rounds) {
    std::printf(" %.3f/%.3f/%.3f", r.wall_s, r.raw_wall_s, r.slice_s * 1e3);
  }
  std::printf("\n");
  const std::string of_rounds =
      "(reference s; median of " + std::to_string(rounds.size()) +
      " rounds; raw median " +
      std::to_string(perfbench::median(raw_wall)) + " s)";
  const std::string n_items_note =
      "(reference ms; n=" + std::to_string(n_items) +
      " items, each the median of " + std::to_string(rounds.size()) +
      " rounds)";
  Report report;
  report.put("wall_s", perfbench::median(wall), "s", of_rounds);
  report.put("setup_s", perfbench::median(setup), "s",
             "(reference s; median of " + std::to_string(setup.size()) +
                 " fresh processes, from main() entry)");
  report.put("cpu_s", perfbench::median(cpu), "s",
             "(reference s; median of " + std::to_string(rounds.size()) +
                 " rounds)");
  report.put("peak_rss_mb", rss_mb, "MB", "(VmHWM, largest of the rounds)");
  report.put("item_p50_ms", perfbench::percentile(item_ms, 50.0), "ms",
             n_items_note);
  const bool p90_ok = perfbench::percentile_supported(item_ms.size(), 90.0);
  report.put("item_p90_ms", perfbench::percentile(item_ms, 90.0), "ms",
             p90_ok ? n_items_note
                    : n_items_note +
                          " UNSUPPORTED: fewer than 10 items beyond p90");
  std::printf("  failed_fraction = %zu / %zu\n", verdict.failed,
              verdict.attempted);
  report.print_json(verdict.correct, verdict.attempted, verdict.failed);
  return 0;
}

// --- trace 1: per-layer metrics ---

int run_per_layer(const Args& args) {
  Verdict verdict;
  // The first pass in a process pays for page faults and allocator growth;
  // it is checked like the others but not used as the untraced base.
  const PassResult warmup =
      perfbench::run_pass(args.workload, args.seed, PassConfig{});
  verdict.add_pass(warmup);
  const PassResult untraced =
      perfbench::run_pass(args.workload, args.seed, PassConfig{});
  PassConfig traced_config;
  traced_config.traced = true;
  const PassResult traced =
      perfbench::run_pass(args.workload, args.seed, traced_config);
  verdict.add_pass(untraced);
  verdict.add_pass(traced);
  check_reference(args, untraced.outputs, &verdict);

  std::string why;
  verdict.require(same_outputs(warmup.outputs, untraced.outputs, &why),
                  "passes disagree: " + why);
  verdict.require(same_outputs(untraced.outputs, traced.outputs, &why),
                  "traced pass changed outputs: " + why);
  std::uint64_t categorized = 0;
  for (auto n : traced.counts.category_events) categorized += n;
  verdict.require(categorized == untraced.counts.events,
                  "traced per-category event counts do not sum to the "
                  "untraced event count");
  if (untraced.workers > 1) {
    PassConfig serial_config;
    serial_config.workers = 1;
    const PassResult serial =
        perfbench::run_pass(args.workload, args.seed, serial_config);
    verdict.add_pass(serial);
    verdict.require(same_outputs(untraced.outputs, serial.outputs, &why),
                    "1-worker pass differs from the " +
                        std::to_string(untraced.workers) +
                        "-worker pass: " + why);
  }

  const auto& t = traced.counts;
  const auto& u = untraced.counts;
  const bool des = t.sessions > 0;
  perfbench::UnitCosts unit{};
  if (des) {
    unit = perfbench::measure_unit_costs(
        static_cast<std::size_t>(t.max_events_pending), args.seed);
  }

  std::printf("perfbench %s seed=%llu (per-layer): %zu sessions, %zu items, "
              "%zu workers\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<std::size_t>(t.sessions), untraced.items.size(),
              untraced.workers);
  Report report;
  const auto cat = [](dmp::EventCategory c) {
    return static_cast<std::size_t>(c);
  };
  struct Cat {
    const char* name;
    dmp::EventCategory c;
  };
  const Cat cats[] = {{"link_tx", dmp::EventCategory::kLinkTx},
                      {"link_delivery", dmp::EventCategory::kLinkDelivery},
                      {"tcp_send", dmp::EventCategory::kTcpSend},
                      {"tcp_timer", dmp::EventCategory::kTcpTimer},
                      {"source", dmp::EventCategory::kSource},
                      {"fault", dmp::EventCategory::kFault}};
  std::uint64_t total_wall_ns = 0;
  for (auto ns : t.category_wall_ns) total_wall_ns += ns;

  // sim
  report.put("sim.events", static_cast<double>(t.events), "count",
             "(sessions of one pass)");
  report.put("sim.ns_per_event",
             ratio(u.session_wall_s * 1e9, static_cast<double>(u.events)),
             "ns", "(untraced run_session wall / events)");
  for (const auto& c : cats) {
    report.put(std::string("sim.events.") + c.name,
               static_cast<double>(t.category_events[cat(c.c)]), "count");
  }
  for (const auto& c : cats) {
    report.put(std::string("sim.wall_share.") + c.name,
               ratio(static_cast<double>(t.category_wall_ns[cat(c.c)]),
                     static_cast<double>(total_wall_ns)),
               "ratio", "(of profiled callback wall)");
  }
  report.put("sim.churn_ns", unit.churn_ns, "ns",
             "(post+pop at depth " + std::to_string(t.max_events_pending) +
                 ")");
  report.put("sim.churn_ns.shallow", unit.churn_shallow_ns, "ns",
             "(post+pop at depth 2)");
  report.put("sim.sim_seconds_per_wall_s", ratio(u.sim_s, u.des_wall_s),
             "s/s", "(untraced; sessions + probes)");
  // net
  report.put("net.forward_ns", unit.forward_ns, "ns");
  report.put("net.loss_rate",
             ratio(t.loss_rate_sum, static_cast<double>(t.loss_rate_n)),
             "ratio", "(mean over video flows)");
  // tcp
  report.put("tcp.ack_ns", unit.ack_ns, "ns");
  report.put("tcp.sink_ns", unit.sink_ns, "ns");
  report.put("tcp.retransmit_ratio",
             ratio(static_cast<double>(t.retransmissions),
                   static_cast<double>(t.data_packets_sent)),
             "ratio",
             "(base " + std::to_string(t.data_packets_sent) + " data packets)");
  report.put("tcp.timeouts", static_cast<double>(t.timeouts), "count");
  // stream + fault
  report.put("stream.pick_ns.pull", unit.pick_pull_ns, "ns");
  report.put("stream.pick_ns.redundant", unit.pick_redundant_ns, "ns");
  report.put("stream.record_ns", unit.record_ns, "ns");
  report.put("stream.redundancy_overhead",
             ratio(static_cast<double>(t.generated + t.duplicates_sent +
                                       t.parity_sent),
                   static_cast<double>(t.generated)),
             "ratio",
             "(base " + std::to_string(t.generated) + " generated)");
  report.put("stream.dup_suppressed",
             static_cast<double>(t.duplicates_suppressed), "count");
  report.put("fault.events_fired", static_cast<double>(t.fault_events),
             "count");
  // model
  const double build_ms = traced.chain_build_ms.empty()
                              ? 0.0
                              : perfbench::median(traced.chain_build_ms);
  report.put("model.chain_build_ms", build_ms, "ms",
             "(median of " + std::to_string(traced.chain_build_ms.size()) +
                 " cold chains)");
  const auto lookups = u.cache_hits + u.cache_misses;
  report.put("model.chain_cache_hit_ratio",
             ratio(static_cast<double>(u.cache_hits),
                   static_cast<double>(lookups)),
             "ratio",
             "(" + std::to_string(u.cache_hits) + " hits + " +
                 std::to_string(u.cache_misses) + " misses)");
  report.put("model.chain_cache_lookups", static_cast<double>(lookups),
             "count");
  report.put("model.mc_items_per_s",
             perfbench::rate_per_wall_s(static_cast<double>(t.mc_consumptions),
                                        t.mc_wall_s),
             "1/s", "(consumptions / MC call wall)");
  report.put("model.mc_consumptions", static_cast<double>(t.mc_consumptions),
             "count");
  // exp
  report.put("exp.busy_fraction", untraced.runner.busy_fraction, "ratio",
             "(makespan " + std::to_string(untraced.runner.makespan_s) + " s)");
  report.put("exp.tail_idle_s", untraced.runner.tail_idle_s, "s");
  report.put("exp.items", static_cast<double>(untraced.items.size()),
             "count");
  // phases (traced pass, self time per worker)
  report.put("phase.probe_s", traced.phase_probe_s, "s");
  report.put("phase.session_s", traced.phase_session_s, "s");
  report.put("phase.model_s", traced.phase_model_s, "s");
  report.put("phase.analysis_s", traced.phase_analysis_s, "s");
  report.put("phase.des_share",
             ratio(traced.phase_probe_s + traced.phase_session_s,
                   traced.wall_s),
             "ratio",
             "((probe + session) / traced wall " +
                 std::to_string(traced.wall_s) + " s)");
  // tracing overhead
  report.put("trace.overhead_ratio", ratio(traced.wall_s, untraced.wall_s),
             "ratio",
             "(traced " + std::to_string(traced.wall_s) + " s / untraced " +
                 std::to_string(untraced.wall_s) + " s)");
  report.put("trace.untraced_wall_s", untraced.wall_s, "s");
  // Layer budget: unit cost x per-session op counts vs untraced DES wall.
  // Every event pays one post + pop at the session's depth; a link hop adds
  // its forward cost minus the two shallow events the forward arm already
  // paid.  ACKs reaching senders = reverse-path hops / 3 (three links per
  // direction); data reaching sinks = bottleneck deliveries.
  const double hops = static_cast<double>(
      t.category_events[cat(dmp::EventCategory::kLinkDelivery)]);
  const double forward_hops = static_cast<double>(t.bottleneck_arrivals) +
                              2.0 * static_cast<double>(t.bottleneck_delivered);
  const bool redundant_policy = t.duplicates_sent + t.parity_sent > 0;
  const std::vector<perfbench::BudgetLine> budget{
      {"sim.churn", unit.churn_ns, static_cast<double>(t.events)},
      {"net.forward",
       std::max(0.0, unit.forward_ns - 2.0 * unit.churn_shallow_ns), hops},
      {"tcp.ack", unit.ack_ns, std::max(0.0, (hops - forward_hops) / 3.0)},
      {"tcp.sink", unit.sink_ns, static_cast<double>(t.bottleneck_delivered)},
      {"stream.pick",
       redundant_policy ? unit.pick_redundant_ns : unit.pick_pull_ns,
       static_cast<double>(2 * t.generated + t.duplicates_sent +
                           t.parity_sent + t.video_acks)},
      {"stream.record", unit.record_ns, static_cast<double>(t.trace_records)},
  };
  for (const auto& line : budget) {
    std::printf("    budget %-14s %10.2f ns x %14.0f ops = %9.4f s\n",
                line.name.c_str(), line.ns_per_op, line.ops, line.seconds());
  }
  report.put("budget.closure",
             perfbench::budget_closure(budget, u.session_wall_s), "ratio",
             "(predicted " +
                 std::to_string(perfbench::budget_predicted_s(budget)) +
                 " s / measured DES " + std::to_string(u.session_wall_s) +
                 " s)");
  report.put("budget.des_wall_s", u.session_wall_s, "s",
             "(untraced run_session wall, summed)");
  // The host: the calibration slice behind the end-to-end reference times.
  report.put("host.slice_us", perfbench::mean(untraced.host_slices_s) * 1e6,
             "us",
             "(mean of " + std::to_string(untraced.host_slices_s.size()) +
                 " slices in the untraced pass; reference " +
                 std::to_string(perfbench::kReferenceSliceS * 1e6) + " us)");
  report.put("failed_fraction",
             perfbench::failed_fraction(verdict.failed, verdict.attempted),
             "ratio",
             "(" + std::to_string(verdict.failed) + " / " +
                 std::to_string(verdict.attempted) + " attempted)");
  report.print_json(verdict.correct, verdict.attempted, verdict.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start_s = perfbench::now_s();
  const Args args = parse_args(argc, argv);
  try {
    if (args.setup_only) {
      PassConfig config;
      config.setup_only = true;
      config.started_at_s = process_start_s;
      const PassResult pass =
          perfbench::run_pass(args.workload, args.seed, config);
      const double slice_s = perfbench::host_slice_s(kSetupProbeSlices);
      std::printf("%.17g\n", perfbench::reference_s(pass.setup_s, slice_s));
      return 0;
    }
    if (args.round) return run_round(args, process_start_s);
    if (args.write_reference) {
      if (args.seed != kDefaultSeed) usage("references pin seed 2007 only");
      const PassResult pass =
          perfbench::run_pass(args.workload, args.seed, PassConfig{});
      if (pass.failed != 0) {
        for (const auto& e : pass.errors) {
          std::fprintf(stderr, "%s\n", e.c_str());
        }
        return 1;
      }
      write_reference(args, pass.outputs);
      return 0;
    }
    return args.trace == 1 ? run_per_layer(args)
                           : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

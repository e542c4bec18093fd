// Lazy links at the session level: a plain run (every drop-tail link lazy,
// finite-buffer bottlenecks included, and the bottleneck -> exit hops
// fused, so neither tx-dones nor those deliveries enter the queue), the
// eager reference (Scheduler::keep_links_eager: every tx-done and delivery
// pops) and an observed run (every sink on, lazy) must produce the same
// trajectory — trace, events_executed / _cancelled / _scheduled, per-path
// measurements and bottleneck flow counters — on the tie-heavy 5 Mb/s
// settings, where the 2.4 ms bottleneck tx time is exactly 20 access tx
// times and same-nanosecond pops are common, on the correlated Settings 1
// and 1-4 of Table 3, where video flows share one lazy bottleneck, and
// under every path scheduler.  In the faults arms the fault-reachable
// bottlenecks run lazy too, up to each declared fault, and a seeded
// battery of fault plans checks the stream's contract on all three.  On
// Setting 1-1 the observed run's artifacts match the eager reference's.  The single DES backend
// keeps the experiment engine's thread-count invariance, and DMP_DES is
// gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/options.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace_analyzer.hpp"
#include "stream/session.hpp"

namespace dmp::exp {
namespace {

SessionConfig setting(int a, int b, double mu_pps,
                      const std::string& scheduler = "pull") {
  SessionConfig config;
  config.path_configs = {table1_config(a), table1_config(b)};
  config.num_flows = 2;
  config.mu_pps = mu_pps;
  config.duration_s = 30.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.scheduler = scheduler;
  config.seed = 20071211;
  return config;
}

// The same session on the eager reference: every link eager.
SessionResult eager(const SessionConfig& config) {
  Scheduler sched;
  sched.keep_links_eager();
  return run_session(config, sched);
}

// The same session with every sink on, artifacts under `prefix`.
SessionConfig observed(SessionConfig config, const std::string& prefix) {
  config.obs.enabled = true;
  config.obs.flight_recorder = true;
  config.obs.probe_interval_s = 0.0;
  config.obs.output_dir = "des_backend_test_out";
  config.obs.prefix = prefix;
  config.telemetry.enabled = true;
  config.telemetry.write_artifacts = true;
  config.profile = true;
  return config;
}

// Fig. 6: `flows` video flows on one Table-1 bottleneck.
SessionConfig correlated(int config_id, std::size_t flows, double mu_pps) {
  SessionConfig config = setting(config_id, config_id, mu_pps);
  config.path_configs = {table1_config(config_id)};
  config.correlated = true;
  config.num_flows = flows;
  return config;
}

void expect_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.trace.entries().size(), b.trace.entries().size());
  ASSERT_GT(a.trace.entries().size(), 0u);
  for (std::size_t i = 0; i < a.trace.entries().size(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number) << "entry " << i;
    ASSERT_EQ(a.trace.entries()[i].arrived.ns(),
              b.trace.entries()[i].arrived.ns()) << "entry " << i;
    ASSERT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path)
        << "entry " << i;
  }
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.events_cancelled, b.events_cancelled);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.fault_events_fired, b.fault_events_fired);
  EXPECT_EQ(a.duplicates_sent, b.duplicates_sent);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t k = 0; k < a.paths.size(); ++k) {
    const PathMeasurement& x = a.paths[k];
    const PathMeasurement& y = b.paths[k];
    EXPECT_EQ(x.loss_rate, y.loss_rate) << "path " << k;
    EXPECT_EQ(x.rtt_s, y.rtt_s) << "path " << k;
    EXPECT_EQ(x.to_ratio, y.to_ratio) << "path " << k;
    EXPECT_EQ(x.share, y.share) << "path " << k;
    EXPECT_EQ(x.bottleneck.arrivals, y.bottleneck.arrivals) << "path " << k;
    EXPECT_EQ(x.bottleneck.drops, y.bottleneck.drops) << "path " << k;
    EXPECT_EQ(x.tcp.data_packets_sent, y.tcp.data_packets_sent);
    EXPECT_EQ(x.tcp.retransmissions, y.tcp.retransmissions);
    EXPECT_EQ(x.tcp.timeouts, y.tcp.timeouts);
    EXPECT_EQ(x.tcp.acks_received, y.tcp.acks_received);
  }
}

// The plain run against the eager reference and the observed run; the
// observed run pops what the plain one does.  Returns the plain result,
// and the observed one through `seen_out` when given.
SessionResult expect_arms_identical(const SessionConfig& plain,
                                    const std::string& prefix,
                                    SessionResult* seen_out = nullptr) {
  SessionResult lazy = run_session(plain);
  const SessionResult reference = eager(plain);
  expect_identical(lazy, reference);
  EXPECT_EQ(reference.events_dispatched, reference.events_executed);
  const SessionResult seen = run_session(observed(plain, prefix));
  expect_identical(lazy, seen);
  EXPECT_EQ(seen.events_dispatched, lazy.events_dispatched);
  EXPECT_LT(lazy.events_dispatched, lazy.events_executed);
  if (seen_out != nullptr) *seen_out = seen;
  return lazy;
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting33) {
  expect_arms_identical(setting(3, 3, 30.0), "s33");
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting13) {
  expect_arms_identical(setting(1, 3, 40.0), "s13");
}

TEST(LazyLinkSession, PlainMatchesEagerOnCorrelatedSetting1) {
  const SessionResult lazy =
      expect_arms_identical(correlated(1, 2, 50.0), "c1");
  ASSERT_EQ(lazy.paths.size(), 2u);
  for (const PathMeasurement& m : lazy.paths) EXPECT_GT(m.loss_rate, 0.0);
}

TEST(LazyLinkSession, PlainMatchesEagerOnSetting44) {
  // 30-packet buffers and 1 ms propagation: the tie-heavy drop case.
  const SessionResult lazy = expect_arms_identical(setting(4, 4, 50.0), "s44");
  for (const PathMeasurement& m : lazy.paths) {
    EXPECT_GT(m.bottleneck.drops, 0u);
  }
}

TEST(LazyLinkSession, PlainMatchesEagerOnTable3CorrelatedSettings) {
  // Table 3's shared bottlenecks at their stream rates, briefly.
  for (const auto& [config_id, mu_pps] :
       std::vector<std::pair<int, double>>{{2, 50.0}, {3, 30.0}, {4, 80.0}}) {
    SCOPED_TRACE(testing::Message() << "config " << config_id);
    SessionConfig plain = correlated(config_id, 2, mu_pps);
    plain.duration_s = 10.0;
    expect_arms_identical(plain, "t3c" + std::to_string(config_id));
  }
}

TEST(LazyLinkSession, PlainMatchesEagerUnderEverySchedulerStrategy) {
  // bench_schedulers' strategies through the fused send hops, on its
  // 1-3 grid and on its 4-4 outage arm, briefly.
  for (const char* strategy : {"pull", "weighted", "best_path", "round_robin",
                               "redundant", "parity-4"}) {
    SCOPED_TRACE(strategy);
    SessionConfig plain = setting(1, 3, 40.0, strategy);
    plain.duration_s = 10.0;
    expect_arms_identical(plain, std::string("st_") + strategy);
    SessionConfig outage = setting(4, 4, 30.0, strategy);
    outage.duration_s = 12.0;
    outage.faults = "5 link_down path0; 10 link_up path0";
    expect_arms_identical(outage, std::string("so_") + strategy);
  }
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> sorted_lines(const std::string& path) {
  std::istringstream in(file_text(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(LazyLinkSession, RealPopsShrinkOnLazyLinksOnly) {
  // Setting 1-1 at the Fig-4/5 run shape.  Every link eager, each logical
  // event is a pop; plain or observed, the virtual tx-dones, fused
  // deliveries and fused send hops (jitter-delayed emissions into lazy
  // entry links) are not.
  SessionConfig plain = setting(1, 1, 50.0);
  plain.duration_s = 40.0;
  plain.warmup_s = 10.0;
  plain.drain_s = 10.0;
  plain.seed = 7;
  const SessionResult lazy = run_session(plain);
  const SessionConfig traced = observed(plain, "s11");
  const SessionResult seen = run_session(traced);
  SessionConfig reference_config = traced;
  reference_config.obs.prefix = "s11_eager";
  const SessionResult reference = eager(reference_config);
  expect_identical(lazy, seen);
  expect_identical(lazy, reference);
  EXPECT_EQ(reference.events_dispatched, reference.events_executed);
  EXPECT_EQ(reference.events_executed, 411'582u);
  // 168,520 real pops before the send hops fused, 38,029 of them
  // emissions.
  EXPECT_EQ(lazy.events_dispatched, 130'491u);
  EXPECT_EQ(seen.events_dispatched, 130'491u);
  EXPECT_LE(static_cast<double>(lazy.events_dispatched),
            0.45 * static_cast<double>(lazy.events_executed))
      << lazy.events_dispatched << " of " << lazy.events_executed;

  // The profile counts virtual events in their categories.
  EXPECT_EQ(seen.profile.total_executed(), seen.events_executed);
  for (std::size_t c = 0; c < kNumEventCategories; ++c) {
    EXPECT_EQ(seen.profile.by_category[c].executed,
              reference.profile.by_category[c].executed)
        << event_category_name(static_cast<EventCategory>(c));
  }
  // Every counter and gauge but the queue depths the two engines keep.
  for (const auto& [name, counter] : reference.metrics->counters()) {
    const obs::Counter* got = seen.metrics->find_counter(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->value(), counter.value()) << name;
  }
  EXPECT_EQ(seen.metrics->counters().size(),
            reference.metrics->counters().size());
  for (const auto& [name, gauge] : reference.metrics->gauges()) {
    if (name == "sched.events_pending" || name == "sched.max_events_pending") {
      continue;
    }
    const obs::Gauge* got = seen.metrics->find_gauge(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->value(), gauge.value()) << name;
  }
  // The artifacts: telemetry and event log byte for byte, spans as sorted
  // lines, and the late-packet attribution.
  const obs::ObsConfig& a = seen.hub->config();
  const obs::ObsConfig& b = reference.hub->config();
  EXPECT_EQ(file_text(a.telemetry_csv_path()),
            file_text(b.telemetry_csv_path()));
  EXPECT_EQ(file_text(a.events_path()), file_text(b.events_path()));
  EXPECT_EQ(sorted_lines(a.trace_path()), sorted_lines(b.trace_path()));
  const obs::TraceAnalyzer want(
      obs::read_flight_trace_file(b.trace_path()));
  const obs::TraceAnalyzer got(obs::read_flight_trace_file(a.trace_path()));
  for (const double tau : {2.0, 4.0, 8.0}) {
    const obs::AttributionReport w = want.attribute(tau);
    const obs::AttributionReport g = got.attribute(tau);
    EXPECT_EQ(w.late, g.late) << tau;
    EXPECT_EQ(w.by_cause, g.by_cause) << tau;
    ASSERT_EQ(w.verdicts.size(), g.verdicts.size()) << tau;
    for (std::size_t i = 0; i < w.verdicts.size(); ++i) {
      EXPECT_EQ(w.verdicts[i].packet, g.verdicts[i].packet);
      EXPECT_EQ(w.verdicts[i].cause, g.verdicts[i].cause)
          << "packet " << w.verdicts[i].packet;
    }
  }
}

TEST(LazyLinkSession, PlainMatchesEagerUnderRedundantWithFaults) {
  SessionConfig plain = setting(1, 3, 40.0, "redundant");
  plain.faults = "8 link_down path1; 12 link_up path1; 20 burst_loss path0 5";
  const SessionResult lazy = expect_arms_identical(plain, "rf");
  EXPECT_EQ(lazy.fault_events_fired, 3u);
}

TEST(LazyLinkSession, RealPopsShrinkOnFaultedPaths) {
  // bench_schedulers' 4-4 outage arm under the redundant scheduler.  Path
  // 0's bottlenecks used to stay eager for the whole run: 172,894 real
  // pops of 384,346 logical events.  Now they run lazy up to each declared
  // fault, so their tx-dones and exit deliveries are virtual too.
  SessionConfig plain = setting(4, 4, 30.0, "redundant");
  plain.faults = "5 link_down path0; 10 link_up path0";
  const SessionResult lazy = run_session(plain);
  const SessionResult reference = eager(plain);
  expect_identical(lazy, reference);
  EXPECT_EQ(reference.events_dispatched, reference.events_executed);
  EXPECT_EQ(reference.events_executed, 384'346u);
  EXPECT_EQ(lazy.events_dispatched, 120'208u);
  EXPECT_LE(static_cast<double>(lazy.events_dispatched), 0.75 * 172'894)
      << lazy.events_dispatched;
}

// A seeded fault plan over both paths: a down/up window or two per path
// (some back to back, some raised at the instant they drop), burst losses
// and rescales of bandwidth and delay, up and down, within the video's
// first `span_ms`.
std::string battery_plan(std::uint64_t seed, int span_ms) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<int, std::string>> events;
  const auto at = [&rng, span_ms] { return static_cast<int>(rng() % span_ms); };
  const auto add = [&events](int ms, const std::string& what) {
    events.emplace_back(ms, what);
  };
  for (const char* path : {"path0", "path1"}) {
    int t = at() / 2;
    for (int w = 0, windows = 1 + static_cast<int>(rng() % 2); w < windows;
         ++w) {
      static constexpr int kLengths[] = {0, 1, 300, 1200};
      const int up = t + kLengths[rng() % 4];
      add(t, std::string("link_down ") + path);
      add(up, std::string("link_up ") + path);
      t = up + (rng() % 2 == 0 ? 0 : 200);  // the next one back to back
    }
    if (rng() % 2 == 0) {
      add(at(), std::string("burst_loss ") + path + " " +
                    std::to_string(1 + rng() % 8));
    }
    if (rng() % 2 == 0) {
      static constexpr const char* kFactors[] = {"0.5", "2", "1"};
      add(at(), std::string("rescale ") + path + " bw=" +
                    kFactors[rng() % 3] + " delay=" + kFactors[rng() % 3]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string spec;
  for (const auto& [ms, what] : events) {
    char time[32];
    std::snprintf(time, sizeof time, "%.3f ", ms / 1000.0);
    spec += (spec.empty() ? "" : "; ") + std::string(time) + what;
  }
  return spec;
}

// The stream's contract on an observed faulted run: each packet reaches
// the client at most once, no sender pulls while its path is down, and
// every arrival at a bottleneck is dropped by congestion, dropped by a
// fault, delivered, queued or on the wire, each exactly once.
void expect_stream_contract(const SessionResult& seen, std::size_t paths) {
  std::vector<std::int64_t> numbers;
  for (const auto& entry : seen.trace.entries()) {
    numbers.push_back(entry.packet_number);
  }
  std::sort(numbers.begin(), numbers.end());
  EXPECT_EQ(std::adjacent_find(numbers.begin(), numbers.end()), numbers.end())
      << "a packet reached the client twice";
  ASSERT_FALSE(numbers.empty());
  EXPECT_GE(numbers.front(), 0);
  EXPECT_LT(numbers.back(), seen.packets_generated);

  std::vector<bool> down(paths, false);
  std::size_t faults = 0;
  for (const obs::FlightEvent& e : seen.hub->flight()->events()) {
    if (e.kind == obs::FlightEventKind::kPathFault) {
      ++faults;
      const auto kind = static_cast<fault::FaultKind>(e.seq);
      if (kind == fault::FaultKind::kLinkDown) down[e.path] = true;
      if (kind == fault::FaultKind::kLinkUp) down[e.path] = false;
    } else if (e.kind == obs::FlightEventKind::kPull ||
               e.kind == obs::FlightEventKind::kSchedDecision) {
      EXPECT_FALSE(down[e.path])
          << "packet " << e.packet << " pulled onto down path " << e.path
          << " at " << e.t_ns << " ns";
    }
  }
  EXPECT_EQ(faults, seen.fault_events_fired);

  // Fault drops by path (video flow k rides path k; background flows of
  // path i are numbered from 1000 * (i + 1)).
  std::map<std::size_t, std::uint64_t> fault_drops;
  ASSERT_LT(seen.hub->events()->events().size(),
            seen.hub->events()->ring_capacity());
  for (const obs::Event& e : seen.hub->events()->events()) {
    if (e.type != "fault_drop") continue;
    const auto flow = static_cast<std::size_t>(std::stoull(e.fields[0].value));
    ++fault_drops[flow < 1000 ? flow : flow / 1000 - 1];
  }
  for (std::size_t i = 0; i < paths; ++i) {
    const std::string link = "link.path" + std::to_string(i);
    const auto counter = [&](const char* what) {
      return seen.metrics->find_counter(link + what)->value();
    };
    const auto queued = static_cast<std::uint64_t>(
        seen.metrics->find_gauge(link + ".queue_depth")->value());
    const std::uint64_t accounted = counter(".drops") + fault_drops[i] +
                                    counter(".delivered") + queued;
    EXPECT_LE(accounted, counter(".arrivals")) << link;
    EXPECT_LE(counter(".arrivals"), accounted + 1) << link << " (on the wire)";
  }
}

TEST(LazyLinkSession, SeededFaultPlansMatchEagerUnderEveryStrategy) {
  // 12 plans x every path scheduler x a finite and an unbounded
  // bottleneck buffer (Table-1 config 4), briefly.
  std::size_t fault_drops_seen = 0;
  for (std::uint64_t plan = 1; plan <= 12; ++plan) {
    const std::string faults = battery_plan(plan, 3000);
    ASSERT_NO_THROW(fault::FaultPlan::parse(faults)) << faults;
    for (const char* strategy : {"pull", "weighted", "best_path",
                                 "round_robin", "redundant", "parity-4"}) {
      for (const std::size_t buffer : {30u, 0u}) {
        SCOPED_TRACE(testing::Message() << "plan " << plan << " (" << faults
                                        << ") " << strategy << " buffer "
                                        << buffer);
        SessionConfig plain = setting(4, 4, 30.0, strategy);
        for (PathConfig& path : plain.path_configs) {
          path.buffer_packets = buffer;
        }
        plain.duration_s = 3.0;
        plain.warmup_s = 1.0;
        plain.drain_s = 2.0;
        plain.seed = plan;
        plain.faults = faults;
        SessionResult seen;
        const SessionResult lazy = expect_arms_identical(
            plain, "bat" + std::to_string(plan) + strategy, &seen);
        EXPECT_EQ(lazy.fault_events_fired,
                  fault::FaultPlan::parse(faults).size());
        expect_stream_contract(seen, 2);
        for (const obs::Event& e : seen.hub->events()->events()) {
          fault_drops_seen += e.type == "fault_drop" ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(fault_drops_seen, 0u);
}

TEST(DesBackend, AggregateReportIsThreadCountInvariantUnderCalendar) {
  ExperimentPlan plan;
  plan.name = "des_backend_test";
  plan.seed = 777;
  plan.replications = 3;
  plan.settings.push_back({"dmp", setting(2, 2, 50.0)});
  const auto serial = ExperimentRunner(1).run(plan);
  const auto parallel = ExperimentRunner(4).run(plan);
  EXPECT_EQ(serial.aggregate_json(), parallel.aggregate_json());
  ASSERT_EQ(serial.settings.size(), 1u);
  EXPECT_FALSE(serial.settings[0].metrics.empty());
}

TEST(DesBackend, UnknownBackendFailsFast) {
  // There is one backend and no knob: DMP_DES is an unknown variable,
  // whatever it names.
  for (const char* backend : {"heap", "calendar"}) {
    setenv("DMP_DES", backend, 1);
    EXPECT_THROW(BenchOptions::from_env(), std::invalid_argument) << backend;
  }
  unsetenv("DMP_DES");
}

}  // namespace
}  // namespace dmp::exp

// Flight-recorder tests: the per-packet lifecycle trace must not perturb
// the simulation, its JSONL serialization must round-trip losslessly and
// byte-stably, and the analyzer's deadline-miss attribution must reconcile
// EXACTLY with StreamTrace::late_fraction_playback_order.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/trace_analyzer.hpp"
#include "stream/session.hpp"

namespace dmp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SessionConfig flight_session(const std::string& prefix) {
  SessionConfig config;
  config.path_configs = {table1_config(4), table1_config(4)};
  config.mu_pps = 50.0;
  config.duration_s = 60.0;
  config.warmup_s = 10.0;
  config.drain_s = 30.0;
  config.seed = 7;
  config.obs.flight_recorder = true;
  config.obs.output_dir = "flight_recorder_test_out";
  config.obs.prefix = prefix;
  return config;
}

// Two congested paths small enough that video packets are drop-tailed at
// the bottleneck: exercises retransmission and drop events in the trace.
SessionConfig tight_session(const std::string& prefix) {
  PathConfig path;
  path.id = 1;
  path.ftp_flows = 2;
  path.http_flows = 0;
  path.prop_delay = SimTime::millis(20);
  path.bandwidth_bps = 1.0e6;
  path.buffer_packets = 5;
  SessionConfig config;
  config.path_configs = {path, path};
  config.mu_pps = 50.0;
  config.duration_s = 20.0;
  config.warmup_s = 5.0;
  config.drain_s = 10.0;
  config.seed = 11;
  config.obs.flight_recorder = true;
  config.obs.output_dir = "flight_recorder_test_out";
  config.obs.prefix = prefix;
  return config;
}

TEST(FlightRecorder, RunMatchesPlainRunPacketForPacket) {
  // The recorder must not perturb the simulation: identical seeds give
  // identical client traces with and without the recorder attached.
  SessionConfig plain = flight_session("unused");
  plain.obs = obs::ObsConfig{};
  const auto a = run_session(plain);
  const auto b = run_session(flight_session("perturb"));
  ASSERT_NE(b.hub, nullptr);
  ASSERT_NE(b.hub->flight(), nullptr);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  ASSERT_EQ(a.trace.arrivals(), b.trace.arrivals());
  for (std::size_t i = 0; i < a.trace.arrivals(); ++i) {
    ASSERT_EQ(a.trace.entries()[i].packet_number,
              b.trace.entries()[i].packet_number);
    ASSERT_EQ(a.trace.entries()[i].arrived, b.trace.entries()[i].arrived);
    ASSERT_EQ(a.trace.entries()[i].path, b.trace.entries()[i].path);
  }
}

TEST(FlightRecorder, AnalyzerReconcilesExactlyWithStreamTrace) {
  const auto result = run_session(flight_session("reconcile"));
  ASSERT_NE(result.hub, nullptr);
  ASSERT_NE(result.hub->flight(), nullptr);
  ASSERT_GT(result.packets_generated, 0);
  EXPECT_EQ(result.hub->artifact_write_failures(), 0);

  const obs::TraceAnalyzer analyzer(*result.hub->flight());
  EXPECT_EQ(analyzer.total_packets_hint(), result.packets_generated);
  for (const double tau : {0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
    const auto report = analyzer.attribute(tau);
    ASSERT_EQ(report.total_packets, result.packets_generated);
    EXPECT_EQ(report.arrived,
              static_cast<std::int64_t>(result.trace.arrivals()));
    // Exact equality, not approximate: the analyzer replicates the trace
    // metric's integer-nanosecond arithmetic operation for operation.
    EXPECT_EQ(report.late_fraction(),
              result.trace.late_fraction_playback_order(
                  tau, result.packets_generated))
        << "tau=" << tau;

    // Every late packet carries exactly one cause.
    const std::int64_t attributed = std::accumulate(
        report.by_cause.begin(), report.by_cause.end(), std::int64_t{0});
    EXPECT_EQ(attributed, report.late) << "tau=" << tau;
    EXPECT_EQ(static_cast<std::int64_t>(report.verdicts.size()),
              report.late -
                  report.by_cause[static_cast<std::size_t>(
                      obs::LateCause::kNeverArrived)])
        << "tau=" << tau;
    for (const auto& v : report.verdicts) {
      EXPECT_TRUE(v.late);
      EXPECT_GT(v.arrive_rel_ns, v.deadline_rel_ns);
    }
  }
}

TEST(FlightRecorder, FaultedSessionReconcilesAndAttributesPathFault) {
  // A 5 s blackhole of path0 mid-stream: the kPathFault events the
  // injector records must (a) show up as the path_fault cause for packets
  // whose flight window overlaps the outage, and (b) leave the analyzer's
  // late fraction EXACTLY equal to the trace metric at every tau — fault
  // attribution is a relabeling of causes, never a change in the count.
  SessionConfig config = flight_session("faulted");
  config.faults = "20 link_down path0; 25 link_up path0";
  const auto result = run_session(config);
  ASSERT_NE(result.hub, nullptr);
  ASSERT_NE(result.hub->flight(), nullptr);
  EXPECT_EQ(result.fault_events_fired, 2u);

  // The fault events themselves are in the trace.
  std::size_t fault_events = 0;
  for (const auto& e : result.hub->flight()->events()) {
    if (e.kind == obs::FlightEventKind::kPathFault) {
      ++fault_events;
      EXPECT_EQ(e.path, 0);
    }
  }
  EXPECT_EQ(fault_events, 2u);

  const obs::TraceAnalyzer analyzer(*result.hub->flight());
  bool saw_path_fault = false;
  for (const double tau : {0.05, 0.1, 0.5, 1.0, 2.0, 4.0}) {
    const auto report = analyzer.attribute(tau);
    ASSERT_EQ(report.total_packets, result.packets_generated);
    EXPECT_EQ(report.late_fraction(),
              result.trace.late_fraction_playback_order(
                  tau, result.packets_generated))
        << "tau=" << tau;
    const std::int64_t attributed = std::accumulate(
        report.by_cause.begin(), report.by_cause.end(), std::int64_t{0});
    EXPECT_EQ(attributed, report.late) << "tau=" << tau;
    saw_path_fault |=
        report.by_cause[static_cast<std::size_t>(
            obs::LateCause::kPathFault)] > 0;
  }
  // A 5 s outage against mu = 50 pkts/s makes *some* deadline miss
  // attributable to the fault at the tighter taus.
  EXPECT_TRUE(saw_path_fault);
}

TEST(FlightRecorder, JsonlRoundTripsLosslessly) {
  obs::FlightRecorder recorder;
  recorder.set_meta(50.0, 123456789, 3);

  obs::FlightEvent gen;
  gen.t_ns = 1000;
  gen.kind = obs::FlightEventKind::kGenerate;
  gen.packet = 0;
  gen.queue = 1;
  recorder.record(gen);

  obs::FlightEvent pull = gen;
  pull.t_ns = 1500;
  pull.kind = obs::FlightEventKind::kPull;
  pull.path = 1;
  pull.queue = 0;
  recorder.record(pull);

  obs::FlightEvent send;
  send.t_ns = 2000;
  send.kind = obs::FlightEventKind::kTcpSend;
  send.packet = 0;
  send.path = 1;
  send.seq = 7;
  send.attempt = 2;
  send.reason = obs::RtxReason::kFastRtx;
  send.cwnd = 3.5;
  send.ssthresh = 2.0;
  recorder.record(send);

  obs::FlightEvent hop;
  hop.t_ns = 2500;
  hop.kind = obs::FlightEventKind::kLinkDrop;
  hop.packet = 0;
  hop.path = 1;
  hop.hop = 1;
  hop.seq = 7;
  hop.queue = 5;
  recorder.record(hop);

  obs::FlightEvent rto;
  rto.t_ns = 3000;
  rto.kind = obs::FlightEventKind::kRto;
  rto.path = 1;
  rto.cwnd = 1.0;
  rto.ssthresh = 2.0;
  recorder.record(rto);

  obs::FlightEvent arrive;
  arrive.t_ns = 4000;
  arrive.kind = obs::FlightEventKind::kArrive;
  arrive.packet = 0;
  arrive.path = 1;
  recorder.record(arrive);

  std::ostringstream first;
  recorder.to_jsonl(first);

  std::istringstream in(first.str());
  const obs::FlightRecorder reloaded = obs::read_flight_trace(in);
  EXPECT_EQ(reloaded.mu_pps(), 50.0);
  EXPECT_EQ(reloaded.epoch_ns(), 123456789);
  EXPECT_EQ(reloaded.total_packets(), 3);
  ASSERT_EQ(reloaded.events().size(), recorder.events().size());

  std::ostringstream second;
  reloaded.to_jsonl(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(FlightRecorder, LoaderRejectsMalformedLines) {
  {
    std::istringstream in("{\"t_ns\":5,\"pkt\":0}\n");
    EXPECT_THROW(obs::read_flight_trace(in), std::runtime_error);
  }
  {
    std::istringstream in("{\"t_ns\":5,\"ev\":\"warp\",\"pkt\":0}\n");
    EXPECT_THROW(obs::read_flight_trace(in), std::runtime_error);
  }
  {
    std::istringstream in("{\"ev\":\"gen\",\"pkt\":0}\n");
    EXPECT_THROW(obs::read_flight_trace(in), std::runtime_error);
  }
  EXPECT_THROW(obs::read_flight_trace_file("does_not_exist.jsonl"),
               std::runtime_error);
}

TEST(FlightRecorder, LoaderNamesTheLineOfEachMalformedEntry) {
  const std::string meta =
      "{\"ev\":\"meta\",\"version\":1,\"mu_pps\":50,\"epoch_ns\":0,"
      "\"total_packets\":1,\"events\":1}\n";
  for (const std::string bad : {
           "{\"t_ns\":5,\"ev\":\"gen\",\"pkt\":3",      // truncated object
           "{\"t_ns\":5,\"ev\":\"gen\",\"pkt\":3.5}",   // non-integer pkt
           "{\"t_ns\":5,\"ev\":\"gen\",\"pkt\":3} x",  // trailing garbage
       }) {
    std::istringstream in(meta + bad + "\n");
    try {
      obs::read_flight_trace(in);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FlightRecorder, IntegerFieldsStayExactAbove2To53) {
  // CLOCK_MONOTONIC nanoseconds exceed 2^53 on long-running hosts; a
  // double would round these odd stamps to their even neighbours.
  const std::int64_t epoch = (std::int64_t{1} << 53) + 1;
  obs::FlightRecorder recorder;
  recorder.set_meta(50.0, epoch, 1);
  obs::FlightEvent gen;
  gen.t_ns = epoch + 2;
  gen.kind = obs::FlightEventKind::kGenerate;
  gen.packet = 0;
  recorder.record(gen);

  std::ostringstream first;
  recorder.to_jsonl(first);
  std::istringstream in(first.str());
  const obs::FlightRecorder reloaded = obs::read_flight_trace(in);
  EXPECT_EQ(reloaded.epoch_ns(), epoch);
  ASSERT_EQ(reloaded.events().size(), 1u);
  EXPECT_EQ(reloaded.events()[0].t_ns, epoch + 2);
  std::ostringstream second;
  reloaded.to_jsonl(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(FlightRecorder, ReloadKeepsAqmDropCause) {
  obs::FlightRecorder recorder;
  recorder.set_meta(50.0, 0, 1);
  obs::FlightEvent drop;
  drop.t_ns = 10;
  drop.kind = obs::FlightEventKind::kLinkDrop;
  drop.packet = 0;
  drop.hop = 2;
  drop.drop = obs::DropCause::kEarly;
  recorder.record(drop);

  std::ostringstream first;
  recorder.to_jsonl(first);
  std::istringstream in(first.str());
  const obs::FlightRecorder reloaded = obs::read_flight_trace(in);
  ASSERT_EQ(reloaded.events().size(), 1u);
  EXPECT_EQ(reloaded.events()[0].drop, obs::DropCause::kEarly);
  std::ostringstream second;
  reloaded.to_jsonl(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(FlightRecorder, GoldenTraceIsByteStableAcrossRuns) {
  const auto a = run_session(tight_session("golden_a"));
  const auto b = run_session(tight_session("golden_b"));
  ASSERT_NE(a.hub, nullptr);
  ASSERT_NE(b.hub, nullptr);
  const std::string trace_a = a.hub->config().trace_path();
  const std::string trace_b = b.hub->config().trace_path();
  ASSERT_TRUE(std::filesystem::exists(trace_a));
  ASSERT_TRUE(std::filesystem::exists(trace_b));
  EXPECT_EQ(a.hub->artifact_write_failures(), 0);

  const std::string bytes_a = slurp(trace_a);
  const std::string bytes_b = slurp(trace_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // The tight bottleneck forced at least one video drop, and the drop and
  // the ensuing retransmission made it into the trace.
  EXPECT_NE(bytes_a.find("\"ev\":\"link_drop\""), std::string::npos);
  EXPECT_NE(bytes_a.find("\"attempt\":2"), std::string::npos);

  // Attribution is equally stable: same late count, same per-cause split.
  const obs::TraceAnalyzer analyzer_a(*a.hub->flight());
  const obs::TraceAnalyzer analyzer_b(*b.hub->flight());
  const auto report_a = analyzer_a.attribute(0.5);
  const auto report_b = analyzer_b.attribute(0.5);
  EXPECT_EQ(report_a.late, report_b.late);
  EXPECT_EQ(report_a.by_cause, report_b.by_cause);
  EXPECT_EQ(report_a.late_fraction(),
            a.trace.late_fraction_playback_order(0.5, a.packets_generated));

  // Reloading the written file reproduces the in-memory recorder exactly.
  const auto reloaded = obs::read_flight_trace_file(trace_a);
  std::ostringstream out;
  reloaded.to_jsonl(out);
  EXPECT_EQ(out.str(), bytes_a);
}

}  // namespace
}  // namespace dmp

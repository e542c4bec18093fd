// One complete validation experiment (the paper's Section 5 setup):
// K network paths with Table-1 bottleneck configurations and FTP/HTTP
// background traffic, a multipath video stream (DMP or static), and
// per-path measurements of the parameters the model consumes
// (p_k, R_k, TO_k), exactly as Tables 2 and 3 report them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/background.hpp"
#include "net/link.hpp"
#include "obs/config.hpp"
#include "obs/hub.hpp"
#include "sim/profiler.hpp"
#include "stream/trace.hpp"
#include "tcp/tcp_config.hpp"

namespace dmp {

// Video flows default to per-packet ACKs — the ns-2 TCPSink default the
// paper's simulations would have used (delayed ACKs remain available).
inline TcpConfig default_video_tcp() {
  TcpConfig t;
  t.delayed_ack = false;
  return t;
}

struct SessionConfig {
  // One entry per independent path (Fig. 3).  For correlated paths (Fig. 6)
  // set `correlated = true` and provide exactly one entry: all `num_flows`
  // video flows then share that single bottleneck.
  std::vector<PathConfig> path_configs;
  bool correlated = false;
  std::size_t num_flows = 2;
  // Source mode: false streams live video (one packet every 1/mu s); true
  // streams a stored video of mu*duration packets, all available at the
  // video epoch — no live-source constraint (Section-3 extension).
  bool stored = false;
  double mu_pps = 50.0;
  double duration_s = 3000.0;
  // Background warm-up before video generation starts; arrival timestamps
  // are reported relative to the video epoch.
  double warmup_s = 20.0;
  // Extra simulated time after generation ends so in-flight video packets
  // drain to the client.
  double drain_s = 60.0;
  std::uint64_t seed = 1;
  TcpConfig video_tcp = default_video_tcp();
  // Dispatch policy (src/stream/scheduler/ spec grammar, the DMP_SCHED
  // bench knob): pull | weighted[:w0,w1,...] | static[:w0,w1,...] |
  // best_path | round_robin | redundant | parity-<k>.  Parsed and
  // validated before any network is built; the default reproduces the
  // paper's scheme byte-identically, and `static` is the Section-7.4
  // static-split baseline (even split unless weights are given; write
  // weights with %.17g so they round-trip exactly).  Redundant policies
  // route client deliveries through a RedundancyFilter for exactly-once
  // trace recording.
  std::string scheduler = "pull";
  // Bottleneck queue discipline (src/net/qdisc/ spec grammar, the
  // DMP_QDISC bench knob): droptail | pie[:target_ms[,tupdate_ms]] |
  // fq_pie[:flows] | codel[:target_ms[,interval_ms]].  Parsed and
  // validated before any network is built; applied to EVERY path's
  // bottleneck, with per-path early-drop RNG seeds derived from `seed`
  // (seed-stream kind 18, disjoint from all session randomness).  The
  // default reproduces the paper's drop-tail bottlenecks byte-identically.
  std::string qdisc = "droptail";
  // Fault schedule (src/fault/ spec grammar, e.g.
  // "20 link_down path1; 25 link_up path1"), times relative to the video
  // epoch.  Targets name paths ("path<k>"); link faults hit path k's
  // dumbbell (forward + reverse bottleneck for outages) and notify the
  // streaming server so DMP reclaims the dead sender's unsent share.  In
  // correlated sessions the single path is "path0" and an outage notifies
  // every flow.  Empty (the default) constructs no injector and schedules
  // nothing: byte-identical to a build without the fault layer.
  std::string faults{};
  // Observability: the run builds one obs::Hub from these two configs and
  // every layer binds it.  `obs.enabled` keeps metrics, a gauge probe
  // (`<prefix>_probe.csv`), an event log and a `<prefix>_report.json`;
  // `obs.flight_recorder` adds the per-packet trace.  Off by default: no
  // hub is built, nothing is bound or scheduled.
  obs::ObsConfig obs{};
  // Streaming telemetry (src/obs/telemetry): windowed time-series channels
  // on links / TCP / server / client plus a client delay quantile sketch,
  // written under `obs.output_dir` / `obs.prefix`.  Independent of the
  // `obs` toggles — off by default.
  obs::TelemetryConfig telemetry{};
  // DES self-profiling: per-category executed-event counts, written into
  // `SessionResult::profile` (deterministic; safe for golden artifacts).
  bool profile = false;
  // Additionally bracket every callback with steady_clock reads to charge
  // wall nanoseconds per category.  Non-deterministic; report-only.
  bool profile_wall_time = false;
};

// Per-video-flow path statistics (one row of Table 2 / Table 3).
struct PathMeasurement {
  double loss_rate = 0.0;   // p_k: drops/arrivals at the bottleneck
  double rtt_s = 0.0;       // R_k: mean Karn-filtered RTT sample
  double to_ratio = 0.0;    // TO_k = R_TO / R_k
  double share = 0.0;       // fraction of the stream carried by this path
  // AQM controller discards at this path's bottleneck, all flows (0 on
  // droptail paths; a subset of the drops behind loss_rate's numerator).
  std::uint64_t aqm_early_drops = 0;
  // This flow's arrivals and congestion drops at its bottleneck (the
  // counts behind loss_rate).
  LinkFlowCounters bottleneck{};
  TcpSenderStats tcp{};
};

struct SessionResult {
  StreamTrace trace;
  std::vector<PathMeasurement> paths;
  std::int64_t packets_generated = 0;
  std::uint64_t events_executed = 0;
  // The scheduler's superseded timer deadlines and claimed event keys;
  // like events_executed, the same whether links run lazy or eager.
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_scheduled = 0;
  // The pops that ran a handler (Scheduler::events_dispatched): equal to
  // events_executed when every link is eager, fewer by the virtual events
  // of lazy links.
  std::uint64_t events_dispatched = 0;
  // Fault events replayed from `config.faults` (0 for fault-free runs).
  std::uint64_t fault_events_fired = 0;

  // Redundancy accounting (all 0 unless a needs-dedup scheduler ran):
  // extra wire copies / parity packets the server dispatched, and what the
  // client-side RedundancyFilter did with the arrivals.
  std::uint64_t duplicates_sent = 0;
  std::uint64_t parity_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t parity_recovered = 0;

  // The run's observability hub (null when every sink was off): metrics
  // registry with gauges frozen to their end-of-run values, event log,
  // flight recorder, telemetry sketches, and the artifact-health count
  // (artifact_write_failures()).  Artifacts are under hub->config()'s
  // paths.
  std::shared_ptr<obs::Hub> hub;
  // The hub's registry (null unless `obs.enabled`).
  std::shared_ptr<obs::MetricsRegistry> metrics;

  // Per-category executed-event counts (populated when `config.profile`).
  SchedProfile profile{};

  SessionResult() : trace(1.0) {}
};

SessionResult run_session(const SessionConfig& config);
// The same session on a caller's fresh scheduler: the seam through which
// tests run it under Scheduler::keep_links_eager.
SessionResult run_session(const SessionConfig& config, Scheduler& sched);

// Backlogged-probe measurement of a path's model parameters.
//
// Section 2.2 defines sigma_k as the throughput of a *backlogged* TCP
// source, and the analytical model's (p, R, TO) parameterize exactly that
// achievable-throughput process.  Under drop-tail queues an app-limited
// video stream measures a noticeably higher p than a backlogged flow on
// the same path (its post-idle bursts land on full queues), so feeding the
// model video-stream-measured parameters biases it pessimistic.  The probe
// runs `num_probe_flows` backlogged flows (flow ids 0..n-1, matching the
// video flows they stand in for) against the configuration's background
// traffic and reports each flow's parameters.
struct BackloggedProbe {
  double loss_rate = 0.0;
  double rtt_s = 0.0;
  double to_ratio = 0.0;
  double throughput_pps = 0.0;
};

// `qdisc` puts the probe's bottleneck under the same discipline as the
// session it parameterizes (spec grammar as SessionConfig::qdisc), so the
// model sees the loss/RTT process AQM actually produces.
std::vector<BackloggedProbe> measure_backlogged_paths(
    const PathConfig& config, std::size_t num_probe_flows, std::uint64_t seed,
    double duration_s = 1500.0,
    const TcpConfig& probe_tcp = default_video_tcp(),
    const std::string& qdisc = "droptail");

}  // namespace dmp

#include "stream/session.hpp"

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "fault/fault_injector.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "net/topology.hpp"
#include "obs/probe.hpp"
#include "obs/run_report.hpp"
#include "sim/scheduler.hpp"
#include "stream/scheduler/redundancy_filter.hpp"
#include "stream/dmp_server.hpp"
#include "tcp/connection.hpp"
#include "util/rng.hpp"
#include "util/seed_stream.hpp"

namespace dmp {

namespace {

// Registers the scheduler's work counters as sampler gauges so probes can
// plot event-rate over time (the scheduler itself stays obs-free to keep
// the sim -> obs dependency one-directional).
// Seed-stream kind for AQM early-drop trials (registered in
// src/exp/plan.hpp): per-path Rng roots disjoint from every other random
// quantity the session derives from its seed.
constexpr std::uint64_t kQdiscSeedDomain = 18ULL << 32;

// The validated spec for path `index`, with its per-path trial seed.
QdiscSpec qdisc_for_path(const QdiscSpec& spec, std::uint64_t session_seed,
                         std::size_t index) {
  QdiscSpec out = spec;
  out.seed = SeedStream(session_seed, kQdiscSeedDomain).at(index);
  return out;
}

void attach_scheduler_gauges(obs::MetricsRegistry& registry,
                             const Scheduler& sched) {
  registry.gauge("sched.events_pending").set_sampler([&sched] {
    return static_cast<double>(sched.events_pending());
  });
  registry.gauge("sched.events_executed").set_sampler([&sched] {
    return static_cast<double>(sched.events_executed());
  });
  registry.gauge("sched.events_cancelled").set_sampler([&sched] {
    return static_cast<double>(sched.events_cancelled());
  });
  registry.gauge("sched.max_events_pending").set_sampler([&sched] {
    return static_cast<double>(sched.max_events_pending());
  });
}

}  // namespace

SessionResult run_session(const SessionConfig& config) {
  if (config.path_configs.empty()) {
    throw std::invalid_argument{"session needs at least one path config"};
  }
  if (config.correlated && config.path_configs.size() != 1) {
    throw std::invalid_argument{"correlated sessions use a single bottleneck"};
  }
  if (!config.correlated && config.path_configs.size() != config.num_flows) {
    throw std::invalid_argument{
        "independent sessions need one path config per video flow"};
  }
  // Parse the dispatch-policy spec up front so a typo fails before any
  // network is built.  Only sessions running a redundant policy route
  // deliveries through the exactly-once filter; everything else keeps the
  // direct callback path (no allocation, no behavior change).
  const SchedulerSpec scheduler_spec = SchedulerSpec::parse(config.scheduler);
  // Same fail-fast discipline for the bottleneck queue spec and the DES
  // backend.
  const QdiscSpec qdisc_spec = QdiscSpec::parse(config.qdisc);
  const SchedulerBackend des_backend = parse_scheduler_backend(config.des);
  const bool dedup = scheduler_spec.redundant();
  std::unique_ptr<RedundancyFilter> redundancy;
  if (dedup) redundancy = std::make_unique<RedundancyFilter>();

  Scheduler sched(des_backend);
  Rng rng(config.seed);

  // --- observability (optional) ---
  std::shared_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::EventLog> events;
  std::shared_ptr<obs::FlightRecorder> flight;
  if (config.obs.enabled || config.obs.flight_recorder) {
    std::filesystem::create_directories(config.obs.output_dir);
  }
  if (config.obs.enabled) {
    registry = std::make_shared<obs::MetricsRegistry>();
    events = std::make_shared<obs::EventLog>(config.obs.event_ring_capacity,
                                             config.obs.min_severity);
    attach_scheduler_gauges(*registry, sched);
  }
  if (config.obs.flight_recorder) {
    flight = std::make_shared<obs::FlightRecorder>();
  }

  // --- streaming telemetry (optional; independent of `obs`) ---
  std::shared_ptr<obs::SessionTelemetry> telemetry;
  if (config.telemetry.enabled) {
    telemetry = std::make_shared<obs::SessionTelemetry>(config.telemetry);
    if (config.telemetry.write_artifacts) {
      std::filesystem::create_directories(config.telemetry.output_dir);
    }
  }

  // --- DES self-profiler (counts are deterministic; wall time opt-in) ---
  SessionResult result;
  if (config.profile) {
    sched.set_profiler(&result.profile, config.profile_wall_time);
  }

  // --- network paths + background traffic ---
  std::vector<std::unique_ptr<DumbbellPath>> paths;
  std::vector<std::unique_ptr<BackgroundTraffic>> background;
  for (std::size_t i = 0; i < config.path_configs.size(); ++i) {
    BottleneckConfig bottleneck = config.path_configs[i].bottleneck();
    bottleneck.qdisc = qdisc_for_path(qdisc_spec, config.seed, i);
    paths.push_back(std::make_unique<DumbbellPath>(sched, bottleneck));
    if (registry) {
      const std::string prefix = "link.path" + std::to_string(i);
      paths.back()->bottleneck().attach_metrics(*registry, prefix);
      paths.back()->bottleneck().set_event_log(events.get());
    }
    if (flight) paths.back()->set_flight_recorder(flight.get());
    if (telemetry) {
      const std::string prefix = "link.path" + std::to_string(i);
      paths.back()->bottleneck().set_telemetry(
          telemetry->series().channel(prefix + ".delivered"),
          telemetry->series().channel(prefix + ".drops"),
          telemetry->series().channel(prefix + ".queue_depth"));
    }
    const FlowId first_bg = static_cast<FlowId>(1000 * (i + 1));
    background.push_back(std::make_unique<BackgroundTraffic>(
        sched, *paths.back(), config.path_configs[i], first_bg, rng.fork()));
  }

  // --- video connections (flow k rides path k, or the shared path) ---
  TcpConfig video_tcp = config.video_tcp;
  if (video_tcp.send_overhead_s == 0.0) {
    // Default anti-phase-effect jitter (ns-2 overhead_ practice).
    video_tcp.send_overhead_s = 0.0005;
    video_tcp.jitter_seed = rng.next_u64();
  }
  std::vector<TcpConnection> video;
  std::vector<RenoSender*> senders;
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    DumbbellPath& target = config.correlated ? *paths[0] : *paths[k];
    video.push_back(
        make_connection(sched, static_cast<FlowId>(k), target, video_tcp));
    senders.push_back(video.back().sender.get());
    if (registry) {
      const std::string suffix = ".path" + std::to_string(k);
      video.back().sender->attach_metrics(*registry, "tcp" + suffix);
      video.back().sender->set_event_log(events.get());
      video.back().sink->attach_metrics(*registry, "sink" + suffix);
    }
    if (flight) {
      video.back().sender->set_flight_recorder(flight.get());
      video.back().sink->set_flight_recorder(flight.get());
    }
    if (telemetry) {
      const std::string suffix = ".path" + std::to_string(k);
      video.back().sender->set_telemetry(
          telemetry->series().channel("tcp" + suffix + ".cwnd"),
          telemetry->series().channel("tcp" + suffix + ".srtt_s"));
      video.back().sink->set_telemetry(
          telemetry->series().channel("sink" + suffix + ".reorder_depth"));
    }
  }

  const SimTime epoch = SimTime::seconds(config.warmup_s);
  if (flight) flight->set_meta(config.mu_pps, epoch.ns());
  StreamTrace trace(config.mu_pps);
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    const auto path32 = static_cast<std::uint32_t>(k);
    // Per-path arrival counter and end-to-end delay histogram (generation
    // to in-order delivery, the quantity the late-fraction analysis binns).
    obs::Counter* arrived = nullptr;
    obs::Histogram* delay = nullptr;
    if (registry) {
      arrived = &registry->counter("client.path" + std::to_string(k) +
                                   ".packets");
      delay = &registry->histogram("client.delay_s");
    }
    // Telemetry recording points: per-path goodput (sum/window = pps), the
    // generation-to-delivery delay sketch (the percentile columns of the
    // experiment report), and a late indicator whose window mean is the
    // windowed late fraction at `telemetry.late_tau_s`.
    obs::TimeSeriesChannel* ts_delivered = nullptr;
    obs::TimeSeriesChannel* ts_late = nullptr;
    obs::QuantileSketch* delay_sketch = nullptr;
    if (telemetry) {
      ts_delivered = telemetry->series().channel(
          "client.path" + std::to_string(k) + ".delivered");
      ts_late = telemetry->series().channel("client.late_indicator");
      delay_sketch = telemetry->sketch("client.delay_s");
    }
    const double late_tau = config.telemetry.late_tau_s;
    obs::FlightRecorder* fr = flight.get();
    RedundancyFilter* filter = redundancy.get();
    video[k].sink->set_deliver_callback(
        [&trace, path32, &sched, epoch, arrived, delay, fr, ts_delivered,
         ts_late, delay_sketch, late_tau, filter](std::int64_t tag, SimTime) {
          const auto record = [&](std::int64_t data_tag) {
            const SimTime arrival = sched.now() - epoch;
            trace.record(data_tag, arrival, path32);
            if (fr) {
              obs::FlightEvent e;
              e.t_ns = sched.now().ns();
              e.kind = obs::FlightEventKind::kArrive;
              e.packet = data_tag;
              e.path = static_cast<std::int32_t>(path32);
              fr->record(e);
            }
            if (arrived || delay_sketch || ts_late) {
              const double d =
                  (arrival - trace.generation_time(data_tag)).to_seconds();
              if (arrived) {
                arrived->inc();
                delay->observe(d);
              }
              if (delay_sketch) delay_sketch->add(d);
              if (ts_late) ts_late->add(sched.now(), d > late_tau ? 1.0 : 0.0);
            }
            if (ts_delivered) ts_delivered->bump(sched.now());
          };
          if (filter) {
            // Redundant policy: exactly-once semantics — first sight passes,
            // repeats are suppressed, a parity arrival may reconstruct the
            // one missing packet it covers (recorded at this instant).
            filter->on_deliver(tag, record);
            return;
          }
          if (tag < 0) return;
          record(tag);
        });
  }

  // --- server: the policy under test, over a live or stored source ---
  const SimTime duration = SimTime::seconds(config.duration_s);
  // Default `weighted` weights: the configured path rates, so the split
  // targets each path's provisioned share of the stream.
  std::vector<double> path_rates;
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    const PathConfig& path =
        config.correlated ? config.path_configs[0] : config.path_configs[k];
    path_rates.push_back(path.bandwidth_bps);
  }
  DmpStreamingServer server(
      sched, config.mu_pps, senders, epoch, duration,
      make_path_scheduler(scheduler_spec, config.num_flows, path_rates),
      config.stored);
  if (registry) {
    server.attach_metrics(*registry, "server");
    server.set_event_log(events.get());
  }
  if (flight) server.set_flight_recorder(flight.get());
  if (telemetry) {
    server.set_telemetry(telemetry->series().channel("server.backlog"),
                         telemetry->series().channel("server.generated"));
    // Redundancy channels only exist when the policy can emit them, so
    // compat-policy telemetry artifacts stay unchanged.
    if (dedup) {
      server.set_sched_telemetry(
          telemetry->series().channel("server.sched.duplicates"),
          telemetry->series().channel("server.sched.parity"));
    }
  }

  // --- fault injector (only when a plan is given: an empty spec builds
  // nothing and schedules nothing, keeping fault-free runs byte-identical
  // to a build without this block) ---
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        sched, fault::FaultPlan::parse(config.faults), epoch);
    DmpStreamingServer* srv = &server;
    const std::size_t flows = config.num_flows;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      DumbbellPath* path = paths[i].get();
      fault::PathFaultTarget target;
      // Down the links first, then notify the server: reclaimed packets
      // re-offered to surviving senders must not leak onto the dead path.
      // Correlated sessions have one path carrying every flow, so its
      // outage stalls (and its recovery wakes) all of them.
      target.set_down = [path, srv, i, flows,
                         correlated = config.correlated](bool down) {
        path->set_path_down(down);
        if (correlated) {
          for (std::size_t f = 0; f < flows; ++f) {
            if (down) srv->on_path_down(f); else srv->on_path_up(f);
          }
        } else {
          if (down) srv->on_path_down(i); else srv->on_path_up(i);
        }
      };
      target.burst_loss = [path](std::uint64_t n) { path->drop_next(n); };
      target.rescale = [path](double bw, double delay) {
        path->rescale(bw, delay);
      };
      injector->add_path("path" + std::to_string(i),
                         static_cast<std::int32_t>(i), std::move(target));
    }
    injector->set_event_log(events.get());
    injector->set_flight_recorder(flight.get());
    injector->arm();
  }

  const SimTime horizon =
      epoch + duration + SimTime::seconds(config.drain_s);

  // --- time-series probe (per-path cwnd / RTT / queues, server backlog) ---
  std::unique_ptr<obs::Probe> probe;
  if (registry) {
    std::vector<std::string> columns{"server.queue_depth"};
    for (std::size_t k = 0; k < config.num_flows; ++k) {
      const std::string path = ".path" + std::to_string(k);
      columns.push_back("tcp" + path + ".cwnd");
      columns.push_back("tcp" + path + ".ssthresh");
      columns.push_back("tcp" + path + ".srtt_s");
      columns.push_back("tcp" + path + ".buffered");
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      columns.push_back("link.path" + std::to_string(i) + ".queue_depth");
    }
    columns.push_back("sched.events_pending");
    if (config.obs.probe_interval_s > 0.0) {
      result.probe_csv_path = config.obs.probe_csv_path();
      probe = std::make_unique<obs::Probe>(
          sched, *registry, std::move(columns), result.probe_csv_path,
          SimTime::seconds(config.obs.probe_interval_s));
      probe->set_limits(config.obs.probe_max_rows, config.obs.probe_max_bytes);
      probe->start(horizon);
    }
  }

  result.events_executed = sched.run_until(horizon);
  if (probe) {
    probe->stop();
    result.probe_rows_dropped = probe->dropped_rows();
  }
  if (injector) result.fault_events_fired = injector->events_fired();

  // --- per-path measurements (Table 2 / Table 3 rows) ---
  result.packets_generated = server.packets_generated();
  const auto split = trace.path_split(config.num_flows);
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    const DumbbellPath& path = config.correlated ? *paths[0] : *paths[k];
    const auto counters =
        path.bottleneck().flow_counters(static_cast<FlowId>(k));
    PathMeasurement m;
    m.loss_rate = counters.arrivals == 0
                      ? 0.0
                      : static_cast<double>(counters.drops) /
                            static_cast<double>(counters.arrivals);
    m.rtt_s = video[k].sender->stats().mean_rtt_s();
    m.to_ratio = video[k].sender->stats().normalized_timeout();
    m.share = split[k];
    m.aqm_early_drops = path.bottleneck().qdisc_counters().early_drops;
    m.tcp = video[k].sender->stats();
    result.paths.push_back(m);
  }
  result.trace = std::move(trace);
  result.duplicates_sent = server.duplicates_sent();
  result.parity_sent = server.parity_sent();
  if (redundancy) {
    result.duplicates_suppressed = redundancy->counters().duplicates_suppressed;
    result.parity_recovered = redundancy->counters().parity_recovered;
  }

  // --- end-of-run artifacts ---
  if (flight) {
    flight->set_total_packets(result.packets_generated);
    result.trace_path = config.obs.trace_path();
    if (!flight->write_jsonl(result.trace_path)) {
      ++result.artifact_write_failures;
    }
    result.flight = std::move(flight);
  }
  if (probe && !probe->ok()) ++result.artifact_write_failures;
  if (telemetry) {
    if (config.telemetry.write_artifacts) {
      result.telemetry_csv_path = config.telemetry.telemetry_csv_path();
      result.sketches_path = config.telemetry.sketches_path();
    }
    result.artifact_write_failures += telemetry->write_artifacts();
    result.telemetry = std::move(telemetry);
  }
  if (registry) {
    // The instrumented objects die with this scope; keep their last values.
    registry->freeze_gauges();

    result.events_path = config.obs.events_path();
    if (!events->write_jsonl(result.events_path)) {
      ++result.artifact_write_failures;
    }

    obs::RunReport report;
    report.set_text("scheme", server.scheme_name());
    report.set_text("scheduler", server.scheduler_name());
    // Qdisc identity + AQM discard tallies only when one actually ran, so
    // droptail reports stay byte-identical to pre-qdisc artifacts.
    if (!qdisc_spec.droptail()) {
      report.set_text("qdisc", qdisc_spec.kind_name());
      std::uint64_t early = 0;
      std::uint64_t overlimit = 0;
      std::vector<double> per_path_early;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const auto& counters = paths[i]->bottleneck().qdisc_counters();
        early += counters.early_drops;
        overlimit += counters.overlimit_drops;
        per_path_early.push_back(static_cast<double>(counters.early_drops));
      }
      report.set_scalar("aqm_early_drops", static_cast<std::int64_t>(early));
      report.set_scalar("aqm_overlimit_drops",
                        static_cast<std::int64_t>(overlimit));
      report.set_series("path_aqm_early_drops", per_path_early);
    }
    if (dedup) {
      report.set_scalar("duplicates_sent",
                        static_cast<std::int64_t>(result.duplicates_sent));
      report.set_scalar("parity_sent",
                        static_cast<std::int64_t>(result.parity_sent));
      report.set_scalar(
          "duplicates_suppressed",
          static_cast<std::int64_t>(result.duplicates_suppressed));
      report.set_scalar("parity_recovered",
                        static_cast<std::int64_t>(result.parity_recovered));
    }
    report.set_scalar("mu_pps", config.mu_pps);
    report.set_scalar("duration_s", config.duration_s);
    report.set_scalar("warmup_s", config.warmup_s);
    report.set_scalar("num_flows",
                      static_cast<std::int64_t>(config.num_flows));
    report.set_scalar("seed", static_cast<std::int64_t>(config.seed));
    report.set_scalar("packets_generated", result.packets_generated);
    report.set_scalar("arrivals",
                      static_cast<std::int64_t>(result.trace.arrivals()));
    report.set_scalar("out_of_order_fraction",
                      result.trace.out_of_order_fraction());
    report.set_scalar("events_executed",
                      static_cast<std::int64_t>(result.events_executed));
    report.set_scalar("events_cancelled",
                      static_cast<std::int64_t>(sched.events_cancelled()));
    report.set_scalar("max_events_pending",
                      static_cast<std::int64_t>(sched.max_events_pending()));
    report.set_scalar("events_overwritten",
                      static_cast<std::int64_t>(events->overwritten()));
    report.set_scalar("fault_events_fired",
                      static_cast<std::int64_t>(result.fault_events_fired));
    report.set_scalar("probe_rows_dropped",
                      static_cast<std::int64_t>(result.probe_rows_dropped));
    if (config.profile) {
      // Per-category executed-event attribution (deterministic counts).
      // Wall times stay out of the report unless explicitly requested: they
      // vary run to run and would poison golden comparisons.
      for (std::size_t c = 0; c < kNumEventCategories; ++c) {
        const auto cat = static_cast<EventCategory>(c);
        const std::string name{event_category_name(cat)};
        report.set_scalar(
            "sched.events." + name,
            static_cast<std::int64_t>(result.profile.by_category[c].executed));
        if (config.profile_wall_time) {
          report.set_scalar(
              "sched.wall_ns." + name,
              static_cast<std::int64_t>(result.profile.by_category[c].wall_ns));
        }
      }
    }
    // Artifact-write health: non-zero status means at least one artifact
    // (trace, probe CSV, event log) failed to reach disk before this report.
    report.set_scalar("io_errors",
                      static_cast<std::int64_t>(result.artifact_write_failures));
    report.set_scalar("status",
                      result.artifact_write_failures == 0 ? std::int64_t{0}
                                                          : std::int64_t{1});
    report.set_series("path_split", split);
    std::vector<double> loss, rtt, to_ratio;
    for (const auto& m : result.paths) {
      loss.push_back(m.loss_rate);
      rtt.push_back(m.rtt_s);
      to_ratio.push_back(m.to_ratio);
    }
    report.set_series("path_loss_rate", loss);
    report.set_series("path_rtt_s", rtt);
    report.set_series("path_to_ratio", to_ratio);
    // Late fractions at a few startup delays, so a report alone answers
    // "was this run healthy" without re-parsing the trace.
    const std::vector<double> taus{2.0, 4.0, 6.0, 8.0, 10.0};
    std::vector<double> late;
    for (double tau : taus) {
      late.push_back(result.trace.late_fraction_playback_order(
          tau, result.packets_generated));
    }
    report.set_series("late_taus_s", taus);
    report.set_series("late_fraction_playback", late);

    result.report_path = config.obs.report_path();
    if (!report.write(result.report_path, registry.get())) {
      ++result.artifact_write_failures;
    }
    result.metrics = std::move(registry);
    result.events = std::move(events);
  }
  return result;
}

std::vector<BackloggedProbe> measure_backlogged_paths(
    const PathConfig& config, std::size_t num_probe_flows, std::uint64_t seed,
    double duration_s, const TcpConfig& probe_tcp, const std::string& qdisc) {
  if (num_probe_flows == 0) {
    throw std::invalid_argument{"need at least one probe flow"};
  }
  Scheduler sched;
  Rng rng(seed);
  BottleneckConfig bottleneck = config.bottleneck();
  bottleneck.qdisc = qdisc_for_path(QdiscSpec::parse(qdisc), seed, 0);
  DumbbellPath path(sched, bottleneck);
  BackgroundTraffic background(sched, path, config, 1000, rng.fork());

  TcpConfig tcp = probe_tcp;
  if (tcp.send_overhead_s == 0.0) {
    tcp.send_overhead_s = 0.0005;
    tcp.jitter_seed = rng.next_u64();
  }
  std::vector<TcpConnection> probes;
  std::vector<std::unique_ptr<FtpSource>> sources;
  std::vector<std::int64_t> delivered(num_probe_flows, 0);
  for (std::size_t k = 0; k < num_probe_flows; ++k) {
    probes.push_back(make_connection(sched, static_cast<FlowId>(k), path, tcp));
    auto* count = &delivered[k];
    probes.back().sink->set_deliver_callback(
        [count](std::int64_t, SimTime) { ++*count; });
    sources.push_back(std::make_unique<FtpSource>(*probes.back().sender));
  }

  const double warmup_s = 20.0;
  sched.run_until(SimTime::seconds(warmup_s + duration_s));

  std::vector<BackloggedProbe> measurements;
  for (std::size_t k = 0; k < num_probe_flows; ++k) {
    const auto counters =
        path.bottleneck().flow_counters(static_cast<FlowId>(k));
    BackloggedProbe m;
    m.loss_rate = counters.arrivals == 0
                      ? 0.0
                      : static_cast<double>(counters.drops) /
                            static_cast<double>(counters.arrivals);
    m.rtt_s = probes[k].sender->stats().mean_rtt_s();
    m.to_ratio = probes[k].sender->stats().normalized_timeout();
    m.throughput_pps = static_cast<double>(delivered[k]) / duration_s;
    measurements.push_back(m);
  }
  return measurements;
}

}  // namespace dmp

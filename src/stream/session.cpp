#include "stream/session.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "net/topology.hpp"
#include "obs/run_report.hpp"
#include "sim/scheduler.hpp"
#include "stream/client.hpp"
#include "stream/dmp_server.hpp"
#include "tcp/connection.hpp"
#include "util/rng.hpp"
#include "util/seed_stream.hpp"

namespace dmp {

namespace {

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

// Registers the scheduler's work counters as `sched.*` sampler gauges so
// probes can plot event-rate over time (the scheduler itself stays
// obs-free to keep the sim -> obs dependency one-directional).  Pending
// counts are real queue entries.
void bind_scheduler(obs::Hub& hub, Scheduler& sched) {
  if (!hub.metrics()) return;
  const auto gauge = [&hub, &sched](const char* name, auto read) {
    hub.gauge(std::string("sched.") + name)->set_sampler([&sched, read] {
      return static_cast<double>((sched.*read)());
    });
  };
  gauge("events_pending", &Scheduler::pending_events);
  gauge("events_executed", &Scheduler::events_executed);
  gauge("events_cancelled", &Scheduler::events_cancelled);
  gauge("max_events_pending", &Scheduler::max_events_pending);
}

// The end-of-run summary: run parameters, per-path measurements, late
// fractions, redundancy / AQM / profiler tallies and artifact health.
obs::RunReport session_report(const SessionConfig& config,
                              const SessionResult& result,
                              const DmpStreamingServer& server,
                              bool redundant, const QdiscSpec& qdisc_spec,
                              const std::vector<std::unique_ptr<DumbbellPath>>&
                                  paths,
                              const Scheduler& sched, const obs::Hub& hub) {
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
    for (const auto& path : paths) {
      const auto& counters = path->bottleneck().qdisc_counters();
      early += counters.early_drops;
      overlimit += counters.overlimit_drops;
      per_path_early.push_back(static_cast<double>(counters.early_drops));
    }
    report.set_scalar("aqm_early_drops", static_cast<std::int64_t>(early));
    report.set_scalar("aqm_overlimit_drops",
                      static_cast<std::int64_t>(overlimit));
    report.set_series("path_aqm_early_drops", per_path_early);
  }
  const auto scalar = [&report](const char* key, std::uint64_t v) {
    report.set_scalar(key, static_cast<std::int64_t>(v));
  };
  if (redundant) {
    scalar("duplicates_sent", result.duplicates_sent);
    scalar("parity_sent", result.parity_sent);
    scalar("duplicates_suppressed", result.duplicates_suppressed);
    scalar("parity_recovered", result.parity_recovered);
  }
  report.set_scalar("mu_pps", config.mu_pps);
  report.set_scalar("duration_s", config.duration_s);
  report.set_scalar("warmup_s", config.warmup_s);
  scalar("num_flows", config.num_flows);
  scalar("seed", config.seed);
  report.set_scalar("packets_generated", result.packets_generated);
  scalar("arrivals", result.trace.arrivals());
  report.set_scalar("out_of_order_fraction",
                    result.trace.out_of_order_fraction());
  scalar("events_executed", result.events_executed);
  scalar("events_cancelled", sched.events_cancelled());
  scalar("max_events_pending", sched.max_events_pending());
  scalar("events_overwritten", hub.events()->overwritten());
  scalar("fault_events_fired", result.fault_events_fired);
  if (config.profile) {
    // Per-category executed-event attribution (deterministic counts).
    // Wall times stay out of the report unless explicitly requested: they
    // vary run to run and would poison golden comparisons.
    for (std::size_t c = 0; c < kNumEventCategories; ++c) {
      const auto cat = static_cast<EventCategory>(c);
      const std::string name{event_category_name(cat)};
      const auto& counts = result.profile.by_category[c];
      report.set_scalar("sched.events." + name,
                        static_cast<std::int64_t>(counts.executed));
      if (config.profile_wall_time) {
        report.set_scalar("sched.wall_ns." + name,
                          static_cast<std::int64_t>(counts.wall_ns));
      }
    }
  }
  report.set_series("path_split", result.trace.path_split(config.num_flows));
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
  return report;
}

}  // namespace

SessionResult run_session(const SessionConfig& config) {
  Scheduler sched;
  return run_session(config, sched);
}

SessionResult run_session(const SessionConfig& config, Scheduler& sched) {
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
  // Parse the dispatch-policy, bottleneck queue and fault specs up front so
  // a typo fails before any network is built.
  const SchedulerSpec scheduler_spec = SchedulerSpec::parse(config.scheduler);
  const QdiscSpec qdisc_spec = QdiscSpec::parse(config.qdisc);
  const fault::FaultPlan fault_plan = fault::FaultPlan::parse(config.faults);

  Rng rng(config.seed);

  // --- observability: one hub that every component below binds (none
  // when every sink is off, so nothing is bound and the hot path is
  // unchanged) ---
  std::shared_ptr<obs::Hub> hub;
  if (obs::Hub::wanted(config.obs, config.telemetry)) {
    hub = std::make_shared<obs::Hub>(config.obs, config.telemetry);
    bind_scheduler(*hub, sched);
  }

  // --- DES self-profiler (counts are deterministic; wall time opt-in) ---
  SessionResult result;
  if (config.profile) {
    sched.set_profiler(&result.profile, config.profile_wall_time);
  }

  // --- network paths + background traffic ---
  const SimTime epoch = SimTime::seconds(config.warmup_s);
  std::vector<std::unique_ptr<DumbbellPath>> paths;
  std::vector<std::unique_ptr<BackgroundTraffic>> background;
  for (std::size_t i = 0; i < config.path_configs.size(); ++i) {
    BottleneckConfig bottleneck = config.path_configs[i].bottleneck();
    bottleneck.qdisc = qdisc_for_path(qdisc_spec, config.seed, i);
    paths.push_back(std::make_unique<DumbbellPath>(sched, bottleneck));
    if (hub) paths.back()->bind(*hub, "link.path" + std::to_string(i));
    // The hook calls the injector will make on this path.
    std::vector<SimTime> down_times;
    std::vector<std::pair<SimTime, double>> rescales;
    for (const fault::FaultEvent& e : fault_plan.events) {
      std::size_t index = 0;
      if (!fault::parse_path_index(e.target, &index) || index != i) continue;
      const SimTime at = fault::FaultInjector::fire_time(epoch, e);
      if (e.kind == fault::FaultKind::kLinkDown ||
          e.kind == fault::FaultKind::kLinkUp) {
        down_times.push_back(at);
      } else if (e.kind == fault::FaultKind::kRescale) {
        rescales.emplace_back(at, e.delay_factor);
      }
    }
    paths.back()->expose_to_faults(down_times, rescales);
    const FlowId first_bg = static_cast<FlowId>(1000 * (i + 1));
    background.push_back(std::make_unique<BackgroundTraffic>(
        sched, *paths.back(), config.path_configs[i], first_bg, rng.fork()));
  }

  // --- video connections (flow k rides path k, or the shared path) ---
  const TcpConfig video_tcp = with_default_send_jitter(config.video_tcp, rng);
  std::vector<TcpConnection> video;
  std::vector<StreamSender*> senders;
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    DumbbellPath& target = config.correlated ? *paths[0] : *paths[k];
    video.push_back(
        make_connection(sched, static_cast<FlowId>(k), target, video_tcp));
    senders.push_back(video.back().sender.get());
    if (hub) {
      const std::string suffix = ".path" + std::to_string(k);
      video.back().sender->bind(*hub, "tcp" + suffix);
      video.back().sink->bind(*hub, "sink" + suffix);
    }
  }

  // --- client: records every delivery relative to the video epoch;
  // redundant policies deliver through its exactly-once filter ---
  StreamClient client(config.mu_pps, config.num_flows, epoch,
                      scheduler_spec.redundant());
  for (std::size_t k = 0; k < config.num_flows; ++k) {
    client.attach(k, *video[k].sink);
  }
  if (hub) client.bind(*hub, "client");

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
  if (hub) server.bind(*hub, "server");

  // --- fault injector (only when a plan is given: an empty spec builds
  // nothing and schedules nothing, keeping fault-free runs byte-identical
  // to a build without this block) ---
  std::unique_ptr<fault::FaultInjector> injector;
  if (!fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(sched, fault_plan,
                                                      epoch);
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
    if (hub) injector->bind(*hub);
    injector->arm();
  }

  const SimTime horizon =
      epoch + duration + SimTime::seconds(config.drain_s);

  // --- time-series probe (per-path cwnd / RTT / queues, server backlog) ---
  if (hub) {
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
    hub->start_probe(sched, std::move(columns), horizon);
  }

  result.events_executed = sched.run_until(horizon);
  result.events_cancelled = sched.events_cancelled();
  result.events_scheduled = sched.events_scheduled();
  result.events_dispatched = sched.events_dispatched();
  if (injector) result.fault_events_fired = injector->events_fired();

  // --- per-path measurements (Table 2 / Table 3 rows) ---
  result.packets_generated = server.packets_generated();
  const auto split = client.trace().path_split(config.num_flows);
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
    m.bottleneck = counters;
    m.tcp = video[k].sender->stats();
    result.paths.push_back(m);
  }
  result.trace = client.take_trace();
  result.duplicates_sent = server.duplicates_sent();
  result.parity_sent = server.parity_sent();
  if (const RedundancyFilter* filter = client.filter()) {
    result.duplicates_suppressed = filter->counters().duplicates_suppressed;
    result.parity_recovered = filter->counters().parity_recovered;
  }
  if (!hub) return result;

  // --- end-of-run artifacts ---
  if (obs::FlightRecorder* flight = hub->flight()) {
    flight->set_total_packets(result.packets_generated);
  }
  hub->write_artifacts();
  if (hub->metrics()) {
    obs::RunReport report =
        session_report(config, result, server, scheduler_spec.redundant(),
                       qdisc_spec, paths, sched, *hub);
    hub->write_report(report);
  }
  result.metrics = hub->metrics();
  result.hub = std::move(hub);
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

  const TcpConfig tcp = with_default_send_jitter(probe_tcp, rng);
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

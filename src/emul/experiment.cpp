#include "emul/experiment.hpp"

#include <memory>
#include <stdexcept>

#include "stream/dmp_server.hpp"
#include "tcp/connection.hpp"

namespace dmp::emul {

// The binding constraint on these profiles is loss+RTT, not the access
// rate: the model's achievable-throughput process has no rate-cap concept
// (neither does the paper's), so cap-limited paths would be invisible to
// it.  Loss-limited profiles keep measurement and model comparable.
WanPathConfig adsl_slow_profile() {
  WanPathConfig config;
  config.bandwidth_bps = 1.0e6;
  config.buffer_packets = 40;
  config.base_owd_s = 0.150;  // cross-country + DSL interleaving latency
  config.jitter_mean_s = 0.005;
  config.loss_good = 0.025;
  config.loss_bad = 0.045;  // mild modulation: near-stationary loss
  config.mean_good_s = 30.0;
  config.mean_bad_s = 4.0;
  return config;
}

WanPathConfig adsl_fast_profile() {
  WanPathConfig config = adsl_slow_profile();
  config.bandwidth_bps = 2.0e6;
  config.buffer_packets = 60;
  config.base_owd_s = 0.085;
  config.loss_good = 0.015;
  config.loss_bad = 0.030;
  return config;
}

WanPathConfig transpacific_path_profile() {
  WanPathConfig config;
  config.bandwidth_bps = 3.0e6;
  config.buffer_packets = 80;
  config.base_owd_s = 0.110;  // UConn <-> Hefei
  config.jitter_mean_s = 0.008;
  config.loss_good = 0.003;
  config.loss_bad = 0.008;
  config.mean_good_s = 25.0;
  config.mean_bad_s = 4.0;
  return config;
}

InternetExperimentResult run_internet_experiment(
    const InternetExperimentConfig& config) {
  if (config.paths.empty()) {
    throw std::invalid_argument{"need at least one WAN path"};
  }
  Scheduler sched;
  Rng rng(config.seed);

  std::vector<std::unique_ptr<WanPath>> paths;
  for (const auto& pc : config.paths) {
    paths.push_back(std::make_unique<WanPath>(sched, pc, rng.fork()));
  }

  const TcpConfig tcp = with_default_send_jitter(config.tcp, rng);
  std::vector<TcpConnection> flows;
  std::vector<StreamSender*> senders;
  StreamTrace trace(config.mu_pps);
  for (std::size_t k = 0; k < paths.size(); ++k) {
    flows.push_back(
        make_connection(sched, static_cast<FlowId>(k), *paths[k], tcp));
    senders.push_back(flows.back().sender.get());
    const auto path32 = static_cast<std::uint32_t>(k);
    flows[k].sink->set_deliver_callback(
        [&trace, path32, &sched](std::int64_t tag, SimTime) {
          if (tag >= 0) trace.record(tag, sched.now(), path32);
        });
  }

  DmpStreamingServer server(sched, config.mu_pps, senders, SimTime::zero(),
                            SimTime::seconds(config.duration_s));
  sched.run_until(SimTime::seconds(config.duration_s + config.drain_s));

  InternetExperimentResult result;
  result.packets_generated = server.packets_generated();
  const auto split = trace.path_split(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    PathMeasurement m;
    const auto counters = paths[k]->flow_counters(static_cast<FlowId>(k));
    m.loss_rate = counters.arrivals == 0
                      ? 0.0
                      : static_cast<double>(counters.drops) /
                            static_cast<double>(counters.arrivals);
    m.rtt_s = flows[k].sender->stats().mean_rtt_s();
    m.to_ratio = flows[k].sender->stats().normalized_timeout();
    m.share = split[k];
    m.tcp = flows[k].sender->stats();
    result.paths.push_back(m);
  }
  result.trace = std::move(trace);
  return result;
}

}  // namespace dmp::emul

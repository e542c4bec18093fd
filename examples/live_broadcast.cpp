// Live broadcast over real TCP sockets (loopback demo of the Section-6
// implementation).  A DMP server streams a live feed over two TCP
// connections; the client throttles one path mid-broadcast-style to show
// the scheme shifting load with no explicit signalling.
//
//   $ ./live_broadcast [mu_pps] [duration_s]
//
// DMP_OBS=<list> (the bench grammar: metrics,trace,telemetry; `profile`
// has nothing to profile here) binds one observability hub per thread,
// writing the simulator's artifact set as live_broadcast_* (server) and
// live_broadcast_client_* (client) into the working directory.  Both sides
// record on the stream clock (trace meta epoch_ns 0), so the two traces
// are one timeline: trace_query reads either.
// A malformed rate or duration exits 1 with a message.
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>

#include "inet/client.hpp"
#include "inet/server.hpp"
#include "obs/hub.hpp"

using namespace dmp;
using namespace dmp::inet;

namespace {

int broadcast(int argc, char** argv) {
  const double mu = argc > 1 ? std::atof(argv[1]) : 400.0;
  const double duration = argc > 2 ? std::atof(argv[2]) : 5.0;
  obs::ObsSinks sinks;
  if (const char* list = std::getenv("DMP_OBS")) {
    try {
      sinks = obs::parse_obs_sinks(list);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "DMP_OBS: %s\n", e.what());
      return 2;
    }
  }
  // The flight recorder is not thread-safe: the server and the client
  // (on different threads) each get their own hub.
  const auto make_hub = [&sinks](const char* prefix) {
    obs::ObsConfig config;
    config.enabled = sinks.metrics;
    config.flight_recorder = sinks.trace;
    config.output_dir = ".";
    config.prefix = prefix;
    config.probe_interval_s = 0.1;
    obs::TelemetryConfig telemetry;
    telemetry.enabled = sinks.telemetry;
    telemetry.write_artifacts = true;
    return obs::Hub::wanted(config, telemetry)
               ? std::make_unique<obs::Hub>(config, telemetry)
               : nullptr;
  };
  const auto server_hub = make_hub("live_broadcast");
  const auto client_hub = make_hub("live_broadcast_client");

  ServerConfig server_cfg;
  server_cfg.num_paths = 2;
  server_cfg.mu_pps = mu;
  server_cfg.duration_s = duration;
  server_cfg.send_buffer_bytes = 8 * 1024;
  server_cfg.obs = server_hub.get();

  DmpInetServer server(server_cfg);
  std::printf("DMP server listening on 127.0.0.1:%u — streaming %.0f pkts/s "
              "(%.2f Mbps) for %.0f s over 2 TCP connections\n",
              server.port(), mu, mu * 1448 * 8 / 1e6, duration);

  ClientConfig client_cfg;
  client_cfg.port = server.port();
  client_cfg.num_paths = 2;
  client_cfg.mu_pps = mu;
  // Path 2 is constrained to ~25% of the stream's bandwidth: DMP must
  // route the bulk of the feed over path 1.
  client_cfg.read_rate_limit_bps = {0.0, mu * 1448 * 8 * 0.25};
  client_cfg.obs = client_hub.get();

  auto server_future =
      std::async(std::launch::async, [&server] { return server.run(); });
  DmpInetClient client(client_cfg);
  const auto report = client.run();
  const auto stats = server_future.get();

  std::printf("\nserver: generated %lld packets (peak queue %zu)\n",
              static_cast<long long>(stats.packets_generated),
              stats.max_queue_packets);
  std::printf("client: received %lld packets\n",
              static_cast<long long>(report.frames_received));
  const auto split = report.trace.path_split(2);
  std::printf("path split: %.1f%% on the fast path, %.1f%% on the throttled "
              "path\n",
              split[0] * 100.0, split[1] * 100.0);
  std::printf("out-of-order arrivals at the reassembly buffer: %.2f%%\n",
              report.trace.out_of_order_fraction() * 100.0);
  for (double tau : {0.5, 1.0, 2.0}) {
    std::printf("late packets with tau = %.1f s startup delay: %.3f%%\n", tau,
                report.trace.late_fraction_playback_order(
                    tau, stats.packets_generated) *
                    100.0);
  }
  if (!server_hub) return 0;
  server_hub->write_artifacts();
  client_hub->write_artifacts();
  std::printf("\nobs=%s: wrote live_broadcast_* and live_broadcast_client_*\n",
              sinks.to_string().c_str());
  if (sinks.metrics) {
    const auto& server_metrics = *server_hub->metrics();
    const auto* p0 = server_metrics.find_counter("server.pulls.path0");
    const auto* p1 = server_metrics.find_counter("server.pulls.path1");
    const auto* delay =
        client_hub->metrics()->find_histogram("client.delay_s");
    std::printf("pulls %llu / %llu, delay p50/p99 = %.0f/%.0f ms\n",
                static_cast<unsigned long long>(p0 ? p0->value() : 0),
                static_cast<unsigned long long>(p1 ? p1->value() : 0),
                delay ? delay->quantile(0.5) * 1e3 : 0.0,
                delay ? delay->quantile(0.99) * 1e3 : 0.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return broadcast(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "live_broadcast: %s\n", e.what());
    return 1;
  }
}

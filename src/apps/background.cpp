#include "apps/background.hpp"

#include <stdexcept>

namespace dmp {

PathConfig table1_config(int id) {
  // | Config | FTP | HTTP | prop delay | bandwidth | buffer |
  // |   1    |  9  |  40  |   40 ms    |  3.7 Mbps |   50   |
  // |   2    |  9  |  40  |    1 ms    |  3.7 Mbps |   50   |
  // |   3    | 19  |  40  |   40 ms    |  5.0 Mbps |   50   |
  // |   4    |  5  |  20  |    1 ms    |  5.0 Mbps |   30   |
  PathConfig config;
  config.id = id;
  switch (id) {
    case 1:
      config.ftp_flows = 9;
      config.http_flows = 40;
      config.prop_delay = SimTime::millis(40);
      config.bandwidth_bps = 3.7e6;
      config.buffer_packets = 50;
      break;
    case 2:
      config.ftp_flows = 9;
      config.http_flows = 40;
      config.prop_delay = SimTime::millis(1);
      config.bandwidth_bps = 3.7e6;
      config.buffer_packets = 50;
      config.http.mean_think_time_s = 1.2;  // busier web users -> higher p
      break;
    case 3:
      config.ftp_flows = 19;
      config.http_flows = 40;
      config.prop_delay = SimTime::millis(40);
      config.bandwidth_bps = 5.0e6;
      config.buffer_packets = 50;
      break;
    case 4:
      config.ftp_flows = 5;
      config.http_flows = 20;
      config.prop_delay = SimTime::millis(1);
      config.bandwidth_bps = 5.0e6;
      config.buffer_packets = 30;
      config.http.mean_think_time_s = 0.4;  // few FTPs: HTTP supplies the load
      break;
    default:
      throw std::invalid_argument{"Table-1 config id must be 1..4"};
  }
  return config;
}

BackgroundTraffic::BackgroundTraffic(Scheduler& sched, DumbbellPath& path,
                                     const PathConfig& config,
                                     FlowId first_flow_id, Rng rng)
    : next_flow_id_(first_flow_id) {
  TcpConfig tcp;
  // ns-2-era defaults: window_ = 20 packets.  Bounding the backlogged
  // flows' windows keeps the bottleneck queue from sitting pinned at
  // capacity, matching the queueing delays the paper reports.
  tcp.max_cwnd = 20.0;
  tcp.initial_ssthresh = 20.0;
  // Small random send overhead so the deterministic flow population does
  // not phase-lock on the shared drop-tail queue.
  tcp = with_default_send_jitter(tcp, rng);
  for (std::size_t i = 0; i < config.ftp_flows; ++i) {
    connections_.push_back(make_connection(sched, next_flow_id_++, path, tcp));
    ftp_.push_back(std::make_unique<FtpSource>(*connections_.back().sender));
  }
  for (std::size_t i = 0; i < config.http_flows; ++i) {
    connections_.push_back(make_connection(sched, next_flow_id_++, path, tcp));
    http_.push_back(std::make_unique<HttpSource>(
        sched, *connections_.back().sender, config.http, rng.fork()));
  }
}

}  // namespace dmp

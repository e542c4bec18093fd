// The paper's Table-1 bottleneck configurations and the background traffic
// (FTP + HTTP flows) that loads them.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "apps/ftp_source.hpp"
#include "apps/http_source.hpp"
#include "net/topology.hpp"
#include "tcp/connection.hpp"
#include "util/rng.hpp"

namespace dmp {

// One row of Table 1.  The paper does not specify its HTTP traffic
// parameters; per-config think times below are calibrated so the measured
// per-path loss rates land near the Table-2/3 values.
struct PathConfig {
  int id = 0;
  std::size_t ftp_flows = 0;
  std::size_t http_flows = 0;
  SimTime prop_delay = SimTime::millis(40);
  double bandwidth_bps = 3.7e6;
  std::size_t buffer_packets = 50;
  HttpSourceConfig http{};

  BottleneckConfig bottleneck() const {
    return BottleneckConfig{bandwidth_bps, prop_delay, buffer_packets};
  }
};

// Table 1 of the paper, configurations 1-4 (index by 1-based id).
PathConfig table1_config(int id);

// Owns the background flows sharing one DumbbellPath's bottleneck.
// Flow ids are allocated from `first_flow_id` upward.
class BackgroundTraffic {
 public:
  BackgroundTraffic(Scheduler& sched, DumbbellPath& path,
                    const PathConfig& config, FlowId first_flow_id, Rng rng);

  std::size_t flow_count() const { return connections_.size(); }

 private:
  std::vector<TcpConnection> connections_;
  std::vector<std::unique_ptr<FtpSource>> ftp_;
  std::vector<std::unique_ptr<HttpSource>> http_;
};

}  // namespace dmp

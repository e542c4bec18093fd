// Unit-cost arms: the wall cost of one call into each DES layer's public
// entry point, measured in isolation.  Multiplied by a session's operation
// counts they give the layer budget (see workloads.cpp, budget.closure).
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct UnitCosts {
  double churn_ns = 0.0;          // Scheduler post + pop at a given depth
  double churn_shallow_ns = 0.0;  // the same at the forward arm's depth (2)
  double forward_ns = 0.0;        // Link::send to delivery, droptail
  double ack_ns = 0.0;            // RenoSender::on_ack (ACK-clocked sends)
  double sink_ns = 0.0;           // TcpSink::on_data
  double pick_pull_ns = 0.0;      // PathScheduler::pick, "pull"
  double pick_redundant_ns = 0.0; // PathScheduler::pick, "redundant"
  double record_ns = 0.0;         // StreamTrace::record
};

// Each arm runs `trials` timed trials and keeps the median.  `pending_depth`
// is the event-queue depth the churn arm holds (a session's typical depth).
UnitCosts measure_unit_costs(std::size_t pending_depth, std::uint64_t seed,
                             int trials = 5);

}  // namespace perfbench

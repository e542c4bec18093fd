// Client-side packet trace and the paper's performance metrics.
//
// The sender side of live streaming does not depend on the startup delay
// tau (the server transmits generated packets as fast as TCP allows either
// way), so one simulation trace yields the late-packet fraction for every
// tau: we record (packet number, arrival time, path) and evaluate lateness
// afterwards.  Two playback disciplines are analyzed, mirroring Figs. 4(a),
// 5(a), 7(a):
//   * playback order: packet n plays at n/mu + tau; late iff it arrives
//     after that instant (this is the "actual" metric);
//   * arrival order: the j-th arriving packet is played as packet j (the
//     model's simplification; the paper shows the two nearly coincide).
#pragma once

#include <cstdint>
#include <vector>

#include "util/sim_time.hpp"

namespace dmp {

// The generation period 1/mu in ns; throws std::invalid_argument unless mu
// is finite and 1e9/mu lies in [1, INT64_MAX].  Every stream-rate consumer
// validates through it before converting to ns.
SimTime packet_period(double mu_pps);

struct StreamTraceEntry {
  std::int64_t packet_number = 0;
  SimTime arrived = SimTime::zero();
  std::uint32_t path = 0;
};

class StreamTrace {
 public:
  explicit StreamTrace(double mu_pps);

  void record(std::int64_t packet_number, SimTime arrived, std::uint32_t path);

  // Generation instant of packet n (generation starts at time 0).
  SimTime generation_time(std::int64_t n) const;

  std::size_t arrivals() const { return entries_.size(); }
  const std::vector<StreamTraceEntry>& entries() const { return entries_; }
  double mu() const { return mu_pps_; }

  // Fraction of late packets when playing in playback (packet-number) order.
  // Considers packets 0..total_packets-1; generated packets that never
  // arrived count as late.
  double late_fraction_playback_order(double tau_s,
                                      std::int64_t total_packets) const;

  // Fraction of late packets when consuming strictly in arrival order.
  double late_fraction_arrival_order(double tau_s,
                                     std::int64_t total_packets) const;

  // Fraction of packets delivered by each path (the DMP split).
  std::vector<double> path_split(std::size_t num_paths) const;

  // Fraction of packets whose arrival order differs from packet order
  // (out-of-order at the multipath reassembly level).
  double out_of_order_fraction() const;

 private:
  double mu_pps_;
  std::vector<StreamTraceEntry> entries_;  // in arrival order
};

}  // namespace dmp

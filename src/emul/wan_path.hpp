// Stochastic WAN path emulation — the substitute for the paper's Section-6
// PlanetLab/ADSL Internet experiments (no Internet vantage points here).
//
// What the Internet experiments contribute to the paper is validation on
// paths whose loss and delay are *not* the clean drop-tail process of the
// ns topology: loss arrives in quality epochs, delay jitters, and the
// parameters fed to the model are estimated from traces.  The emulator
// reproduces exactly those properties:
//
//   * an access-rate limit with a drop-tail buffer (ADSL-like),
//   * base one-way propagation plus exponential FIFO-preserving jitter,
//   * Gilbert-Elliott random loss: a hidden good/bad process modulates the
//     per-packet drop probability on the timescale of seconds.
//
// Flow-level counters expose drops/arrivals so the experiment harness can
// estimate p the way tcpdump post-processing did.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/demux.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/path_interface.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace dmp::emul {

struct WanPathConfig {
  double bandwidth_bps = 2.0e6;     // access-link rate (ADSL-like)
  std::size_t buffer_packets = 60;  // access drop-tail buffer
  double base_owd_s = 0.030;        // one-way propagation delay
  double jitter_mean_s = 0.002;     // exponential extra delay (FIFO kept)
  // Gilbert-Elliott loss modulation.
  double loss_good = 0.004;
  double loss_bad = 0.05;
  double mean_good_s = 30.0;
  double mean_bad_s = 5.0;
  // Reverse direction: ACKs see the same propagation, no loss, high rate.
};

class WanPath final : public NetworkPath {
 public:
  WanPath(Scheduler& sched, WanPathConfig config, Rng rng);

  PacketHandler attach_source(FlowId flow) override;
  // Its demux is delivered by posted events, never ahead of the clock.
  void register_sink(FlowId flow, PacketHandler handler,
                     AheadReceiver* ahead = nullptr) override;
  PacketHandler attach_reverse_source(FlowId flow) override;
  void register_reverse_sink(FlowId flow, PacketHandler handler) override;

  // tcpdump-equivalent per-flow accounting (random drops + buffer drops).
  LinkFlowCounters flow_counters(FlowId flow) const;
  // Advances the loss process to the current simulation time and reports.
  bool in_bad_state();
  double time_fraction_bad();

 private:
  void inject(const Packet& p);
  void deliver_with_jitter(const Packet& p);
  // The good/bad process is sampled lazily: no scheduler events, so the
  // path never keeps an idle simulation alive.
  void advance_loss_state();

  Scheduler& sched_;
  WanPathConfig config_;
  Rng rng_;

  std::unique_ptr<Link> access_;   // rate limit + buffer + base delay
  FlowDemux fwd_demux_;
  std::unique_ptr<Link> reverse_;  // uncongested return path
  FlowDemux rev_demux_;

  bool bad_ = false;
  SimTime state_entered_ = SimTime::zero();
  SimTime next_toggle_ = SimTime::zero();
  SimTime bad_time_ = SimTime::zero();
  SimTime last_delivery_ = SimTime::zero();  // FIFO-preserving jitter

  std::unordered_map<FlowId, LinkFlowCounters> random_drops_;
};

}  // namespace dmp::emul

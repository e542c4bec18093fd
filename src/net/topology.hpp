// The paper's validation topologies (Figs. 3 and 6) as a reusable building
// block: a "dumbbell path" — per-flow access links feeding one shared
// drop-tail bottleneck, an exit access link, and an uncongested reverse
// direction for ACKs.
//
//   source --[access 100Mbps/10ms]--> (bottleneck: Table-1 config) --
//     --[access 100Mbps/10ms]--> sink
//   sink   --[reverse, same delays, 100 Mbps]--> source
//
// Independent paths (Fig. 3) = two DumbbellPath instances.
// Correlated paths (Fig. 6)  = both video flows attached to one instance.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/demux.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/path_interface.hpp"
#include "sim/scheduler.hpp"

namespace dmp {

// Bottleneck-link parameters (rows of the paper's Table 1 fill these in).
struct BottleneckConfig {
  double bandwidth_bps = 3.7e6;
  SimTime prop_delay = SimTime::millis(40);
  std::size_t buffer_packets = 50;
  // Queue discipline at the bottleneck (default drop-tail).  Access and
  // reverse links always stay droptail-unbounded: they never congest, so
  // AQM there would be dead state.
  QdiscSpec qdisc{};
};

struct AccessConfig {
  double bandwidth_bps = 100e6;
  SimTime prop_delay = SimTime::millis(10);
};

class DumbbellPath final : public NetworkPath {
 public:
  DumbbellPath(Scheduler& sched, BottleneckConfig bottleneck,
               AccessConfig access = {});

  // --- forward direction (data) ---
  // Creates this flow's private access link into the shared bottleneck and
  // returns the handler the source injects packets into.
  PacketHandler attach_source(FlowId flow) override;
  Link* source_link(FlowId flow) override;
  // Registers the receiver of this flow's data at the far end.
  void register_sink(FlowId flow, PacketHandler handler) override;

  // --- reverse direction (ACKs) ---
  PacketHandler attach_reverse_source(FlowId flow) override;
  void register_reverse_sink(FlowId flow, PacketHandler handler) override;

  // Measurement hooks.
  const Link& bottleneck() const { return *bottleneck_; }
  Link& bottleneck() { return *bottleneck_; }
  // Binds the hub: the shared bottleneck takes metrics, events and
  // telemetry under `prefix` (Link::bind), and every forward link records
  // flight spans — hop 0 = per-flow entry access link (including ones
  // attached later), hop 1 = bottleneck, hop 2 = exit access link.
  // Reverse (ACK) links carry no stream packets and stay unbound.
  // Optional; a no-op when never called.
  void bind(obs::Hub& hub, const std::string& prefix);
  // Base (zero-queueing) round-trip propagation+transmission latency in
  // seconds for a data packet + returning ACK; diagnostics only.
  double base_rtt_seconds() const;

  // --- fault hooks (src/fault/) ---
  // Declares, before the first packet, when the hooks below will run:
  // set_path_down at each of `down_times`, rescale at each of `rescales`
  // (time, delay factor; in time order).  Both bottlenecks stay lazy and
  // admit departures only up to their next declared fault
  // (Link::declare_fault); an undeclared set_path_down or rescale throws
  // std::logic_error.  drop_next needs no declaration.
  void expose_to_faults(const std::vector<SimTime>& down_times,
                        const std::vector<std::pair<SimTime, double>>& rescales);
  // Downs/raises the whole path: forward bottleneck AND reverse (ACK)
  // bottleneck, so a blackhole kills data and acknowledgments alike — the
  // sender's only signal is its retransmission timer, as with a real
  // outage.
  void set_path_down(bool down);
  bool path_down() const { return bottleneck_->down(); }
  // Burst loss / parameter rescale act on the forward bottleneck (the
  // congested element the paper's Table-1 rows describe).
  void drop_next(std::uint64_t count) { bottleneck_->drop_next(count); }
  void rescale(double bw_factor, double delay_factor) {
    bottleneck_->rescale(bw_factor, delay_factor);
  }

 private:
  Scheduler& sched_;
  AccessConfig access_;
  BottleneckConfig bottleneck_cfg_;

  std::unique_ptr<Link> bottleneck_;
  std::unique_ptr<Link> exit_;
  FlowDemux fwd_demux_;
  std::vector<std::unique_ptr<Link>> entry_links_;
  std::vector<FlowId> entry_flows_;  // parallel to entry_links_

  std::unique_ptr<Link> rev_bottleneck_;
  std::unique_ptr<Link> rev_exit_;
  FlowDemux rev_demux_;
  std::vector<std::unique_ptr<Link>> rev_entry_links_;

  obs::Hub* hub_ = nullptr;
};

}  // namespace dmp

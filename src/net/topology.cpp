#include "net/topology.hpp"

namespace dmp {

DumbbellPath::DumbbellPath(Scheduler& sched, BottleneckConfig bottleneck,
                           AccessConfig access)
    : sched_(sched), access_(access), bottleneck_cfg_(bottleneck) {
  // Forward: shared bottleneck -> exit access link -> per-flow demux.
  bottleneck_ = std::make_unique<Link>(
      sched_, LinkConfig{bottleneck.bandwidth_bps, bottleneck.prop_delay,
                         bottleneck.buffer_packets, bottleneck.qdisc});
  exit_ = std::make_unique<Link>(
      sched_, LinkConfig{access_.bandwidth_bps, access_.prop_delay, 0});
  // Devirtualized hops: each stage hands packets to the next Link / demux
  // directly instead of through a std::function trampoline.
  bottleneck_->set_receiver(exit_.get());
  exit_->set_receiver(&fwd_demux_);

  // Reverse: ACK path shares the bottleneck's propagation delay but is
  // provisioned at access speed, so it never congests (ACK losses are
  // negligible, matching the model's assumption).
  rev_bottleneck_ = std::make_unique<Link>(
      sched_, LinkConfig{access_.bandwidth_bps, bottleneck.prop_delay, 0});
  rev_exit_ = std::make_unique<Link>(
      sched_, LinkConfig{access_.bandwidth_bps, access_.prop_delay, 0});
  rev_bottleneck_->set_receiver(rev_exit_.get());
  rev_exit_->set_receiver(&rev_demux_);
  // The exits are private: only their bottleneck feeds them, so each
  // bottleneck -> exit hop fuses when both links run lazy.
  exit_->set_upstream_only();
  rev_exit_->set_upstream_only();

  // Every link may run lazy (drop-tail ones do; Link::set_lazy_allowed).
  for (Link* link : {bottleneck_.get(), exit_.get(), rev_bottleneck_.get(),
                     rev_exit_.get()}) {
    link->set_lazy_allowed(true);
  }
}

void DumbbellPath::expose_to_faults(
    const std::vector<SimTime>& down_times,
    const std::vector<std::pair<SimTime, double>>& rescales) {
  for (const SimTime at : down_times) {
    bottleneck_->declare_fault(at);
    rev_bottleneck_->declare_fault(at);
  }
  for (const auto& [at, delay_factor] : rescales) {
    bottleneck_->declare_fault(at, delay_factor);
  }
}

PacketHandler DumbbellPath::attach_source(FlowId flow) {
  auto entry = std::make_unique<Link>(
      sched_, LinkConfig{access_.bandwidth_bps, access_.prop_delay, 0});
  entry->set_receiver(bottleneck_.get());
  entry->set_lazy_allowed(true);
  if (hub_) entry->bind(*hub_, "", 0);
  Link* raw = entry.get();
  entry_links_.push_back(std::move(entry));
  entry_flows_.push_back(flow);
  return [raw](const Packet& p) { raw->send(p); };
}

Link* DumbbellPath::source_link(FlowId flow) {
  for (std::size_t i = 0; i < entry_flows_.size(); ++i) {
    if (entry_flows_[i] == flow) return entry_links_[i].get();
  }
  return nullptr;
}

void DumbbellPath::bind(obs::Hub& hub, const std::string& prefix) {
  hub_ = &hub;
  for (auto& entry : entry_links_) entry->bind(hub, "", 0);
  bottleneck_->bind(hub, prefix, 1);
  exit_->bind(hub, "", 2);
}

void DumbbellPath::register_sink(FlowId flow, PacketHandler handler) {
  fwd_demux_.register_flow(flow, std::move(handler));
}

PacketHandler DumbbellPath::attach_reverse_source(FlowId) {
  auto entry = std::make_unique<Link>(
      sched_, LinkConfig{access_.bandwidth_bps, access_.prop_delay, 0});
  entry->set_receiver(rev_bottleneck_.get());
  entry->set_lazy_allowed(true);
  Link* raw = entry.get();
  rev_entry_links_.push_back(std::move(entry));
  return [raw](const Packet& p) { raw->send(p); };
}

void DumbbellPath::register_reverse_sink(FlowId flow, PacketHandler handler) {
  rev_demux_.register_flow(flow, std::move(handler));
}

void DumbbellPath::set_path_down(bool down) {
  bottleneck_->set_down(down);
  rev_bottleneck_->set_down(down);
}

double DumbbellPath::base_rtt_seconds() const {
  const double fwd_prop =
      2.0 * access_.prop_delay.to_seconds() +
      bottleneck_cfg_.prop_delay.to_seconds();
  const double rev_prop = fwd_prop;
  const double data_tx =
      static_cast<double>(kDataPacketBytes) * 8.0 /
          bottleneck_cfg_.bandwidth_bps +
      2.0 * static_cast<double>(kDataPacketBytes) * 8.0 / access_.bandwidth_bps;
  const double ack_tx =
      3.0 * static_cast<double>(kAckPacketBytes) * 8.0 / access_.bandwidth_bps;
  return fwd_prop + rev_prop + data_tx + ack_tx;
}

}  // namespace dmp

#include "emul/wan_path.hpp"

namespace dmp::emul {

WanPath::WanPath(Scheduler& sched, WanPathConfig config, Rng rng)
    : sched_(sched), config_(config), rng_(rng) {
  access_ = std::make_unique<Link>(
      sched_, LinkConfig{config.bandwidth_bps, SimTime::seconds(config.base_owd_s),
                         config.buffer_packets});
  access_->set_receiver([this](const Packet& p) { deliver_with_jitter(p); });

  reverse_ = std::make_unique<Link>(
      sched_,
      LinkConfig{100e6, SimTime::seconds(config.base_owd_s), 0});
  reverse_->set_receiver(rev_demux_.as_handler());

  state_entered_ = sched_.now();
  next_toggle_ =
      sched_.now() + SimTime::seconds(rng_.exponential(config_.mean_good_s));
}

void WanPath::advance_loss_state() {
  while (next_toggle_ <= sched_.now()) {
    if (bad_) bad_time_ += next_toggle_ - state_entered_;
    bad_ = !bad_;
    state_entered_ = next_toggle_;
    const double mean = bad_ ? config_.mean_bad_s : config_.mean_good_s;
    next_toggle_ += SimTime::seconds(rng_.exponential(mean));
  }
}

bool WanPath::in_bad_state() {
  advance_loss_state();
  return bad_;
}

double WanPath::time_fraction_bad() {
  advance_loss_state();
  SimTime total_bad = bad_time_;
  if (bad_) total_bad += sched_.now() - state_entered_;
  const double elapsed = sched_.now().to_seconds();
  return elapsed > 0.0 ? total_bad.to_seconds() / elapsed : 0.0;
}

void WanPath::inject(const Packet& p) {
  advance_loss_state();
  auto& counters = random_drops_[p.flow];
  ++counters.arrivals;
  const double loss = bad_ ? config_.loss_bad : config_.loss_good;
  if (rng_.chance(loss)) {
    ++counters.drops;
    return;
  }
  access_->send(p);
}

void WanPath::deliver_with_jitter(const Packet& p) {
  SimTime when =
      sched_.now() + SimTime::seconds(rng_.exponential(config_.jitter_mean_s));
  // Do not reorder within the path: Internet reordering is rare and the
  // paper's out-of-order effects come from the multipath split, not from
  // per-path reordering.
  if (when <= last_delivery_) when = last_delivery_ + SimTime::nanos(1);
  last_delivery_ = when;
  sched_.post_at(when, [this, p] { fwd_demux_.deliver(p); },
                 EventCategory::kLinkDelivery);
}

PacketHandler WanPath::attach_source(FlowId) {
  return [this](const Packet& p) { inject(p); };
}

void WanPath::register_sink(FlowId flow, PacketHandler handler,
                            AheadReceiver*) {
  fwd_demux_.register_flow(flow, std::move(handler));
}

PacketHandler WanPath::attach_reverse_source(FlowId) {
  return [this](const Packet& p) { reverse_->send(p); };
}

void WanPath::register_reverse_sink(FlowId flow, PacketHandler handler) {
  rev_demux_.register_flow(flow, std::move(handler));
}

LinkFlowCounters WanPath::flow_counters(FlowId flow) const {
  LinkFlowCounters total;
  const auto it = random_drops_.find(flow);
  if (it != random_drops_.end()) total = it->second;
  const auto buffered = access_->flow_counters(flow);
  // Arrivals are counted at injection; add only the buffer's drops.
  total.drops += buffered.drops;
  return total;
}

}  // namespace dmp::emul

#include "net/link.hpp"

#include <stdexcept>
#include <string>

namespace dmp {

Link::Link(Scheduler& sched, LinkConfig config)
    : sched_(sched),
      config_(config),
      base_config_(config),
      qdisc_(make_queue_discipline(config.qdisc, config.buffer_packets)),
      aqm_(!config.qdisc.droptail()) {
  if (!aqm_) droptail_ = static_cast<DropTailQdisc*>(qdisc_.get());
  if (config_.bandwidth_bps <= 0) {
    throw std::invalid_argument{"link bandwidth must be positive"};
  }
  qdisc_->set_drain_rate(config_.bandwidth_bps);
  qdisc_->set_drop_handler([this](const Packet& victim,
                                  QdiscDropReason reason) {
    on_qdisc_drop(victim, reason);
  });
  // Devirtualized dispatch for the two event kinds this link fires; both
  // skip the scheduler's callable slab entirely.
  tx_done_port_id_ =
      sched_.register_port(&Link::tx_done_port, this, EventCategory::kLinkTx);
  delivery_port_id_ = sched_.register_port(&Link::delivery_port, this,
                                           EventCategory::kLinkDelivery);
}

LinkFlowCounters& Link::flow_slot(FlowId flow) {
  if (flow_hint_ < per_flow_.size() && per_flow_[flow_hint_].first == flow) {
    return per_flow_[flow_hint_].second;
  }
  for (std::size_t i = 0; i < per_flow_.size(); ++i) {
    if (per_flow_[i].first == flow) {
      flow_hint_ = i;
      return per_flow_[i].second;
    }
  }
  flow_hint_ = per_flow_.size();
  per_flow_.emplace_back(flow, LinkFlowCounters{});
  return per_flow_.back().second;
}

void Link::record_flight(const Packet& p, obs::FlightEventKind kind,
                         std::size_t queue_depth, obs::DropCause cause) {
  obs::FlightEvent e;
  e.t_ns = sched_.now().ns();
  e.kind = kind;
  e.packet = p.app_tag;
  e.path = static_cast<std::int32_t>(p.flow);
  e.hop = flight_hop_;
  e.seq = p.seq;
  e.queue = static_cast<std::int64_t>(queue_depth);
  e.drop = cause;
  flight_->record(e);
}

// Every congestion discard — the arriving packet on a full/early-dropping
// queue, a different victim (FQ-PIE overlimit) or a queued head (CoDel) —
// funnels through here, so counters, metrics, the event log and the flight
// recorder see AQM drops exactly the way they saw drop-tail ones.  The
// drop-cause annotations are gated on `aqm_`: a droptail link's artifacts
// stay byte-identical to the pre-qdisc implementation.
void Link::on_qdisc_drop(const Packet& victim, QdiscDropReason reason) {
  ++total_drops_;
  ++flow_slot(victim.flow).drops;
  if (m_drops_) m_drops_->inc();
  if (m_early_drops_ && reason == QdiscDropReason::kEarly) {
    m_early_drops_->inc();
  }
  if (ts_drops_) ts_drops_->bump(sched_.now());
  if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
    if (aqm_) {
      event_log_->record(
          sched_.now().to_seconds(), obs::Severity::kWarn, "drop",
          {obs::EventField::num("flow", victim.flow),
           obs::EventField::num("seq", victim.seq),
           obs::EventField::num("queue", qdisc_->len()),
           obs::EventField::text("cause",
                                 std::string(qdisc_drop_reason_name(reason)))});
    } else {
      event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                         "drop",
                         {obs::EventField::num("flow", victim.flow),
                          obs::EventField::num("seq", victim.seq),
                          obs::EventField::num("queue", qdisc_->len())});
    }
  }
  if (flight_ && victim.app_tag >= 0) {
    record_flight(victim, obs::FlightEventKind::kLinkDrop, qdisc_->len(),
                  aqm_ ? (reason == QdiscDropReason::kEarly
                              ? obs::DropCause::kEarly
                              : obs::DropCause::kOverlimit)
                       : obs::DropCause::kNone);
  }
}

void Link::set_lazy_allowed(bool allowed) {
  if (mode_ == Mode::kLazy && !allowed) {
    throw std::logic_error{"link is already lazy"};
  }
  lazy_allowed_ = allowed;
}

bool Link::bound() const {
  return flight_ != nullptr || m_arrivals_ != nullptr ||
         event_log_ != nullptr || ts_delivered_ != nullptr ||
         ts_drops_ != nullptr || ts_queue_ != nullptr;
}

// Decided once, at the first arrival: by then the owner has bound every
// sink and declared every fault target.  Everything that reads a tx-done
// as it happens — AQM dequeue decisions, a finite buffer's drop test, the
// flight recorder, metrics, fault hooks, per-category profiles — keeps the
// eager path.
void Link::decide_mode() {
  const bool lazy = lazy_allowed_ && droptail_ != nullptr &&
                    config_.buffer_packets == 0 && !fault_touched_ &&
                    !bound() && !sched_.exact_counters();
  mode_ = lazy ? Mode::kLazy : Mode::kEager;
}

void Link::require_eager(const char* hook) {
  if (mode_ == Mode::kLazy) {
    throw std::logic_error{std::string(hook) +
                           " on a lazy link (disallow lazy mode first)"};
  }
  fault_touched_ = true;
}

// The eager link starts a packet at its arrival when the transmitter is
// idle, else at its predecessor's tx-done, and claims the delivery key
// then the successor's tx-done key inside that tx-done.  The lazy link
// reproduces exactly that: it is busy iff the newest tx-done lies ahead,
// and then this packet's tx-done key is that event's successor claim
// (virtual_seq(., 1)); otherwise it claims a real seq now, as
// start_transmission's post would.  The delivery is keyed by the virtual
// tx-done's delivery claim (virtual_seq(., 0)).
void Link::send_lazy(const Packet& p) {
  ++total_arrivals_;
  ++flow_slot(p.flow).arrivals;
  const SimTime tx = tx_time(p.size_bytes);
  const SimTime now = sched_.now();
  // Busy iff the newest tx-done lies ahead; only an exact tie with the
  // clock needs the scheduler's tie rule.
  const bool busy = last_departure_ == now ? sched_.virtual_ahead(last_vtx_)
                                           : last_departure_ > now;
  const SimTime departure = (busy ? last_departure_ : now) + tx;
  const std::uint64_t sigma = busy ? Scheduler::virtual_seq(last_vtx_, 1)
                                   : sched_.claim_seq();
  // Lookups reach back at most a delivery's delay past its tx-done, plus a
  // tx time per same-nanosecond tie along a busy period.
  last_vtx_ = sched_.add_virtual(
      departure, sigma, (config_.prop_delay + tx) * 2 + SimTime::millis(10));
  last_departure_ = departure;
  busy_time_ += tx;

  const SimTime when = departure + config_.prop_delay;
  const std::uint64_t seq = Scheduler::virtual_seq(last_vtx_, 0);
  const bool was_empty = deliveries_head_ == deliveries_.size();
  deliveries_.push_back(PendingDelivery{when, seq, pool_.acquire(p)});
  if (was_empty) sched_.arm_key(when, seq, delivery_port_id_);
}

std::size_t Link::lazy_ahead(SimTime* queued_tx) const {
  // Tx-done keys increase along the FIFO, so the ones still ahead are a
  // suffix of it.
  std::size_t ahead = 0;
  SimTime tx_sum = SimTime::zero();
  SimTime oldest_tx = SimTime::zero();
  for (std::size_t i = deliveries_.size(); i > deliveries_head_; --i) {
    const PendingDelivery& d = deliveries_[i - 1];
    if (!sched_.virtual_ahead(Scheduler::virtual_id(d.seq))) break;
    ++ahead;
    // Lazy links never rescale: the tx time is the configured one.
    oldest_tx = transmission_time(pool_.get(d.ref).size_bytes,
                                  config_.bandwidth_bps);
    tx_sum += oldest_tx;
  }
  if (queued_tx != nullptr) *queued_tx = tx_sum - oldest_tx;
  return ahead;
}

std::size_t Link::queue_length() const {
  if (mode_ != Mode::kLazy) return qlen();
  const std::size_t ahead = lazy_ahead(nullptr);
  return ahead == 0 ? 0 : ahead - 1;
}

std::uint64_t Link::total_delivered() const {
  if (mode_ != Mode::kLazy) return total_delivered_;
  // A lazy link never drops: every arrival is on its way.
  return total_arrivals_ - lazy_ahead(nullptr);
}

void Link::send(const Packet& p) {
  if (mode_ != Mode::kEager) {
    if (mode_ == Mode::kUndecided) decide_mode();
    if (mode_ == Mode::kLazy) {
      send_lazy(p);
      return;
    }
  }
  ++total_arrivals_;
  if (m_arrivals_) m_arrivals_->inc();
  ++flow_slot(p.flow).arrivals;

  // Injected faults discard on arrival.  These are not congestion drops:
  // they bypass the qdisc (and its counters) entirely so the measured p_k
  // keeps meaning "congestion loss", and are tallied in fault_drops_
  // instead — fault_drops() stays disjoint from total_drops() under every
  // discipline.
  if (down_ || burst_remaining_ > 0) {
    if (!down_) --burst_remaining_;
    ++fault_drops_;
    if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
      event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                         "fault_drop",
                         {obs::EventField::num("flow", p.flow),
                          obs::EventField::num("seq", p.seq),
                          obs::EventField::num("down", down_ ? 1 : 0)});
    }
    if (flight_ && p.app_tag >= 0) {
      record_flight(p, obs::FlightEventKind::kLinkDrop, qdisc_->len());
    }
    return;
  }

  // Idle bypass: an empty queue and a free transmitter put the packet
  // straight on the wire — no discipline consulted, exactly like the
  // pre-qdisc link (AQM only shapes a standing queue).
  if (!transmitting_ && qlen() == 0) {
    if (flight_ && p.app_tag >= 0) {
      record_flight(p, obs::FlightEventKind::kLinkEnqueue, 0);
    }
    start_transmission(p);
    return;
  }

  const std::size_t depth = qlen();
  if (!q_enqueue(p, sched_.now())) return;  // dropped + reported
  if (flight_ && p.app_tag >= 0) {
    // Pre-push depth, matching the legacy record-before-enqueue order.
    record_flight(p, obs::FlightEventKind::kLinkEnqueue, depth);
  }
  if (ts_queue_) {
    ts_queue_->add(sched_.now(), static_cast<double>(qlen()));
  }
}

void Link::start_transmission(const Packet& p) {
  if (flight_ && p.app_tag >= 0) {
    record_flight(p, obs::FlightEventKind::kLinkDequeue, qlen());
  }
  transmitting_ = true;
  in_flight_ = p;
  const SimTime tx = tx_time(p.size_bytes);
  busy_time_ += tx;
  // At most one transmission is ever outstanding, so tx-done needs no FIFO:
  // a direct port post (no EventFn, no slab traffic).
  sched_.post_port_after(tx, tx_done_port_id_);
}

void Link::on_transmit_done() {
  // Propagation is pipelined: delivery is scheduled and the transmitter is
  // immediately free for the next queued packet.
  ++total_delivered_;
  if (m_delivered_) m_delivered_->inc();
  if (ts_delivered_) ts_delivered_->bump(sched_.now());
  const SimTime when = sched_.now() + config_.prop_delay;
  if (deliveries_head_ < deliveries_.size() &&
      when < deliveries_.back().when) {
    // rescale() shrank the propagation delay under packets already on the
    // wire: this delivery undercuts the FIFO tail, so it takes the legacy
    // one-entry path (the seq is claimed at the same point either way, so
    // pop order is exactly what a FIFO-free scheduler would produce).
    const Packet delivered = in_flight_;
    sched_.post_at(when, [this, delivered] { deliver(delivered); },
                   EventCategory::kLinkDelivery);
  } else {
    // Batched path: claim the (when, seq) key now, park the pooled packet
    // in the link's FIFO, and keep exactly one armed head in the queue.
    const Scheduler::Deferred d = sched_.defer_at(when);
    const bool was_empty = deliveries_head_ == deliveries_.size();
    deliveries_.push_back(PendingDelivery{d.when, d.seq,
                                          pool_.acquire(in_flight_)});
    if (was_empty) sched_.arm_deferred(d, delivery_port_id_);
  }
  transmitting_ = false;
  // A downed link freezes its queue: the packet already on the wire
  // completes, but nothing further dequeues until set_down(false).  CoDel
  // may discard queued heads here and come back empty-handed.
  if (!down_) {
    Packet next;
    if (q_dequeue(&next, sched_.now())) {
      start_transmission(next);
      if (ts_queue_) {
        ts_queue_->add(sched_.now(), static_cast<double>(qlen()));
      }
    }
  }
}

void Link::on_delivery() {
  // Pop the FIFO head, re-arm the successor (its key was claimed when it
  // was scheduled, so arming order cannot disturb pop order), then hand the
  // packet downstream.
  const PendingDelivery head = deliveries_[deliveries_head_++];
  const bool lazy = mode_ == Mode::kLazy;
  if (deliveries_head_ < deliveries_.size()) {
    const PendingDelivery& next = deliveries_[deliveries_head_];
    if (lazy) {
      sched_.arm_key(next.when, next.seq, delivery_port_id_);
    } else {
      sched_.arm_deferred(Scheduler::Deferred{next.when, next.seq},
                          delivery_port_id_);
    }
  } else {
    deliveries_.clear();
    deliveries_head_ = 0;
  }
  if (lazy) sched_.settle_virtual(Scheduler::virtual_id(head.seq));
  deliver(pool_.take(head.ref));
}

void Link::deliver(const Packet& p) {
  if (next_link_ != nullptr) {
    next_link_->send(p);
  } else if (next_demux_ != nullptr) {
    next_demux_->deliver(p);
  } else if (receiver_) {
    receiver_(p);
  }
}

void Link::set_down(bool down) {
  require_eager("set_down");
  down_ = down;
  if (!down_ && !transmitting_) {
    Packet next;
    if (q_dequeue(&next, sched_.now())) start_transmission(next);
  }
}

void Link::rescale(double bw_factor, double delay_factor) {
  if (!(bw_factor > 0.0) || !(delay_factor > 0.0)) {
    throw std::invalid_argument{"link rescale factors must be positive"};
  }
  require_eager("rescale");
  config_.bandwidth_bps = base_config_.bandwidth_bps * bw_factor;
  config_.prop_delay = SimTime::nanos(static_cast<std::int64_t>(
      static_cast<double>(base_config_.prop_delay.ns()) * delay_factor));
  tx_cache_bytes_ = -1;  // bandwidth changed: drop the cached tx time
  // PIE's queue-delay estimate tracks the rescaled drain rate.
  qdisc_->set_drain_rate(config_.bandwidth_bps);
}

LinkFlowCounters Link::flow_counters(FlowId flow) const {
  for (const auto& entry : per_flow_) {
    if (entry.first == flow) return entry.second;
  }
  return LinkFlowCounters{};
}

void Link::bind(obs::Hub& hub, const std::string& prefix, std::int32_t hop) {
  flight_ = hub.flight();
  flight_hop_ = hop;
  if (prefix.empty()) return;
  m_arrivals_ = hub.counter(prefix + ".arrivals");
  m_drops_ = hub.counter(prefix + ".drops");
  m_delivered_ = hub.counter(prefix + ".delivered");
  if (aqm_) m_early_drops_ = hub.counter(prefix + ".early_drops");
  if (obs::Gauge* depth = hub.gauge(prefix + ".queue_depth")) {
    depth->set_sampler([this] { return static_cast<double>(qdisc_->len()); });
  }
  event_log_ = hub.events();
  ts_delivered_ = hub.channel(prefix + ".delivered");
  ts_drops_ = hub.channel(prefix + ".drops");
  ts_queue_ = hub.channel(prefix + ".queue_depth");
  if (mode_ == Mode::kLazy && bound()) {
    throw std::logic_error{"bind: a sink on a lazy link"};
  }
}

double Link::utilization(SimTime elapsed) const {
  if (elapsed.ns() <= 0) return 0.0;
  SimTime busy = busy_time_;
  if (mode_ == Mode::kLazy) {
    // Queued packets have not started: their tx time is not busy yet.
    SimTime queued = SimTime::zero();
    lazy_ahead(&queued);
    busy = busy - queued;
  }
  return busy.to_seconds() / elapsed.to_seconds();
}

}  // namespace dmp

#include "net/link.hpp"

#include <algorithm>
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

std::size_t Link::flow_probe(FlowId flow) const {
  // Fibonacci hashing: flow ids are small and often consecutive.
  const std::size_t mask = flow_index_.size() - 1;
  std::size_t at = ((std::size_t{flow} * 0x9E3779B97F4A7C15ULL) >> 40) & mask;
  while (flow_index_[at] != 0 && per_flow_[flow_index_[at] - 1].first != flow) {
    at = (at + 1) & mask;
  }
  return at;
}

LinkFlowCounters& Link::flow_slot(FlowId flow) {
  std::size_t at = flow_probe(flow);
  if (flow_index_[at] != 0) return per_flow_[flow_index_[at] - 1].second;
  per_flow_.emplace_back(flow, LinkFlowCounters{});
  if (per_flow_.size() * 2 > flow_index_.size()) {
    flow_index_.assign(flow_index_.size() * 2, 0);
    for (std::size_t i = 0; i < per_flow_.size(); ++i) {
      flow_index_[flow_probe(per_flow_[i].first)] =
          static_cast<std::uint32_t>(i + 1);
    }
  } else {
    flow_index_[at] = static_cast<std::uint32_t>(per_flow_.size());
  }
  return per_flow_.back().second;
}

void Link::record_flight(SimTime at, const Packet& p,
                         obs::FlightEventKind kind, std::size_t queue_depth,
                         obs::DropCause cause) const {
  obs::FlightEvent e;
  e.t_ns = at.ns();
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
  if (ts_drops_) ts_drops_->bump(sched_.now());
  if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
    if (aqm_) {
      event_log_->record(
          sched_.now().to_seconds(), obs::Severity::kWarn, "drop",
          {obs::EventField::num("flow", victim.flow),
           obs::EventField::num("seq", victim.seq),
           obs::EventField::num("queue", queue_length()),
           obs::EventField::text("cause",
                                 std::string(qdisc_drop_reason_name(reason)))});
    } else {
      event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                         "drop",
                         {obs::EventField::num("flow", victim.flow),
                          obs::EventField::num("seq", victim.seq),
                          obs::EventField::num("queue", queue_length())});
    }
  }
  if (flight_ && victim.app_tag >= 0) {
    record_flight(sched_.now(), victim, obs::FlightEventKind::kLinkDrop,
                  queue_length(),
                  aqm_ ? (reason == QdiscDropReason::kEarly
                              ? obs::DropCause::kEarly
                              : obs::DropCause::kOverlimit)
                       : obs::DropCause::kNone);
  }
}

void Link::unhook_receiver() {
  if (feeds_next_) {
    throw std::logic_error{"set_receiver: the hop is fused"};
  }
  if (next_link_ != nullptr) --next_link_->upstream_links_;
  next_link_ = nullptr;
  next_demux_ = nullptr;
  receiver_ = nullptr;
}

void Link::set_receiver(PacketHandler receiver) {
  unhook_receiver();
  receiver_ = std::move(receiver);
}

void Link::set_receiver(Link* next) {
  if (next->fed_) {
    throw std::logic_error{
        "set_receiver: a second upstream for a link fed virtually"};
  }
  unhook_receiver();
  ++next->upstream_links_;
  next_link_ = next;
}

void Link::set_receiver(FlowDemux* demux) {
  unhook_receiver();
  next_demux_ = demux;
}

void Link::set_lazy_allowed(bool allowed) {
  if (mode_ == Mode::kLazy && !allowed) {
    throw std::logic_error{"link is already lazy"};
  }
  lazy_allowed_ = allowed;
}

// What must act at a tx-done as it happens — AQM dequeue decisions —
// keeps the eager path.  A drop-tail buffer's drop test needs only the
// queue length at arrival, which the departure FIFO holds, and a declared
// fault only bounds how far ahead departures are admitted.
bool Link::lazy_eligible() const {
  return lazy_allowed_ && droptail_ != nullptr && !sched_.links_eager();
}

// Decided once, at the first arrival: by then the owner has bound every
// sink and declared every fault target.
void Link::decide_mode() {
  mode_ = lazy_eligible() ? Mode::kLazy : Mode::kEager;
  if (mode_ == Mode::kLazy) fuse_receiver();
}

// A virtual arrival skips the drop test, hence unbounded only.  The link
// decides its own receiver at the same time.
bool Link::feed_virtually() {
  if (mode_ != Mode::kUndecided || config_.buffer_packets != 0 ||
      fault_path_ || !lazy_eligible()) {
    return false;
  }
  mode_ = Mode::kLazy;
  fed_ = true;
  fuse_receiver();
  return true;
}

// The hop into the receiver fuses when the receiver is fed by this link
// alone (its only upstream link, declared upstream-only) and can be fed
// virtually: its arrivals are then exactly this link's deliveries, in FIFO
// order, known at admission.
void Link::fuse_receiver() {
  Link* next = next_link_;
  if (next != nullptr && !real_hop_ && next->upstream_only_ &&
      next->upstream_links_ == 1 && next->feed_virtually()) {
    feeds_next_ = true;
  }
}

// The eager link starts a packet at its arrival when the transmitter is
// idle, else at its predecessor's tx-done, and claims the delivery key
// then the successor's tx-done key inside that tx-done.  The lazy link
// reproduces exactly that: it is busy iff a tx-done lies ahead, and then
// this packet's tx-done key is the newest one's successor claim
// (virtual_seq(., 1)); otherwise it claims a real seq now, as
// start_transmission's post would.  The tx-dones still ahead beyond the
// one on the wire are the eager queue, so a finite buffer drops exactly
// when the eager qdisc would, through the same counters.
void Link::send_lazy(const Packet& p) {
  ++total_arrivals_;
  ++flow_slot(p.flow).arrivals;
  if (fault_path_) [[unlikely]] {
    send_faulted(p);
    return;
  }
  const std::size_t ahead = pass_departures();
  if (config_.buffer_packets != 0 && ahead > config_.buffer_packets) {
    droptail_->reject(p);
    return;
  }
  const SimTime tx = tx_time(p.size_bytes);
  if (ahead == 0) {
    admit(p, sched_.now() + tx, sched_.claim_seq(), tx, sched_.now());
  } else {
    const Departure& last = departures_.back();
    admit(p, last.when + tx, Scheduler::virtual_seq(last.vid, 1), tx,
          last.when);
  }
  if (replay_) [[unlikely]] trace_admitted(p, sched_.now(), 0);
}

// A lazy link that faults reach (docs/DES_ENGINE.md, "Lazy links under
// faults").  Every fault at or before this nanosecond has popped, so the
// link's down state and burst count are the eager link's at this arrival.
// What lies ahead, admitted or parked, is the eager queue plus the packet
// on the wire (an up link always transmits the first of them).  A packet
// that finds nothing parked starts now or at the newest departure, as in
// send_lazy; behind a parked packet it waits its turn.
void Link::send_faulted(const Packet& p) {
  if (down_ || burst_remaining_ > 0) {
    fault_drop(p);
    return;
  }
  const SimTime now = sched_.now();
  const SimTime horizon = fault_horizon();
  if (horizon <= now) {
    throw std::logic_error{"link arrival after a declared fault's time "
                           "before the fault ran"};
  }
  const std::size_t ahead = pass_departures() + parked();
  if (config_.buffer_packets != 0 && ahead > config_.buffer_packets) {
    droptail_->reject(p);
    return;
  }
  if (parked() == 0) {
    const SimTime tx = tx_time(p.size_bytes);
    Started s{now, now + tx, 0, tx};
    if (ahead == 0) {
      s.sigma = sched_.claim_seq();
    } else {
      const Departure& last = departures_.back();
      s = Started{last.when, last.when + tx,
                  Scheduler::virtual_seq(last.vid, 1), tx};
    }
    if (s.when < horizon) {
      admit_started(p, s);
    } else {
      parked_.push_back(p);
      head_ = s;
      sched_.use_claim(s.sigma);
    }
  } else {
    parked_.push_back(p);
  }
  if (replay_) [[unlikely]] trace_admitted(p, now, 0);
}

void Link::start_head(SimTime start, std::uint64_t sigma) {
  const SimTime tx = tx_time(parked_[parked_head_].size_bytes);
  head_ = Started{start, start + tx, sigma, tx};
  sched_.use_claim(sigma);  // the eager tx-done that starts it claims it
}

// A departure is admitted only before the next declared fault: no later
// fault can change it then, and no virtual event is ever taken back.  The
// admitted packet's successor starts at its tx-done unless the link is
// down, which freezes the queue as the eager tx-done does.
void Link::resume() {
  const SimTime horizon = fault_horizon();
  while (head_ && head_->when < horizon) {
    const Started s = *head_;
    head_.reset();
    admit_started(parked_[parked_head_++], s);
    if (parked() == 0) {
      parked_.clear();
      parked_head_ = 0;
    } else if (!down_) {
      const Departure& last = departures_.back();
      start_head(last.when, Scheduler::virtual_seq(last.vid, 1));
    }
  }
  // A link that never drains its parked list drops the admitted prefix.
  if (parked_head_ >= 64 && parked_head_ * 2 >= parked_.size()) {
    parked_.erase(parked_.begin(),
                  parked_.begin() + static_cast<std::ptrdiff_t>(parked_head_));
    parked_head_ = 0;
  }
}

void Link::admit_started(const Packet& p, const Started& s) {
  const SimTime when = s.when + config_.prop_delay;
  if (feeds_next_ || deliveries_head_ == deliveries_.size() ||
      !(when < deliveries_.back().when)) [[likely]] {
    admit(p, s.when, s.sigma, s.tx, s.start);
    return;
  }
  // A shrunk delay: the delivery undercuts the FIFO tail, so it takes a
  // one-entry post, as the eager link's does, under its own key.
  const std::uint64_t vid =
      sched_.add_virtual(s.when, s.sigma, 1, EventCategory::kLinkTx);
  departures_.push_back(Departure{s.when, vid, s.tx, p.flow});
  ahead_tx_ += s.tx;
  busy_time_ += s.tx;
  sched_.keep_lookback((when - s.start) * 2 + SimTime::millis(10));
  sched_.post_key(
      when, Scheduler::virtual_seq(vid, 0),
      [this, p, vid] {
        std::uint64_t hint = 0;
        sched_.settle_virtual(vid, &hint);
        deliver(p);
      },
      EventCategory::kLinkDelivery);
}

// The source's emission pop would hand the packet over exactly as an
// upstream delivery pop does; its key is the real seq the eager sender
// claims for it, at the same point.
bool Link::send_at(SimTime when, const Packet& p) {
  if (upstream_links_ != 0) return false;
  if (!fed_) {
    if (!feed_virtually()) return false;
    upstream_only_ = true;  // its source feeds it alone from now on
  }
  arrive_virtual(p,
                 sched_.add_virtual(when, sched_.claim_seq(), 0,
                                    EventCategory::kTcpSend),
                 when, sched_.now());
  return true;
}

// The arrival pop would hand the packet over and, if this link is idle,
// claim its tx-done key (the arrival's claim 0).  Idle means the newest
// tx-done passes before the arrival: both lie ahead, so their keys decide.
void Link::arrive_virtual(const Packet& p, std::uint64_t arrival,
                          SimTime when, SimTime chain_start) {
  ++total_arrivals_;
  ++flow_slot(p.flow).arrivals;
  const SimTime tx = tx_time(p.size_bytes);
  const Departure* last =
      pass_departures() != 0 ? &departures_.back() : nullptr;
  if (last != nullptr &&
      (last->when > when ||
       (last->when == when && sched_.virtual_before(arrival, last->vid)))) {
    admit(p, last->when + tx, Scheduler::virtual_seq(last->vid, 1), tx,
          chain_start);
  } else {
    admit(p, when + tx, Scheduler::virtual_seq(arrival, 0), tx, chain_start);
  }
  if (replay_) [[unlikely]] trace_admitted(p, when, arrival);
}

// Keeps what the replay needs of an admitted packet.  An arrival on a link
// fed virtually is ordered against the tx-done at its nanosecond now,
// while both keys are recent; the new departure is later than both.
void Link::trace_admitted(const Packet& p, SimTime when,
                          std::uint64_t arrival) {
  bool first = false;
  if (fed_) {
    std::size_t i = departures_.size() - 1;
    while (i > departed_ && departures_[i - 1].when > when) --i;
    first = i > departed_ && departures_[i - 1].when == when &&
            sched_.virtual_before(arrival, departures_[i - 1].vid);
  }
  traced_.push_back(Traced{p, when, first});
  if (!fed_) observe_arrival(traced_.size() - 1);
}

// The delivery is keyed by the virtual tx-done's claim 0: a real FIFO
// entry, or on a fused hop a virtual delivery event whose arrival the
// receiver takes at once.  Lookups reach back at most twice the delay from
// the chain's first transmission start to its real delivery, plus a tx
// time per same-nanosecond tie along a busy period (docs/DES_ENGINE.md).
void Link::admit(const Packet& p, SimTime departure, std::uint64_t sigma,
                 SimTime tx, SimTime chain_start) {
  const std::uint64_t vid =
      sched_.add_virtual(departure, sigma, 1, EventCategory::kLinkTx);
  departures_.push_back(Departure{departure, vid, tx, p.flow});
  ahead_tx_ += tx;
  busy_time_ += tx;

  const SimTime when = departure + config_.prop_delay;
  const std::uint64_t seq = Scheduler::virtual_seq(vid, 0);
  if (feeds_next_) {
    next_link_->arrive_virtual(
        p, sched_.add_virtual(when, seq, 0, EventCategory::kLinkDelivery),
        when, chain_start);
    return;
  }
  sched_.keep_lookback((when - chain_start) * 2 + SimTime::millis(10));
  const bool was_empty = deliveries_head_ == deliveries_.size();
  deliveries_.push_back(PendingDelivery{when, seq, pool_.acquire(p)});
  if (was_empty) sched_.arm_key(when, seq, delivery_port_id_);
}

std::size_t Link::pass_departures() const {
  // Tx-done keys increase along the FIFO, so the passed ones are a prefix.
  const SimTime now = sched_.now();
  while (departed_ < departures_.size()) {
    const Departure& d = departures_[departed_];
    if (d.when > now || (d.when == now && sched_.virtual_ahead(d.vid))) break;
    ahead_tx_ -= d.tx;
    ++departed_;
  }
  if (replay_) [[unlikely]] replay_passed();
  // A link that stays busy never empties its FIFO: drop the passed half.
  if (departed_ == departures_.size() ||
      (departed_ >= 256 && departed_ * 2 >= departures_.size())) {
    const auto passed = static_cast<std::ptrdiff_t>(departed_);
    departures_.erase(departures_.begin(), departures_.begin() + passed);
    if (replay_) [[unlikely]] {
      traced_.erase(traced_.begin(), traced_.begin() + passed);
      obs_started_ -= departed_;
      obs_arrived_ -= departed_;
      obs_done_ = 0;
    }
    departed_ = 0;
  }
  return departures_.size() - departed_;
}

// The eager link at an arrival: an idle link (every packet started has
// passed its tx-done) with an empty queue puts it on the wire at once.
void Link::observe_arrival(std::size_t i) const {
  const Traced& a = traced_[i];
  const std::size_t depth = obs_arrived_++ - obs_started_;
  const bool idle = depth == 0 && obs_started_ == obs_done_;
  if (idle) ++obs_started_;
  if (flight_ != nullptr && a.p.app_tag >= 0) {
    record_flight(a.arrived, a.p, obs::FlightEventKind::kLinkEnqueue, depth);
    if (idle) {
      record_flight(a.arrived, a.p, obs::FlightEventKind::kLinkDequeue, 0);
    }
  }
  if (!idle && ts_queue_) {
    ts_queue_->add(a.arrived, static_cast<double>(depth + 1));
  }
}

// The eager link at each passed tx-done: the transmitter takes the queue's
// head.  On a link fed virtually the arrivals before it come first.
void Link::replay_passed() const {
  for (; obs_done_ < departed_; ++obs_done_) {
    const Departure& d = departures_[obs_done_];
    if (fed_) observe_arrivals(&d);
    if (ts_delivered_) ts_delivered_->bump(d.when);
    // A down link's queue stays frozen past the tx-done.
    if (down_ || obs_started_ == obs_arrived_) continue;
    const Packet& next = traced_[obs_started_++].p;
    const std::size_t depth = obs_arrived_ - obs_started_;
    if (flight_ != nullptr && next.app_tag >= 0) {
      record_flight(d.when, next, obs::FlightEventKind::kLinkDequeue, depth);
    }
    if (ts_queue_) ts_queue_->add(d.when, static_cast<double>(depth));
  }
  if (fed_) observe_arrivals(nullptr);
}

// A packet's virtual arrival is the event added just before its tx-done.
void Link::observe_arrivals(const Departure* before) const {
  const SimTime now = sched_.now();
  for (; obs_arrived_ < traced_.size(); observe_arrival(obs_arrived_)) {
    const Traced& a = traced_[obs_arrived_];
    if (before != nullptr ? a.arrived > before->when ||
                                (a.arrived == before->when && !a.first)
                          : a.arrived > now ||
                                (a.arrived == now &&
                                 sched_.virtual_ahead(
                                     departures_[obs_arrived_].vid - 1))) {
      return;
    }
  }
}

std::size_t Link::arrivals_ahead(const FlowId* flow) const {
  if (!fed_) return 0;
  // Arrivals come in departure order, so the ones still ahead are a suffix
  // of the tx-dones still ahead.  A packet's virtual arrival (a delivery
  // or an emission) is the event recorded just before its tx-done.
  const std::size_t ahead = pass_departures();
  const std::size_t end = departures_.size() - ahead;
  std::size_t n = 0;
  for (std::size_t i = departures_.size(); i > end; --i) {
    const Departure& d = departures_[i - 1];
    if (!sched_.virtual_ahead(d.vid - 1)) break;
    if (flow == nullptr || d.flow == *flow) ++n;
  }
  return n;
}

std::size_t Link::queue_length() const {
  if (mode_ != Mode::kLazy) return qlen();
  // The first arrived packet is on the wire, unless a down link froze it
  // unstarted in the parked queue.
  const std::size_t ahead = pass_departures();
  const std::size_t arrived = ahead - arrivals_ahead() + parked();
  const bool on_wire = ahead > 0 || head_.has_value();
  return arrived > 0 && on_wire ? arrived - 1 : arrived;
}

std::uint64_t Link::total_arrivals() const {
  return total_arrivals_ - arrivals_ahead();
}

std::uint64_t Link::total_delivered() const {
  if (mode_ != Mode::kLazy) return total_delivered_;
  // Every packet not dropped whose tx-done has passed.
  return total_arrivals_ - total_drops_ - fault_drops_ - pass_departures() -
         parked();
}

void Link::send(const Packet& p) {
  if (upstream_only_) {
    throw std::logic_error{"send: the link is fed by its upstream only"};
  }
  arrive(p);
}

void Link::arrive(const Packet& p) {
  if (mode_ != Mode::kEager) {
    if (mode_ == Mode::kUndecided) decide_mode();
    if (mode_ == Mode::kLazy) {
      send_lazy(p);
      return;
    }
  }
  ++total_arrivals_;
  ++flow_slot(p.flow).arrivals;

  if (down_ || burst_remaining_ > 0) {
    fault_drop(p);
    return;
  }

  // Idle bypass: an empty queue and a free transmitter put the packet
  // straight on the wire — no discipline consulted, exactly like the
  // pre-qdisc link (AQM only shapes a standing queue).
  if (!transmitting_ && qlen() == 0) {
    if (flight_ && p.app_tag >= 0) {
      record_flight(sched_.now(), p, obs::FlightEventKind::kLinkEnqueue, 0);
    }
    start_transmission(p);
    return;
  }

  const std::size_t depth = qlen();
  if (!q_enqueue(p, sched_.now())) return;  // dropped + reported
  if (flight_ && p.app_tag >= 0) {
    // Pre-push depth, matching the legacy record-before-enqueue order.
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkEnqueue, depth);
  }
  if (ts_queue_) {
    ts_queue_->add(sched_.now(), static_cast<double>(qlen()));
  }
}

// Injected faults discard on arrival.  These are not congestion drops: they
// bypass the qdisc (and its counters) entirely so the measured p_k keeps
// meaning "congestion loss", and are tallied in fault_drops_ instead —
// fault_drops() stays disjoint from total_drops() under every discipline.
void Link::fault_drop(const Packet& p) {
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
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkDrop,
                  queue_length());
  }
}

void Link::start_transmission(const Packet& p) {
  if (flight_ && p.app_tag >= 0) {
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkDequeue,
                  qlen());
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
    const std::uint64_t seq = sched_.claim_seq();
    const bool was_empty = deliveries_head_ == deliveries_.size();
    deliveries_.push_back(
        PendingDelivery{when, seq, pool_.acquire(in_flight_)});
    if (was_empty) sched_.arm_key(when, seq, delivery_port_id_);
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
  if (deliveries_head_ < deliveries_.size()) {
    const PendingDelivery& next = deliveries_[deliveries_head_];
    sched_.arm_key(next.when, next.seq, delivery_port_id_);
  } else {
    deliveries_.clear();
    deliveries_head_ = 0;
  }
  if (mode_ == Mode::kLazy) {
    sched_.settle_virtual(Scheduler::virtual_id(head.seq), &settle_hint_);
  }
  deliver(pool_.take(head.ref));
}

void Link::deliver(const Packet& p) {
  if (next_link_ != nullptr) {
    next_link_->arrive(p);
  } else if (next_demux_ != nullptr) {
    next_demux_->deliver(p);
  } else if (receiver_) {
    receiver_(p);
  }
}

void Link::declare_fault(SimTime at) {
  if (mode_ != Mode::kUndecided) {
    throw std::logic_error{"declare_fault after the first send"};
  }
  fault_times_.insert(
      std::upper_bound(fault_times_.begin(), fault_times_.end(), at), at);
  fault_path_ = true;
}

void Link::declare_fault(SimTime at, double delay_factor) {
  declare_fault(at);
  // A delivery after a shrink could overtake one already in flight, which
  // a receiver fed virtually cannot take.
  if (delay_factor < max_delay_factor_) real_hop_ = true;
  max_delay_factor_ = std::max(max_delay_factor_, delay_factor);
}

bool Link::lazy_fault_hook(const char* hook) {
  if (mode_ == Mode::kEager ||
      (mode_ == Mode::kUndecided && !lazy_eligible())) {
    return false;
  }
  if (fault_horizon() != sched_.now()) {
    throw std::logic_error{std::string(hook) +
                           " on a lazy link at an undeclared time"};
  }
  ++next_fault_;
  pass_departures();  // the bound replay sees the state before the hook
  return true;
}

void Link::drop_next(std::uint64_t count) {
  if (fed_) throw std::logic_error{"drop_next on a link fed virtually"};
  fault_path_ = true;
  burst_remaining_ += count;
}

void Link::set_down(bool down) {
  if (lazy_fault_hook("set_down")) {
    down_ = down;
    if (!down_ && !head_ && parked() != 0) {
      // A raised link starts its frozen queue's head now, claiming the
      // tx-done key where the eager start_transmission does.
      if (replay_) [[unlikely]] {
        const Packet& next = traced_[obs_started_++].p;
        if (flight_ != nullptr && next.app_tag >= 0) {
          record_flight(sched_.now(), next, obs::FlightEventKind::kLinkDequeue,
                        obs_arrived_ - obs_started_);
        }
      }
      start_head(sched_.now(), sched_.claim_seq());
    }
    resume();
    return;
  }
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
  const bool lazy = lazy_fault_hook("rescale");
  config_.bandwidth_bps = base_config_.bandwidth_bps * bw_factor;
  config_.prop_delay = SimTime::nanos(static_cast<std::int64_t>(
      static_cast<double>(base_config_.prop_delay.ns()) * delay_factor));
  tx_cache_bytes_ = -1;  // bandwidth changed: drop the cached tx time
  // PIE's queue-delay estimate tracks the rescaled drain rate.
  qdisc_->set_drain_rate(config_.bandwidth_bps);
  // The packet on the wire keeps its tx time and takes the new delay.
  if (lazy) resume();
}

LinkFlowCounters Link::flow_counters(FlowId flow) const {
  const std::uint32_t slot = flow_index_[flow_probe(flow)];
  if (slot == 0) return LinkFlowCounters{};
  LinkFlowCounters counters = per_flow_[slot - 1].second;
  counters.arrivals -= arrivals_ahead(&flow);
  return counters;
}

void Link::bind(obs::Hub& hub, const std::string& prefix, std::int32_t hop) {
  flight_ = hub.flight();
  flight_hop_ = hop;
  if (!prefix.empty()) {
    const auto counter = [&hub, &prefix](const char* name, auto read) {
      if (obs::Counter* c = hub.counter(prefix + name)) c->set_sampler(read);
    };
    counter(".arrivals", [this] { return total_arrivals(); });
    counter(".drops", [this] { return total_drops(); });
    counter(".delivered", [this] { return total_delivered(); });
    if (aqm_) {
      counter(".early_drops",
              [this] { return qdisc_->counters().early_drops; });
    }
    if (obs::Gauge* depth = hub.gauge(prefix + ".queue_depth")) {
      depth->set_sampler(
          [this] { return static_cast<double>(queue_length()); });
    }
    event_log_ = hub.events();
    ts_delivered_ = hub.channel(prefix + ".delivered");
    ts_drops_ = hub.channel(prefix + ".drops");
    ts_queue_ = hub.channel(prefix + ".queue_depth");
  }
  if (replay_ || (flight_ == nullptr && ts_queue_ == nullptr)) return;
  // The replay starts from the first send.
  if (mode_ == Mode::kLazy) throw std::logic_error{"bind: a lazy link in use"};
  replay_ = true;
  sched_.at_run_end(sched_.register_port(&Link::catch_up_port, this));
}

double Link::utilization(SimTime elapsed) const {
  if (elapsed.ns() <= 0) return 0.0;
  SimTime busy = busy_time_;
  if (mode_ == Mode::kLazy) {
    // Packets queued or not yet arrived have not started: their tx time is
    // not busy yet.  The first arrived one ahead is on the wire.
    const std::size_t ahead = pass_departures();
    const std::size_t arrived = ahead - arrivals_ahead();
    SimTime unstarted = ahead_tx_;
    if (arrived > 0) unstarted = unstarted - departures_[departed_].tx;
    busy = busy - unstarted;
    // With nothing admitted ahead, a started parked head is on the wire.
    if (ahead == 0 && head_) busy = busy + head_->tx;
  }
  return busy.to_seconds() / elapsed.to_seconds();
}

}  // namespace dmp

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
      aqm_(!config.qdisc.droptail()),
      core_(CoreClock{this}, config.buffer_packets) {
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
  tx_done_port_id_ = sched_.register_port(&Link::port<&Link::on_transmit_done>,
                                          this, EventCategory::kLinkTx);
  delivery_port_id_ = sched_.register_port(&Link::port<&Link::on_delivery>,
                                           this, EventCategory::kLinkDelivery);
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
  flight_->record(obs::FlightEvent{
      .t_ns = at.ns(), .kind = kind, .packet = p.app_tag,
      .path = static_cast<std::int32_t>(p.flow), .hop = flight_hop_,
      .seq = p.seq, .queue = static_cast<std::int64_t>(queue_depth),
      .drop = cause});
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
    const double t = sched_.now().to_seconds();
    const auto flow = obs::EventField::num("flow", victim.flow);
    const auto seq = obs::EventField::num("seq", victim.seq);
    const auto queue = obs::EventField::num("queue", queue_length());
    if (aqm_) {
      const auto cause = obs::EventField::text(
          "cause", std::string(qdisc_drop_reason_name(reason)));
      event_log_->record(t, obs::Severity::kWarn, "drop",
                         {flow, seq, queue, cause});
    } else {
      event_log_->record(t, obs::Severity::kWarn, "drop", {flow, seq, queue});
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

// A link fed virtually has taken its arrivals up to its lookahead ahead of
// the clock: a new upstream link must feed it virtually too, and deliver
// nothing before what it has taken.  A link its source feeds takes no
// upstream link.
void Link::set_receiver(Link* next) {
  const SimTime prop = base_config_.prop_delay;
  if (next->fed_ &&
      (next->upstream_links_ == 0 || !lazy_eligible() ||
       mode_ != Mode::kUndecided || real_hop_ || prop <= SimTime::zero() ||
       sched_.now() + prop <= next->taken_until_)) {
    throw std::logic_error{
        "set_receiver: an upstream link that cannot feed a link fed "
        "virtually"};
  }
  unhook_receiver();
  ++next->upstream_links_;
  next->min_upstream_prop_ = std::min(next->min_upstream_prop_, prop);
  next_link_ = next;
}

void Link::set_receiver(FlowDemux* demux) {
  unhook_receiver();
  next_demux_ = demux;
}

// What must act at a tx-done as it happens — AQM dequeue decisions —
// keeps the eager path.  A drop-tail buffer's drop test needs only the
// queue length at arrival, which the departure core holds, and a declared
// fault only bounds how far ahead departures are admitted.
bool Link::lazy_eligible() const {
  return droptail_ != nullptr && !sched_.links_eager();
}

// Several upstream links need a positive least delay: it is how far ahead
// their deliveries are final.  The link decides its own receiver at the
// same time.
bool Link::feed_virtually() {
  if (mode_ != Mode::kUndecided || !lazy_eligible() ||
      (upstream_links_ > 1 && min_upstream_prop_ <= SimTime::zero())) {
    return false;
  }
  mode_ = Mode::kLazy;
  fed_ = true;
  drain_port_id_ = sched_.register_port(&Link::port<&Link::on_watch>, this);
  report_port_id_ =
      sched_.register_port(&Link::port<&Link::report_drop>, this);
  fuse_receiver();
  return true;
}

// The hop into the receiver fuses when the receiver is fed by its
// upstream links alone (declared upstream-only) and can be fed virtually:
// its arrivals are then exactly their deliveries, in key order.
void Link::fuse_receiver() {
  Link* next = next_link_;
  if (next != nullptr && !real_hop_ && next->upstream_only_ &&
      (next->fed_ || next->feed_virtually())) {
    feeds_next_ = true;
  }
}

// The eager link starts a packet at its arrival when the transmitter is
// idle, else at its predecessor's tx-done, and claims the delivery key
// then the successor's tx-done key inside that tx-done.  The lazy link
// reproduces exactly that: it is busy iff a tx-done lies after the
// arrival's key, and then this packet's tx-done key is the newest one's
// successor claim (virtual_seq(., 1)); otherwise it claims a key where
// the arrival pop would: a real seq now, or a virtual arrival's claim 0.
// The core's drops are the eager qdisc's, counted through the same
// counters (a virtual arrival's once the clock reaches it).  Under faults
// (docs/DES_ENGINE.md, "Lazy links under faults") a packet the core does
// not admit before the next declared fault waits for it, parked.
void Link::arrive_lazy(const Packet& p, SimTime when, std::uint64_t arrival,
                       SimTime chain_start) {
  const bool real = arrival == Core::kAtClock;
  const Core::Offer o = core_.offer(sched_.now(), when, arrival);
  if (o.verdict < Core::Verdict::kPark) [[unlikely]] {
    const bool fault = o.verdict != Core::Verdict::kFull;
    if (!real) {
      defer_drop(p, arrival, fault, o.verdict == Core::Verdict::kBurst);
      return;
    }
    count_arrival(p);
    if (fault) {
      fault_drop(p);
    } else {
      droptail_->reject(p);
    }
    return;
  }
  count_arrival(p);
  const std::size_t before = core_.departures().size();
  const Core::Parked x{p, when, arrival};
  if (o.verdict == Core::Verdict::kPark) [[unlikely]] {
    core_.park(x);
  } else {
    const SimTime tx = tx_time(p.size_bytes);
    const std::uint64_t sigma =
        o.after != Core::kAtClock ? Scheduler::virtual_seq(o.after, 1)
        : real                  ? sched_.claim_seq()
                                : Scheduler::virtual_seq(arrival, 0);
    const Core::Started s{o.start, o.start + tx, sigma, tx,
                          real ? o.start : chain_start};
    if (core_.start(x, s)) [[likely]] {
      admit(p, s, arrival);
    } else {
      sched_.use_claim(sigma);
    }
  }
  if (replay_) [[unlikely]] trace_admitted(p, when, arrival, before);
}

void Link::start_head(const Packet& p, SimTime start, std::uint64_t sigma) {
  core_.start_head(start, sigma, tx_time(p.size_bytes));
  sched_.use_claim(sigma);  // the eager tx-done that starts it claims it
}

// A departure is admitted only before the next declared fault: no later
// fault can change it then, and no virtual event is ever taken back.
void Link::resume() {
  core_.resume(
      [this](const Packet& p, const Core::Started& s) {
        admit(p, s, Core::kAtClock);
      },
      [this](const Packet& next, const Core::Departure& last) {
        start_head(next, last.when, Scheduler::virtual_seq(last.id, 1));
      });
  // The fault pops at the clock: deliveries before the clock plus the
  // lookahead are final.
  if (fed_) drain(final_before(sched_.now()));
}

// The source's emission pop would hand the packet over exactly as an
// upstream delivery pop does; its key is the real seq the eager sender
// claims for it, at the same point.  The emissions come in key order, so
// each is taken at once, by an unbounded link out of faults' reach.
bool Link::send_at(SimTime when, const Packet& p) {
  if (!take_source()) return false;
  arrive_lazy(p, when,
              sched_.add_virtual(when, sched_.claim_seq(), 0,
                                 EventCategory::kTcpSend),
              sched_.now());
  return true;
}

bool Link::take_source() {
  if (upstream_links_ != 0) return false;
  if (fed_) return true;
  if (config_.buffer_packets != 0 || core_.declared() || !feed_virtually()) {
    return false;
  }
  upstream_only_ = true;  // its source feeds it alone from now on
  return true;
}

// An upstream link admits a packet at the clock and delivers it at least
// its delay later, so once no pop before a time T remains, every delivery
// keyed before T + L (L the least upstream delay) is known; with one
// upstream link every delivery is known once it is made, since they come
// in key order.  Held deliveries are taken in key order (the scheduler's
// tie rule orders same-nanosecond ones), each as a virtual delivery event
// at its key, before the first pop at or after the earliest one.
void Link::take(const Packet& p, SimTime when, std::uint64_t seq,
                SimTime chain_start) {
  // One upstream link's delivery is final once made.  While the scheduler
  // runs it is taken at once, as drain() would take it; between runs the
  // owner may still attach another upstream link (set_receiver refuses one
  // that could deliver before it).
  if (upstream_links_ == 1 && inbox_.empty() && when < core_.horizon() &&
      sched_.running()) {
    taken_until_ = when;
    arrive_lazy(p, when,
                sched_.add_virtual(when, seq, 0, EventCategory::kLinkDelivery),
                chain_start);
    return;
  }
  inbox_.push(Inbound{when, seq, chain_start, p});
  std::size_t i = inbox_.size() - 1;
  for (; i > 0; --i) {
    const Inbound& prev = inbox_[i - 1];
    if (prev.when < when ||
        (prev.when == when &&
         !sched_.virtual_before(Scheduler::virtual_id(seq),
                                Scheduler::virtual_id(prev.seq)))) {
      break;
    }
    std::swap(inbox_[i], inbox_[i - 1]);
  }
  if (i == 0) rewatch();
}

void Link::drain(SimTime bound) {
  while (!inbox_.empty()) {
    const Inbound in = inbox_.front();
    if (!(in.when < bound && in.when < core_.horizon())) break;
    inbox_.pop();
    taken_until_ = in.when;
    arrive_lazy(in.p, in.when,
                sched_.add_virtual(in.when, in.seq, 0,
                                   EventCategory::kLinkDelivery),
                in.chain_start);
  }
  rewatch();
}

// The watch ran before the first pop at or after `watched_`: every pop
// from now on lies at or after it.
void Link::on_watch() {
  const SimTime from = std::exchange(watched_, SimTime::max());
  drain(final_before(from));
}

// Watches the earliest held delivery; one behind the fault horizon waits
// for the fault's pop instead.
void Link::rewatch() {
  SimTime head = SimTime::max();
  if (!inbox_.empty() && inbox_.front().when < core_.horizon()) {
    head = inbox_.front().when;
  }
  if (head == watched_) return;
  watched_ = head;
  if (head == SimTime::max()) {
    sched_.unwatch(drain_port_id_);
  } else {
    sched_.watch(drain_port_id_, head);
  }
}

// Keeps what the replay needs of an admitted packet.  An arrival on a link
// fed virtually is ordered against the tx-done at its nanosecond now,
// while both keys are recent; its own departure is later than both.
void Link::trace_admitted(const Packet& p, SimTime when,
                          std::uint64_t arrival, std::size_t before) {
  bool first = false;
  if (fed_) {
    const Fifo<Core::Departure>& departures = core_.departures();
    std::size_t i = before;
    while (i > 0 && departures[i - 1].when > when) --i;
    first = i > 0 && departures[i - 1].when == when &&
            sched_.virtual_before(arrival, departures[i - 1].id);
  }
  traced_.push(Traced{p, when, first, arrival});
  if (!fed_) observe_arrival(traced_.size() - 1);
}

// The delivery is keyed by the virtual tx-done's claim 0: a real FIFO
// entry, or on a fused hop a virtual delivery event the receiver takes
// once final.  Lookups reach back at most twice the delay from the
// chain's first transmission start to its real delivery, plus a tx time
// per same-nanosecond tie along a busy period (docs/DES_ENGINE.md).
void Link::admit(const Packet& p, const Core::Started& s,
                 std::uint64_t arrival) {
  const std::uint64_t vid =
      sched_.add_virtual(s.when, s.sigma, 1, EventCategory::kLinkTx);
  core_.depart(Core::Departure{s.when, vid, arrival, s.tx, p.flow});

  const SimTime when = s.when + config_.prop_delay;
  const std::uint64_t seq = Scheduler::virtual_seq(vid, 0);
  sched_.keep_lookback((when - s.chain_start) * 2 + SimTime::millis(10));
  if (feeds_next_) {
    next_link_->take(p, when, seq, s.chain_start);
    return;
  }
  if (next_demux_ != nullptr && !real_hop_) {
    if (AheadReceiver* receiver = next_demux_->ahead(p.flow)) {
      hand_over(receiver, p, when, seq, s.chain_start);
      return;
    }
  }
  schedule_delivery(p, when, seq, vid);
}

// A receiver the demux hands deliveries ahead takes each one as the eager
// delivery pop would hand it over: a virtual kLinkDelivery event at the
// delivery's key, in key order (the link admits in FIFO order, and a hop
// whose delay may shrink stays real).  A deadline it arms is keyed by that
// event's claim 0 and is settled by its next delivery; one no delivery
// settles first expires at a watch, before the clock reaches it, when
// every delivery before it has been handed over (a delivery is admitted
// before the clock reaches its arrival here).
void Link::hand_over(AheadReceiver* receiver, const Packet& p, SimTime when,
                     std::uint64_t seq, SimTime chain_start) {
  const std::uint64_t event =
      sched_.add_virtual(when, seq, 0, EventCategory::kLinkDelivery);
  const SimTime deadline = receiver->take(p, when, event, chain_start);
  if (deadline == SimTime::max()) return;
  if (deadline_port_id_ == kNoPort) {
    deadline_port_id_ =
        sched_.register_port(&Link::port<&Link::on_deadline>, this);
  }
  deadlines_.push(Deadline{deadline, event, receiver});
  // Receivers with unequal timeouts arm out of order: insert from the back
  // (a later event orders after an earlier one at one nanosecond).
  std::size_t i = deadlines_.size() - 1;
  for (; i > 0 && deadlines_[i - 1].when > deadline; --i) {
    std::swap(deadlines_[i], deadlines_[i - 1]);
  }
  if (i == 0) sched_.watch(deadline_port_id_, deadline);
}

void Link::on_deadline() {
  const SimTime due = deadlines_.front().when;
  while (!deadlines_.empty() && deadlines_.front().when == due) {
    const Deadline d = deadlines_.front();
    deadlines_.pop();
    if (d.receiver->waits(d.event)) d.receiver->expire();
  }
  watch_deadline();
}

void Link::watch_deadline() {
  while (!deadlines_.empty() &&
         !deadlines_.front().receiver->waits(deadlines_.front().event)) {
    deadlines_.pop();
  }
  if (!deadlines_.empty()) {
    sched_.watch(deadline_port_id_, deadlines_.front().when);
  }
}

// rescale() may shrink the propagation delay under packets already on the
// wire: a delivery that undercuts the FIFO tail takes a one-entry post
// under its key (claimed at the same point either way, so pop order is
// exactly what a FIFO-free scheduler would produce).  Otherwise the
// packet waits in the link's FIFO, which keeps exactly one armed head in
// the queue.
void Link::schedule_delivery(const Packet& p, SimTime when, std::uint64_t seq,
                             std::uint64_t vid) {
  const bool was_empty = deliveries_.empty();
  if (!was_empty && when < deliveries_.back().when) [[unlikely]] {
    sched_.post_key(
        when, seq,
        [this, p, vid] {
          if (mode_ == Mode::kLazy) {
            std::uint64_t hint = 0;
            sched_.settle_virtual(vid, &hint);
          }
          deliver(p);
        },
        EventCategory::kLinkDelivery);
    return;
  }
  deliveries_.push(PendingDelivery{when, seq, p});
  if (was_empty) sched_.arm_key(when, seq, delivery_port_id_);
}

// The eager link at an arrival: an idle link (every packet started has
// passed its tx-done) with an empty queue puts it on the wire at once.
void Link::observe_arrival(std::size_t i) const {
  const Traced& a = traced_[i];
  const std::size_t depth = obs_arrived_++ - obs_started_;
  const bool idle = depth == 0 && obs_started_ == 0;
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
void Link::replay_departure(const Core::Departure* d) const {
  if (fed_) observe_arrivals(d);
  if (d == nullptr) return;
  if (ts_delivered_) ts_delivered_->bump(d->when);
  // A down link's queue stays frozen past the tx-done.
  if (!core_.down() && obs_started_ != obs_arrived_) {
    const Packet& next = traced_[obs_started_++].p;
    const std::size_t depth = obs_arrived_ - obs_started_;
    if (flight_ != nullptr && next.app_tag >= 0) {
      record_flight(d->when, next, obs::FlightEventKind::kLinkDequeue, depth);
    }
    if (ts_queue_) ts_queue_->add(d->when, static_cast<double>(depth));
  }
  traced_.pop();  // d's packet, which has left
  --obs_started_;
  --obs_arrived_;
}

void Link::observe_arrivals(const Core::Departure* before) const {
  const SimTime now = sched_.now();
  for (; obs_arrived_ < traced_.size(); observe_arrival(obs_arrived_)) {
    const Traced& a = traced_[obs_arrived_];
    if (before != nullptr
            ? a.arrived > before->when ||
                  (a.arrived == before->when && !a.first)
            : a.arrived > now ||
                  (a.arrived == now && sched_.virtual_ahead(a.arrival))) {
      return;
    }
  }
}

std::size_t Link::queue_length() const {
  if (mode_ != Mode::kLazy) return qdisc_->len();
  return core_.queued(sched_.now());
}

std::uint64_t Link::total_arrivals() const {
  if (!fed_) return total_arrivals_;
  return total_arrivals_ - core_.arrivals_ahead(sched_.now(), nullptr);
}

std::uint64_t Link::total_delivered() const {
  if (mode_ != Mode::kLazy) return total_delivered_;
  // Every packet not dropped whose tx-done has passed.
  return total_arrivals_ - total_drops_ - fault_drops_ - pass_departures() -
         core_.parked();
}

void Link::send(const Packet& p) {
  if (upstream_only_) {
    throw std::logic_error{"send: the link is fed by its upstream only"};
  }
  arrive(p);
}

void Link::arrive(const Packet& p) {
  if (mode_ != Mode::kEager) {
    // Decided once, at the first arrival: by then the owner has bound every
    // sink and declared every fault target.
    if (mode_ == Mode::kUndecided) {
      mode_ = lazy_eligible() ? Mode::kLazy : Mode::kEager;
      if (mode_ == Mode::kLazy) fuse_receiver();
    }
    if (mode_ == Mode::kLazy) {
      if (fed_) [[unlikely]] {
        throw std::logic_error{"a real delivery into a link fed virtually"};
      }
      arrive_lazy(p, sched_.now(), Core::kAtClock, sched_.now());
      return;
    }
  }
  count_arrival(p);

  if (core_.fault() != Core::Verdict::kStart) {
    fault_drop(p);
    return;
  }

  // Idle bypass: an empty queue and a free transmitter put the packet
  // straight on the wire — no discipline consulted, exactly like the
  // pre-qdisc link (AQM only shapes a standing queue).
  if (!transmitting_ && qdisc_->len() == 0) {
    if (flight_ && p.app_tag >= 0) {
      record_flight(sched_.now(), p, obs::FlightEventKind::kLinkEnqueue, 0);
    }
    start_transmission(p);
    return;
  }

  const std::size_t depth = qdisc_->len();
  if (!qdisc_->enqueue(p, sched_.now())) return;  // dropped + reported
  if (flight_ && p.app_tag >= 0) {
    // Pre-push depth, matching the legacy record-before-enqueue order.
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkEnqueue, depth);
  }
  if (ts_queue_) {
    ts_queue_->add(sched_.now(), static_cast<double>(qdisc_->len()));
  }
}

// Injected faults discard on arrival.  These are not congestion drops: they
// bypass the qdisc (and its counters) entirely so the measured p_k keeps
// meaning "congestion loss", and are tallied in fault_drops_ instead —
// fault_drops() stays disjoint from total_drops() under every discipline.
void Link::fault_drop(const Packet& p) {
  ++fault_drops_;
  if (event_log_ && event_log_->enabled(obs::Severity::kWarn)) {
    event_log_->record(sched_.now().to_seconds(), obs::Severity::kWarn,
                       "fault_drop",
                       {obs::EventField::num("flow", p.flow),
                        obs::EventField::num("seq", p.seq),
                        obs::EventField::num("down", core_.down() ? 1 : 0)});
  }
  if (flight_ && p.app_tag >= 0) {
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkDrop,
                  queue_length());
  }
}

// A virtual arrival is taken ahead of the clock, but the eager link counts
// and records its drop at the arrival pop: the report watches its key.
void Link::defer_drop(const Packet& p, std::uint64_t arrival, bool fault,
                      bool burst) {
  dropped_.push(Dropped{arrival, p, fault, burst});
  if (dropped_.size() == 1) {
    sched_.watch_past(report_port_id_, arrival);
  }
}

// At the dropped arrival's key: the clock is at its time and every key
// before it has passed, as in the eager arrival pop.
void Link::report_drop() {
  const Dropped d = dropped_.front();
  dropped_.pop();
  if (!dropped_.empty()) {
    sched_.watch_past(report_port_id_, dropped_.front().arrival);
  }
  count_arrival(d.p);
  if (d.fault) {
    fault_drop(d.p);
  } else {
    droptail_->reject(d.p);
  }
}

std::uint64_t Link::burst_remaining() const {
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < dropped_.size(); ++i) {
    if (dropped_[i].burst) ++pending;
  }
  return core_.burst() + pending;
}

void Link::start_transmission(const Packet& p) {
  if (flight_ && p.app_tag >= 0) {
    record_flight(sched_.now(), p, obs::FlightEventKind::kLinkDequeue,
                  qdisc_->len());
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
  schedule_delivery(in_flight_, sched_.now() + config_.prop_delay,
                    sched_.claim_seq(), 0);
  transmitting_ = false;
  // A downed link freezes its queue: the packet already on the wire
  // completes, but nothing further dequeues until set_down(false).  CoDel
  // may discard queued heads here and come back empty-handed.
  if (!core_.down()) {
    Packet next;
    if (qdisc_->dequeue(&next, sched_.now())) {
      start_transmission(next);
      if (ts_queue_) {
        ts_queue_->add(sched_.now(), static_cast<double>(qdisc_->len()));
      }
    }
  }
}

void Link::on_delivery() {
  // Pop the FIFO head, re-arm the successor (its key was claimed when it
  // was scheduled, so arming order cannot disturb pop order), then hand the
  // packet downstream.
  const PendingDelivery head = deliveries_.front();
  deliveries_.pop();
  if (!deliveries_.empty()) {
    const PendingDelivery& next = deliveries_.front();
    sched_.arm_key(next.when, next.seq, delivery_port_id_);
  }
  if (mode_ == Mode::kLazy) {
    sched_.settle_virtual(Scheduler::virtual_id(head.seq), &settle_hint_);
  }
  deliver(head.p);
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
  core_.declare_fault(at);
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
  if (!core_.run_fault(sched_.now())) {
    throw std::logic_error{std::string(hook) +
                           " on a lazy link at an undeclared time"};
  }
  pass_departures();  // the bound replay sees the state before the hook
  return true;
}

void Link::drop_next(std::uint64_t count) {
  const bool lazy = lazy_fault_hook("drop_next");
  core_.add_burst(count);
  if (lazy) resume();
}

void Link::set_down(bool down) {
  if (lazy_fault_hook("set_down")) {
    core_.set_down(down);
    if (const Packet* head = core_.stalled()) {
      // A raised link starts its frozen queue's head now, claiming the
      // tx-done key where the eager start_transmission does.
      if (replay_) [[unlikely]] {
        const Packet& next = traced_[obs_started_++].p;
        if (flight_ != nullptr && next.app_tag >= 0) {
          record_flight(sched_.now(), next, obs::FlightEventKind::kLinkDequeue,
                        obs_arrived_ - obs_started_);
        }
      }
      start_head(*head, sched_.now(), sched_.claim_seq());
    }
    resume();
    return;
  }
  core_.set_down(down);
  if (!down && !transmitting_) {
    Packet next;
    if (qdisc_->dequeue(&next, sched_.now())) start_transmission(next);
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
  if (fed_) counters.arrivals -= core_.arrivals_ahead(sched_.now(), &flow);
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
  sched_.at_run_end(
      sched_.register_port(&Link::port<&Link::pass_departures>, this));
}

double Link::utilization(SimTime elapsed) const {
  if (elapsed.ns() <= 0) return 0.0;
  const SimTime busy =
      mode_ == Mode::kLazy ? core_.busy(sched_.now()) : busy_time_;
  return busy.to_seconds() / elapsed.to_seconds();
}

}  // namespace dmp

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
// queue length at arrival, which the departure FIFO holds, and a declared
// fault only bounds how far ahead departures are admitted.
bool Link::lazy_eligible() const {
  return droptail_ != nullptr && !sched_.links_eager();
}

// Decided once, at the first arrival: by then the owner has bound every
// sink and declared every fault target.
void Link::decide_mode() {
  mode_ = lazy_eligible() ? Mode::kLazy : Mode::kEager;
  if (mode_ == Mode::kLazy) fuse_receiver();
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
  drain_port_id_ = sched_.register_port(&Link::drain_port, this);
  report_port_id_ = sched_.register_port(&Link::report_port, this);
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
// The tx-dones after the arrival beyond the one on the wire are the eager
// queue, so a finite buffer drops exactly when the eager qdisc would,
// through the same counters (a virtual arrival's drop once the clock
// reaches it).
//
// Under faults (docs/DES_ENGINE.md, "Lazy links under faults") every fault
// at or before the arrival has popped and none lies between it and the
// clock, so the link's down state and burst count are the eager link's at
// this arrival.  What lies ahead, admitted or parked, is the eager queue
// plus the packet on the wire (an up link always transmits the first of
// them).  A packet that finds nothing parked starts at its arrival or at
// the newest departure and is admitted if its tx-done lies before the
// next declared fault (always, with none declared); behind a parked
// packet it waits its turn.
void Link::arrive_lazy(const Packet& p, SimTime when, std::uint64_t arrival,
                       SimTime chain_start) {
  if (down_ || burst_remaining_ != 0) [[unlikely]] {
    if (arrival == kRealArrival) count_arrival(p);
    fault_drop(p, arrival);
    return;
  }
  if (horizon_ <= when) [[unlikely]] {
    throw std::logic_error{"link arrival after a declared fault's time "
                           "before the fault ran"};
  }
  const bool real = arrival == kRealArrival;
  const std::size_t waiting = parked();
  const std::size_t ahead = departures_ahead(when, arrival) + waiting;
  if (config_.buffer_packets != 0 && ahead > config_.buffer_packets) {
    if (real) {
      count_arrival(p);
      droptail_->reject(p);
    } else {
      defer_drop(p, arrival, false, false);
    }
    return;
  }
  count_arrival(p);
  const std::size_t before = departures_.size();
  if (waiting != 0) [[unlikely]] {
    parked_.push_back(Parked{p, when, arrival});
  } else {
    const SimTime tx = tx_time(p.size_bytes);
    SimTime start = when;
    std::uint64_t sigma;
    if (ahead == 0) {
      sigma = real ? sched_.claim_seq() : Scheduler::virtual_seq(arrival, 0);
    } else {
      const Departure& last = departures_.back();
      start = last.when;
      sigma = Scheduler::virtual_seq(last.vid, 1);
    }
    if (start + tx < horizon_) [[likely]] {
      admit(p, start + tx, sigma, tx, real ? start : chain_start, !real);
    } else {
      parked_.push_back(Parked{p, when, arrival});
      head_ = Started{start, start + tx, sigma, tx,
                      real ? start : chain_start};
      sched_.use_claim(sigma);
    }
  }
  if (replay_) [[unlikely]] trace_admitted(p, when, arrival, before);
}

void Link::start_head(SimTime start, std::uint64_t sigma) {
  const SimTime tx = tx_time(parked_[parked_head_].p.size_bytes);
  head_ = Started{start, start + tx, sigma, tx, start};
  sched_.use_claim(sigma);  // the eager tx-done that starts it claims it
}

// A departure is admitted only before the next declared fault: no later
// fault can change it then, and no virtual event is ever taken back.  The
// admitted packet's successor starts at its tx-done unless the link is
// down, which freezes the queue as the eager tx-done does.
void Link::resume() {
  while (head_ && head_->when < horizon_) {
    const Started s = *head_;
    head_.reset();
    admit(parked_[parked_head_++].p, s.when, s.sigma, s.tx, s.chain_start,
          false);
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
  // The fault pops at the clock: deliveries before the clock plus the
  // lookahead are final.
  if (fed_) drain(final_before(sched_.now()));
}

// The source's emission pop would hand the packet over exactly as an
// upstream delivery pop does; its key is the real seq the eager sender
// claims for it, at the same point.  The emissions come in key order, so
// each is taken at once, by an unbounded link out of faults' reach.
bool Link::send_at(SimTime when, const Packet& p) {
  if (upstream_links_ != 0) return false;
  if (!fed_) {
    if (config_.buffer_packets != 0 || !fault_times_.empty() ||
        !feed_virtually()) {
      return false;
    }
    upstream_only_ = true;  // its source feeds it alone from now on
  }
  arrive_lazy(p, when,
              sched_.add_virtual(when, sched_.claim_seq(), 0,
                                 EventCategory::kTcpSend),
              sched_.now());
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
  if (upstream_links_ == 1 && inbox_head_ == inbox_.size() &&
      when < horizon_ && sched_.running()) {
    taken_until_ = when;
    arrive_lazy(p, when,
                sched_.add_virtual(when, seq, 0, EventCategory::kLinkDelivery),
                chain_start);
    return;
  }
  inbox_.push_back(Inbound{when, seq, chain_start, p});
  std::size_t i = inbox_.size() - 1;
  for (; i > inbox_head_; --i) {
    const Inbound& prev = inbox_[i - 1];
    if (prev.when < when ||
        (prev.when == when &&
         !sched_.virtual_before(Scheduler::virtual_id(seq),
                                Scheduler::virtual_id(prev.seq)))) {
      break;
    }
    std::swap(inbox_[i], inbox_[i - 1]);
  }
  if (i == inbox_head_) rewatch();
}

void Link::drain(SimTime bound) {
  while (inbox_head_ < inbox_.size()) {
    const Inbound in = inbox_[inbox_head_];
    if (!(in.when < bound && in.when < horizon_)) break;
    ++inbox_head_;
    taken_until_ = in.when;
    arrive_lazy(in.p, in.when,
                sched_.add_virtual(in.when, in.seq, 0,
                                   EventCategory::kLinkDelivery),
                in.chain_start);
  }
  if (inbox_head_ == inbox_.size()) {
    inbox_.clear();
    inbox_head_ = 0;
  } else if (inbox_head_ >= 64 && inbox_head_ * 2 >= inbox_.size()) {
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_));
    inbox_head_ = 0;
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
  if (inbox_head_ < inbox_.size() && inbox_[inbox_head_].when < horizon_) {
    head = inbox_[inbox_head_].when;
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
    std::size_t i = before;
    while (i > departed_ && departures_[i - 1].when > when) --i;
    first = i > departed_ && departures_[i - 1].when == when &&
            sched_.virtual_before(arrival, departures_[i - 1].vid);
  }
  traced_.push_back(Traced{p, when, first, arrival});
  if (!fed_) observe_arrival(traced_.size() - 1);
}

// The delivery is keyed by the virtual tx-done's claim 0: a real FIFO
// entry, or on a fused hop a virtual delivery event the receiver takes
// once final.  Lookups reach back at most twice the delay from the
// chain's first transmission start to its real delivery, plus a tx time
// per same-nanosecond tie along a busy period (docs/DES_ENGINE.md).  A
// delivery that undercuts the FIFO tail after a shrunk delay takes a
// one-entry post under the same key, as the eager link's does.
void Link::admit(const Packet& p, SimTime departure, std::uint64_t sigma,
                 SimTime tx, SimTime chain_start, bool arrived_virtually) {
  const std::uint64_t vid =
      sched_.add_virtual(departure, sigma, 1, EventCategory::kLinkTx);
  departures_.push_back(Departure{departure, vid, tx, p.flow,
                                  arrived_virtually});
  ahead_tx_ += tx;
  busy_time_ += tx;

  const SimTime when = departure + config_.prop_delay;
  const std::uint64_t seq = Scheduler::virtual_seq(vid, 0);
  sched_.keep_lookback((when - chain_start) * 2 + SimTime::millis(10));
  if (feeds_next_) {
    next_link_->take(p, when, seq, chain_start);
    return;
  }
  const bool was_empty = deliveries_head_ == deliveries_.size();
  if (!was_empty && when < deliveries_.back().when) [[unlikely]] {
    sched_.post_key(
        when, seq,
        [this, p, vid] {
          std::uint64_t hint = 0;
          sched_.settle_virtual(vid, &hint);
          deliver(p);
        },
        EventCategory::kLinkDelivery);
    return;
  }
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
    cursor_ = cursor_ > departed_ ? cursor_ - departed_ : 0;
    departed_ = 0;
  }
  return departures_.size() - departed_;
}

std::size_t Link::departures_ahead(SimTime when, std::uint64_t arrival) {
  const std::size_t ahead = pass_departures();
  if (arrival == kRealArrival) return ahead;  // the arrival is the clock
  std::size_t i = std::max(cursor_, departed_);
  while (i < departures_.size()) {
    const Departure& d = departures_[i];
    if (d.when > when ||
        (d.when == when && sched_.virtual_before(arrival, d.vid))) {
      break;
    }
    ++i;
  }
  cursor_ = i;
  return departures_.size() - i;
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

void Link::observe_arrivals(const Departure* before) const {
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

std::size_t Link::arrivals_ahead(const FlowId* flow,
                                 std::size_t* parked_ahead) const {
  if (!fed_) return 0;
  // Arrivals come in FIFO order, so the ones still ahead are a suffix of
  // the parked packets and the tx-dones still ahead.  An admitted packet's
  // virtual arrival (a delivery or an emission) is the event recorded just
  // before its tx-done; one admitted from the parked list arrived before
  // the fault that admitted it.
  std::size_t n = 0;
  std::size_t waiting = 0;
  const auto counts = [flow](FlowId f) { return flow == nullptr || f == *flow; };
  for (std::size_t i = parked_.size(); i > parked_head_; --i) {
    const Parked& x = parked_[i - 1];
    if (x.arrival == kRealArrival || x.arrived < sched_.now() ||
        (x.arrived == sched_.now() && !sched_.virtual_ahead(x.arrival))) {
      if (parked_ahead != nullptr) *parked_ahead = waiting;
      return n;
    }
    ++waiting;
    if (counts(x.p.flow)) ++n;
  }
  if (parked_ahead != nullptr) *parked_ahead = waiting;
  const std::size_t ahead = pass_departures();  // may drop a passed prefix
  const std::size_t end = departures_.size() - ahead;
  for (std::size_t i = departures_.size(); i > end; --i) {
    const Departure& d = departures_[i - 1];
    if (!d.arrived_virtually || !sched_.virtual_ahead(d.vid - 1)) break;
    if (counts(d.flow)) ++n;
  }
  return n;
}

std::size_t Link::queue_length() const {
  if (mode_ != Mode::kLazy) return qdisc_->len();
  // The first arrived packet is on the wire, unless a down link froze it
  // unstarted in the parked queue.
  const std::size_t ahead = pass_departures();
  const std::size_t arrived = ahead + parked() - arrivals_ahead();
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
      if (fed_) [[unlikely]] {
        throw std::logic_error{"a real delivery into a link fed virtually"};
      }
      arrive_lazy(p, sched_.now(), kRealArrival, sched_.now());
      return;
    }
  }
  count_arrival(p);

  if (down_ || burst_remaining_ > 0) {
    fault_drop(p, kRealArrival);
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
void Link::fault_drop(const Packet& p, std::uint64_t arrival) {
  const bool burst = !down_;
  if (burst) --burst_remaining_;
  if (arrival != kRealArrival) {
    defer_drop(p, arrival, true, burst);
    return;
  }
  ++fault_drops_;
  record_fault_drop(p);
}

void Link::record_fault_drop(const Packet& p) {
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

// A virtual arrival is taken ahead of the clock, but the eager link counts
// and records its drop at the arrival pop: the report watches its key.
void Link::defer_drop(const Packet& p, std::uint64_t arrival, bool fault,
                      bool burst) {
  dropped_.push_back(Dropped{arrival, p, fault, burst});
  if (dropped_.size() - dropped_head_ == 1) {
    sched_.watch_past(report_port_id_, arrival);
  }
}

// At the dropped arrival's key: the clock is at its time and every key
// before it has passed, as in the eager arrival pop.
void Link::report_drop() {
  const Dropped d = dropped_[dropped_head_++];
  if (dropped_head_ == dropped_.size()) {
    dropped_.clear();
    dropped_head_ = 0;
  } else {
    sched_.watch_past(report_port_id_, dropped_[dropped_head_].arrival);
  }
  count_arrival(d.p);
  if (d.fault) {
    ++fault_drops_;
    record_fault_drop(d.p);
  } else {
    droptail_->reject(d.p);
  }
}

std::uint64_t Link::burst_remaining() const {
  std::uint64_t pending = 0;
  for (std::size_t i = dropped_head_; i < dropped_.size(); ++i) {
    if (dropped_[i].burst) ++pending;
  }
  return burst_remaining_ + pending;
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
  horizon_ = fault_times_.front();
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
  if (horizon_ != sched_.now()) {
    throw std::logic_error{std::string(hook) +
                           " on a lazy link at an undeclared time"};
  }
  ++next_fault_;
  horizon_ = next_fault_ < fault_times_.size() ? fault_times_[next_fault_]
                                               : SimTime::max();
  pass_departures();  // the bound replay sees the state before the hook
  return true;
}

void Link::drop_next(std::uint64_t count) {
  const bool lazy = lazy_fault_hook("drop_next");
  burst_remaining_ += count;
  if (lazy) resume();
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
    std::size_t parked_ahead = 0;
    const std::size_t not_arrived = arrivals_ahead(nullptr, &parked_ahead);
    const std::size_t arrived = ahead - (not_arrived - parked_ahead);
    SimTime unstarted = ahead_tx_;
    if (arrived > 0) unstarted = unstarted - departures_[departed_].tx;
    busy = busy - unstarted;
    // With nothing admitted ahead, a started parked head that has arrived
    // is on the wire.
    if (ahead == 0 && head_ && parked_ahead < parked()) {
      busy = busy + head_->tx;
    }
  }
  return busy.to_seconds() / elapsed.to_seconds();
}

}  // namespace dmp

// Unidirectional link: a pluggable queue discipline feeding a fixed-rate
// transmitter with constant propagation delay.  With the default DropTail
// discipline this is the ns-2 DropTail/DelayLink pair in one object,
// byte-identical to the pre-qdisc implementation; PIE / FQ-PIE / CoDel
// (src/net/qdisc/) swap the enqueue/drop decision without touching the
// transmitter, fault hooks or observability.
//
// A link runs eager (a tx-done event per packet) or lazy: a drop-tail link
// whose owner allows it computes each departure at send(),
// d = max(now, d_prev) + tx, decides a finite buffer's drop from the
// departures still ahead, and keeps the tx-done as a virtual scheduler
// event that never enters the queue.  A lazy link whose receiver is an
// unbounded lazy link fed by nothing else makes the delivery virtual too
// and feeds the arrival into the receiver at once; a sender's jitter stage
// feeds its private entry link the same way (send_at).  Under faults the
// owner declares when set_down / rescale will run (declare_fault): the
// link admits only departures before the next declared fault and parks
// the rest, in FIFO order, until that fault's pop (the fault horizon).
// Pop order, delivery times, drops and events_executed() are identical
// either way (docs/DES_ENGINE.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/demux.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/qdisc/droptail.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "util/sim_time.hpp"

namespace dmp {

struct LinkConfig {
  double bandwidth_bps = 10e6;
  SimTime prop_delay = SimTime::millis(10);
  // Queue capacity in packets (the paper's Table-1 buffers are in packets);
  // 0 means unbounded (used for access links that must never drop).
  std::size_t buffer_packets = 0;
  // Queue discipline (default drop-tail; see src/net/qdisc/).  AQM
  // disciplines that draw early-drop trials read `qdisc.seed`.
  QdiscSpec qdisc{};
};

// Per-flow arrival/drop counters at the link's queue; the paper's measured
// per-path loss probability p_k is drops/arrivals of the video flow at the
// bottleneck.  Under AQM, `drops` counts every congestion discard (early +
// overlimit) — the loss process TCP actually sees.
struct LinkFlowCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
};

class Link {
 public:
  Link(Scheduler& sched, LinkConfig config);

  // Downstream receiver; must be set before the first send.  The Link and
  // FlowDemux overloads devirtualize the hop — delivery calls the next
  // stage directly instead of going through a std::function.  The Link
  // overload makes this link one of `next`'s upstream links.  Rewiring a
  // fused hop, or giving a link fed virtually a second upstream, throws
  // std::logic_error.
  void set_receiver(PacketHandler receiver);
  void set_receiver(Link* next);
  void set_receiver(FlowDemux* demux);

  // Declares that nothing but this link's upstream links feeds it: a
  // direct send() throws std::logic_error from now on.  The owner of a
  // link no caller can reach declares it, which lets its one upstream
  // link deliver into it virtually (a fused hop).
  void set_upstream_only() { upstream_only_ = true; }

  // Offer to the queue discipline; may drop (tail or AQM-early) on arrival,
  // and AQM disciplines may additionally discard queued packets later.
  void send(const Packet& p);

  // A delayed arrival from the one source of a link no other link feeds (a
  // sender's jitter stage): the packet arrives at `when` (>= now, and
  // nondecreasing across calls).  An unbounded link that runs lazy takes
  // it as a virtual arrival keyed by a real claim made now, and from then
  // on takes nothing else (send() throws).  Returns false, claiming
  // nothing, when the link does not run so: the caller then schedules the
  // arrival itself and delivers it through send().
  bool send_at(SimTime when, const Packet& p);

  std::size_t queue_length() const;
  const LinkConfig& config() const { return config_; }

  // Lazy mode.  The owner allows it (default: not allowed); the link then
  // goes lazy at its first send if it also has a drop-tail queue (any
  // buffer) and its scheduler does not keep links eager
  // (Scheduler::keep_links_eager).  A lazy link decides its receiver's
  // mode at the same time when it fuses the hop.
  void set_lazy_allowed(bool allowed);
  bool lazy() const { return mode_ == Mode::kLazy; }

  // Aggregate and per-flow counters, as the eager link counts them by now.
  // Delivered counts transmissions completed; a lazy link reads it,
  // queue_length() and utilization() off its departure FIFO's cursor, and
  // a link fed virtually leaves out the arrivals still ahead of the clock.
  std::uint64_t total_arrivals() const;
  std::uint64_t total_drops() const { return total_drops_; }
  std::uint64_t total_delivered() const;
  LinkFlowCounters flow_counters(FlowId flow) const;

  // Queue-discipline identity and per-reason discard tallies
  // (counters().early_drops stays 0 on a droptail link).
  const char* qdisc_name() const { return qdisc_->name(); }
  const QdiscCounters& qdisc_counters() const { return qdisc_->counters(); }

  // Busy-time integral, for utilization diagnostics.
  double utilization(SimTime elapsed) const;

  // --- fault hooks (src/fault/; all inert until first used) ---
  // Before its first send, the owner declares each set_down call (at `at`)
  // and each rescale call (at `at`, to `delay_factor`), rescales in time
  // order.  The call must run at its declared nanosecond before any
  // arrival or tx-done of the link there (FaultInjector::arm claims its
  // keys before the first packet).  On a lazy link an undeclared
  // set_down / rescale throws std::logic_error, and so does an arrival
  // once a declared one is overdue; a plan that shrinks the delay below
  // an earlier value keeps the hop into the receiver real.
  void declare_fault(SimTime at);
  void declare_fault(SimTime at, double delay_factor);
  // While down the link drops every arrival (counted in fault_drops(), NOT
  // in the congestion counters the measured p_k is built from), finishes
  // the transmission already on the wire, and freezes its queue.  Raising
  // the link resumes draining the frozen queue.
  void set_down(bool down);
  bool down() const { return down_; }
  // Drops the next `count` arrivals (burst loss); cumulative across calls.
  // Needs no declaration, but throws on a link fed virtually.
  void drop_next(std::uint64_t count);
  std::uint64_t burst_remaining() const { return burst_remaining_; }
  // Rescales bandwidth / propagation delay relative to the CONSTRUCTED
  // configuration (factors do not compound), applying to future
  // transmissions only.  Factors must be > 0.
  void rescale(double bw_factor, double delay_factor);
  // Arrivals discarded by link_down / burst_loss faults.
  std::uint64_t fault_drops() const { return fault_drops_; }

  // Binds the hub (optional; a no-op when never called).  Flight spans of
  // stream packets are tagged `hop`.  A non-empty `prefix` adds the
  // `.queue_depth` gauge, `.{arrivals,drops,delivered}` counters (plus
  // `.early_drops` on AQM links only, keeping default runs' metric set),
  // kWarn "drop" / "fault_drop" events, and `.{delivered,drops,
  // queue_depth}` channels; an empty one binds flight spans only.  A lazy
  // link records as its departures pass, caught up at the end of every
  // run_until (which must not outlive it); bind it before its first send.
  void bind(obs::Hub& hub, const std::string& prefix, std::int32_t hop);

 private:
  // One in-flight delivery: a (when, seq) key claimed from the scheduler at
  // schedule time plus the pooled packet.  Only the FIFO head is armed in
  // the event queue; the rest wait here (docs/DES_ENGINE.md).  On a lazy
  // link the key's seq is the delivery claim of the packet's virtual
  // tx-done.
  struct PendingDelivery {
    SimTime when;
    std::uint64_t seq;
    PacketPool::Ref ref;
  };
  // A lazy link's admitted packet: its virtual tx-done and tx time.
  struct Departure {
    SimTime when;
    std::uint64_t vid;
    SimTime tx;
    FlowId flow;
  };
  // A lazy faulted link's parked head once its transmission has started:
  // its start, tx-done time and key, and tx time.
  struct Started {
    SimTime start;
    SimTime when;
    std::uint64_t sigma;
    SimTime tx;
  };
  // A bound lazy link's departure: the packet, when it arrives and,
  // arriving virtually, whether before the tx-done at that nanosecond.
  struct Traced {
    Packet p;
    SimTime arrived;
    bool first;
  };
  enum class Mode : std::uint8_t { kUndecided, kEager, kLazy };

  static void tx_done_port(void* ctx) {
    static_cast<Link*>(ctx)->on_transmit_done();
  }
  static void delivery_port(void* ctx) {
    static_cast<Link*>(ctx)->on_delivery();
  }
  static void catch_up_port(void* ctx) {
    static_cast<Link*>(ctx)->pass_departures();
  }

  bool lazy_eligible() const;
  void decide_mode();
  // Makes an undecided, eligible, unbounded link lazy with its arrivals
  // virtual (fed_); false, changing nothing, otherwise.
  bool feed_virtually();
  void fuse_receiver();
  void unhook_receiver();
  // send() past the upstream-only check: what an upstream link delivers.
  void arrive(const Packet& p);
  void send_lazy(const Packet& p);
  // send_lazy on a link that faults reach (declared, or a burst loss).
  void send_faulted(const Packet& p);
  // A fault hook's common part: false on a link that runs eager; on a lazy
  // one, consumes the hook's declaration and catches the link up.
  bool lazy_fault_hook(const char* hook);
  std::size_t parked() const { return parked_.size() - parked_head_; }
  SimTime fault_horizon() const {
    return next_fault_ < fault_times_.size() ? fault_times_[next_fault_]
                                             : SimTime::max();
  }
  // The parked head starts transmitting at `start` under key `sigma`.
  void start_head(SimTime start, std::uint64_t sigma);
  // Admits the parked packets whose tx-done now lies before the horizon.
  void resume();
  // admit() for a started packet of a faulted link, whose delivery may
  // undercut the FIFO tail after a shrunk delay.
  void admit_started(const Packet& p, const Started& s);
  // An arrival dropped by link_down or burst_loss.
  void fault_drop(const Packet& p);
  // A packet arriving on a link fed virtually, at virtual event `arrival`
  // (time `when`): an upstream link's delivery or a source's emission.
  void arrive_virtual(const Packet& p, std::uint64_t arrival, SimTime when,
                      SimTime chain_start);
  // Records an admitted packet's virtual tx-done at (departure, sigma) and
  // its delivery; `chain_start` is when the first link of the fused chain
  // started transmitting it.
  void admit(const Packet& p, SimTime departure, std::uint64_t sigma,
             SimTime tx, SimTime chain_start);
  // Lazy links: moves the cursor past the tx-dones that have passed and
  // returns how many lie ahead (the first of them on the wire once its
  // packet has arrived, the rest queued or not yet arrived), recording
  // what passes in pop order when bound.
  std::size_t pass_departures() const;
  void trace_admitted(const Packet& p, SimTime when, std::uint64_t arrival);
  // The eager link's records at packet i's arrival, at the tx-dones the
  // cursor passed, and at the virtual arrivals passed before d (all passed
  // ones when null).
  void observe_arrival(std::size_t i) const;
  void replay_passed() const;
  void observe_arrivals(const Departure* before) const;
  // On a link fed virtually: admitted packets (of `flow`, or all) whose
  // virtual arrival is still ahead; 0 on any other link.
  std::size_t arrivals_ahead(const FlowId* flow = nullptr) const;
  void start_transmission(const Packet& p);
  void on_transmit_done();
  void on_delivery();
  void deliver(const Packet& p);
  void on_qdisc_drop(const Packet& victim, QdiscDropReason reason);
  LinkFlowCounters& flow_slot(FlowId flow);
  // The flow_index_ slot holding `flow`, or the empty slot it would take.
  std::size_t flow_probe(FlowId flow) const;

  // Devirtualized queue ops for the default discipline: DropTailQdisc is
  // final, so these inline to deque operations; AQM links take the
  // virtual call.  Identical semantics either way.
  std::size_t qlen() const {
    return droptail_ ? droptail_->len() : qdisc_->len();
  }
  // Packet sizes on a link are near-constant (MSS data one way, fixed-size
  // ACKs the other), so a one-entry cache removes the per-packet double
  // divide; transmission_time is pure, so the cached value is identical.
  SimTime tx_time(std::int64_t bytes) {
    if (bytes != tx_cache_bytes_) {
      tx_cache_bytes_ = bytes;
      tx_cache_ = transmission_time(bytes, config_.bandwidth_bps);
    }
    return tx_cache_;
  }
  bool q_enqueue(const Packet& p, SimTime now) {
    return droptail_ ? droptail_->enqueue(p, now) : qdisc_->enqueue(p, now);
  }
  bool q_dequeue(Packet* out, SimTime now) {
    return droptail_ ? droptail_->dequeue(out, now)
                     : qdisc_->dequeue(out, now);
  }

  Scheduler& sched_;
  LinkConfig config_;
  const LinkConfig base_config_;  // rescale() factors are relative to this
  Link* next_link_ = nullptr;      // devirtualized receiver (one of three)
  FlowDemux* next_demux_ = nullptr;
  PacketHandler receiver_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  DropTailQdisc* droptail_ = nullptr;  // set iff qdisc_ is the default
  std::int64_t tx_cache_bytes_ = -1;   // tx_time() cache key; reset on rescale
  SimTime tx_cache_ = SimTime::zero();
  // True for non-droptail disciplines: gates the AQM-only observability
  // (drop-cause trace field, early-drop counter, event-log reason) so the
  // default configuration's artifacts stay byte-identical to pre-qdisc.
  const bool aqm_;
  bool transmitting_ = false;
  Packet in_flight_{};

  Mode mode_ = Mode::kUndecided;
  bool lazy_allowed_ = false;
  bool fault_path_ = false;     // arrivals take send_faulted
  bool upstream_only_ = false;  // set_upstream_only()
  // Arrivals are virtual: an upstream link's deliveries, or with no
  // upstream link a source's emissions (send_at).
  bool fed_ = false;
  bool feeds_next_ = false;     // deliveries into next_link_ are virtual
  bool replay_ = false;         // sinks bound: records what passes
  std::uint32_t upstream_links_ = 0;  // links whose receiver this is
  // Lazy links: admitted packets in departure order; those before
  // `departed_` have passed their tx-done, and `ahead_tx_` sums the tx time
  // of the rest.  Accessors move the cursor too, hence mutable.
  mutable std::vector<Departure> departures_;
  mutable std::size_t departed_ = 0;
  mutable SimTime ahead_tx_ = SimTime::zero();
  // Where the previous delivery's settle ended (Scheduler::settle_virtual).
  std::uint64_t settle_hint_ = 0;

  bool down_ = false;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t fault_drops_ = 0;

  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_drops_ = 0;
  std::uint64_t total_delivered_ = 0;
  SimTime busy_time_ = SimTime::zero();
  // Per-flow counters in first-arrival order, touched on every arrival: a
  // bottleneck carries ~50 flows, so an open-addressed index (flow ->
  // position + 1, 0 = empty; a power of two, at most half full) finds the
  // slot in O(1).
  std::vector<std::pair<FlowId, LinkFlowCounters>> per_flow_;
  std::vector<std::uint32_t> flow_index_ = std::vector<std::uint32_t>(8);

  // In-flight deliveries (FIFO by construction: propagation delay is
  // constant between rescales, so (when, seq) is nondecreasing).  Head is
  // armed in the scheduler; `deliveries_head_` is the ring's pop cursor.
  std::vector<PendingDelivery> deliveries_;
  std::size_t deliveries_head_ = 0;
  PacketPool pool_;
  std::uint32_t tx_done_port_id_ = 0;
  std::uint32_t delivery_port_id_ = 0;

  void record_flight(SimTime at, const Packet& p, obs::FlightEventKind kind,
                     std::size_t queue_depth,
                     obs::DropCause cause = obs::DropCause::kNone) const;

  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::int32_t flight_hop_ = -1;
  obs::TimeSeriesChannel* ts_delivered_ = nullptr;
  obs::TimeSeriesChannel* ts_drops_ = nullptr;
  obs::TimeSeriesChannel* ts_queue_ = nullptr;
  // A bound lazy link (replay_) replays the eager queue: of the departures
  // (traced_ parallels them), those before obs_done_ / obs_started_ /
  // obs_arrived_ have finished / started / arrived.
  mutable std::vector<Traced> traced_;
  mutable std::size_t obs_done_ = 0;
  mutable std::size_t obs_started_ = 0;
  mutable std::size_t obs_arrived_ = 0;

  // Lazy links under faults: the declared hook times (sorted) and the next
  // one's index; the packets whose tx-done lies at or past it, parked in
  // FIFO order from `parked_head_`, the first of them started once its
  // tx-done key is fixed (`head_`).  A delay factor below an earlier one
  // keeps the hop into the receiver real (`real_hop_`).
  std::vector<SimTime> fault_times_;
  std::size_t next_fault_ = 0;
  double max_delay_factor_ = 1.0;
  bool real_hop_ = false;
  std::vector<Packet> parked_;
  std::size_t parked_head_ = 0;
  std::optional<Started> head_;
};

}  // namespace dmp

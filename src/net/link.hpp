// Unidirectional link: a pluggable queue discipline feeding a fixed-rate
// transmitter with constant propagation delay.  With the default DropTail
// discipline this is the ns-2 DropTail/DelayLink pair in one object,
// byte-identical to the pre-qdisc implementation; PIE / FQ-PIE / CoDel
// (src/net/qdisc/) swap the enqueue/drop decision without touching the
// transmitter, fault hooks or observability.
//
// A drop-tail link runs lazy: its departure core (departure_core.hpp)
// decides each departure and a finite buffer's drop at send(), and the
// link keeps the tx-done as a virtual scheduler event that never enters
// the queue.  AQM links, and every link of a scheduler that keeps links
// eager (the tests' reference), run eager: a tx-done event per packet.  A
// lazy link whose receiver is a lazy link fed only by its upstream links
// (set_upstream_only) makes the delivery virtual too: the receiver takes
// its upstream links' deliveries in key order, each one once no pop can
// still put an earlier one before it (at once with one upstream link;
// with several, up to the least upstream propagation delay ahead of the
// clock, by Scheduler::watch).  A sender's jitter stage feeds its private
// entry link virtually as well (send_at), and so does a lazy sink its ACK
// link (arrive_at).  A lazy link that delivers into a FlowDemux hands each
// delivery whose receiver runs ahead (an AheadReceiver: a TCP sink nothing
// reads) over when it admits the packet, as a virtual delivery event, and
// watches the earliest deadline its receivers wait on.  Under faults the
// owner declares
// when set_down / rescale / drop_next will run (declare_fault), which
// bounds how far ahead the core admits departures.  Pop order, delivery
// times, drops and events_executed() are identical either way
// (docs/DES_ENGINE.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/demux.hpp"
#include "net/departure_core.hpp"
#include "net/fifo.hpp"
#include "net/packet.hpp"
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
  // fused hop throws std::logic_error, and so does giving a link fed
  // virtually an upstream link that cannot feed it virtually (not lazy,
  // already sending, zero delay, or a shrinking one) or that could deliver
  // before an arrival it has already taken.
  void set_receiver(PacketHandler receiver);
  void set_receiver(Link* next);
  void set_receiver(FlowDemux* demux);

  // Declares that nothing but this link's upstream links feeds it: a
  // direct send() throws std::logic_error from now on.  The owner of a
  // link no caller can reach declares it, which lets its upstream links
  // deliver into it virtually (fused hops).
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
  // Makes this link one its single source feeds ahead of the clock, as
  // send_at does: true if it is one, or if it is undecided, lazy-eligible
  // and unbounded with no upstream link and no declared fault; it then
  // takes nothing else.  A source that hands it an arrival at a virtual
  // event it already has (a lazy sink's ACK) calls arrive_at: at `when`
  // (>= now, nondecreasing in key order across calls), `chain_start` the
  // start of the fused chain that led to it.
  bool take_source();
  void arrive_at(SimTime when, std::uint64_t event, const Packet& p,
                 SimTime chain_start) {
    arrive_lazy(p, when, event, chain_start);
  }

  std::size_t queue_length() const;
  const LinkConfig& config() const { return config_; }

  // Lazy mode.  The link goes lazy at its first send if it has a drop-tail
  // queue (any buffer) and its scheduler does not keep links eager
  // (Scheduler::keep_links_eager).  A lazy link decides its receiver's
  // mode at the same time when it fuses the hop.
  bool lazy() const { return mode_ == Mode::kLazy; }

  // Aggregate and per-flow counters, as the eager link counts them by now.
  // Delivered counts transmissions completed; a lazy link reads it,
  // queue_length() and utilization() off its departure core, and
  // a link fed virtually leaves out the arrivals still ahead of the clock
  // (it counts a drop it decided ahead once the clock reaches it).
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
  // Before its first send, the owner declares each set_down and drop_next
  // call (at `at`) and each rescale call (at `at`, to `delay_factor`),
  // rescales in time order.  The call must run at its declared nanosecond
  // before any arrival or tx-done of the link there (FaultInjector::arm
  // claims its keys before the first packet).  On a lazy link an
  // undeclared hook throws std::logic_error, and so does an arrival once a
  // declared one is overdue; a plan that shrinks the delay below an
  // earlier value keeps the hop into the receiver real.
  void declare_fault(SimTime at);
  void declare_fault(SimTime at, double delay_factor);
  // While down the link drops every arrival (counted in fault_drops(), NOT
  // in the congestion counters the measured p_k is built from), finishes
  // the transmission already on the wire, and freezes its queue.  Raising
  // the link resumes draining the frozen queue.
  void set_down(bool down);
  bool down() const { return core_.down(); }
  // Drops the next `count` arrivals (burst loss); cumulative across calls.
  void drop_next(std::uint64_t count);
  std::uint64_t burst_remaining() const;
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
  // run_until (which must not outlive it), and a drop it decided ahead of
  // the clock at the drop's key; bind it before its first send.
  void bind(obs::Hub& hub, const std::string& prefix, std::int32_t hop);

 private:
  // The core's view of the scheduler's key order; what passes feeds the
  // bound replay.
  struct CoreClock {
    const Link* link;
    bool before(std::uint64_t a, std::uint64_t b) const {
      return link->sched_.virtual_before(a, b);
    }
    bool ahead(std::uint64_t id) const {
      return link->sched_.virtual_ahead(id);
    }
    template <class Departure>
    void passed(const Departure* d) const {
      if (link->replay_) [[unlikely]] link->replay_departure(d);
    }
  };
  using Core = DepartureCore<CoreClock>;
  // One in-flight delivery: a (when, seq) key claimed from the scheduler at
  // schedule time plus the packet.  Only the FIFO head is armed in
  // the event queue; the rest wait here (docs/DES_ENGINE.md).  On a lazy
  // link the key's seq is the delivery claim of the packet's virtual
  // tx-done.
  struct PendingDelivery {
    SimTime when;
    std::uint64_t seq;
    Packet p;
  };
  // An upstream link's delivery a link fed virtually holds until no pop
  // can still put an earlier one before it: its key, the packet and when
  // the first link of the fused chain started transmitting it.
  struct Inbound {
    SimTime when;
    std::uint64_t seq;
    SimTime chain_start;
    Packet p;
  };
  // A deadline an AheadReceiver of the demux waits on, armed at delivery
  // event `event`.
  struct Deadline {
    SimTime when;
    std::uint64_t event;
    AheadReceiver* receiver;
  };
  // A virtual arrival dropped ahead of the clock, reported at its key.
  struct Dropped {
    std::uint64_t arrival;
    Packet p;
    bool fault;
    bool burst;  // it used up a burst_loss count
  };
  // A bound lazy link's admitted or parked packet: the packet, when it
  // arrives and, arriving virtually, whether before the tx-done at that
  // nanosecond and its arrival event.
  struct Traced {
    Packet p;
    SimTime arrived;
    bool first;
    std::uint64_t arrival;
  };
  enum class Mode : std::uint8_t { kUndecided, kEager, kLazy };

  // The port that runs member F.
  template <auto F>
  static void port(void* ctx) {
    (static_cast<Link*>(ctx)->*F)();
  }

  bool lazy_eligible() const;
  // Makes an undecided, eligible link lazy with its arrivals virtual
  // (fed_); false, changing nothing, otherwise.
  bool feed_virtually();
  void fuse_receiver();
  void unhook_receiver();
  // send() past the upstream-only check: what an upstream link delivers.
  void arrive(const Packet& p);
  // A fault hook's common part: false on a link that runs eager; on a lazy
  // one, consumes the hook's declaration and catches the link up.
  bool lazy_fault_hook(const char* hook);
  // The parked head `p` starts transmitting at `start` under key `sigma`.
  void start_head(const Packet& p, SimTime start, std::uint64_t sigma);
  // At a fault hook: admits the parked packets whose tx-done now lies
  // before the horizon, then takes what is final of the held deliveries.
  void resume();
  // An arrival at the clock dropped by link_down or burst_loss.
  void fault_drop(const Packet& p);
  // A virtual arrival's drop, reported once the clock reaches its key.
  void defer_drop(const Packet& p, std::uint64_t arrival, bool fault,
                  bool burst);
  void report_drop();
  // An upstream link's delivery into this link fed virtually, keyed
  // (when, seq): held in key order until final.
  void take(const Packet& p, SimTime when, std::uint64_t seq,
            SimTime chain_start);
  // Takes the held deliveries keyed before `bound` and the fault horizon
  // as virtual arrivals, in key order, then watches the next one.
  void drain(SimTime bound);
  void on_watch();
  void rewatch();
  // The time before which every held delivery is final once no pop
  // before `from` remains: unbounded with one upstream link, whose
  // deliveries come in key order; else `from` plus the least upstream
  // delay.
  SimTime final_before(SimTime from) const {
    return upstream_links_ > 1 ? from + min_upstream_prop_ : SimTime::max();
  }
  // Every lazy arrival: at the clock (arrival Core::kAtClock), or at
  // virtual event `arrival` at `when` (an upstream link's delivery or a
  // source's emission), ahead of the clock.  `chain_start` is when the
  // first link of the fused chain started transmitting the packet.
  void arrive_lazy(const Packet& p, SimTime when, std::uint64_t arrival,
                   SimTime chain_start);
  void count_arrival(const Packet& p) {
    ++total_arrivals_;
    ++flow_slot(p.flow).arrivals;
  }
  // Records an admitted packet's virtual tx-done (s.when, s.sigma) and its
  // delivery; `arrival` is its virtual arrival, if it was admitted at one.
  // After a shrunk delay the delivery may undercut the FIFO tail.
  void admit(const Packet& p, const Core::Started& s, std::uint64_t arrival);
  // Lazy links: passes the tx-dones the clock has passed and returns how
  // many lie ahead, recording what passes in pop order when bound.
  std::size_t pass_departures() const { return core_.pass(sched_.now()); }
  // `before` departures were admitted before the arrival's own.
  void trace_admitted(const Packet& p, SimTime when, std::uint64_t arrival,
                      std::size_t before);
  // The eager link's records at packet i's arrival, at a tx-done the core
  // passed (d; null once it passed them all), and at the virtual arrivals
  // passed before d (all passed ones when null).
  void observe_arrival(std::size_t i) const;
  void replay_departure(const Core::Departure* d) const;
  void observe_arrivals(const Core::Departure* before) const;
  void start_transmission(const Packet& p);
  void on_transmit_done();
  // Delivers `p` at (when, seq), `vid` its virtual tx-done on a lazy link:
  // a FIFO entry, or a one-entry post when it undercuts the FIFO tail.
  void schedule_delivery(const Packet& p, SimTime when, std::uint64_t seq,
                         std::uint64_t vid);
  void on_delivery();
  void deliver(const Packet& p);
  // Hands the delivery of `p` at (when, seq) to `receiver` as a virtual
  // delivery event, and keeps the deadline it arms.
  void hand_over(AheadReceiver* receiver, const Packet& p, SimTime when,
                 std::uint64_t seq, SimTime chain_start);
  // Expires the deadlines due at the watched time, then watches the
  // earliest one still waited on.
  void on_deadline();
  void watch_deadline();
  void on_qdisc_drop(const Packet& victim, QdiscDropReason reason);
  LinkFlowCounters& flow_slot(FlowId flow);
  // The flow_index_ slot holding `flow`, or the empty slot it would take.
  std::size_t flow_probe(FlowId flow) const;

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
  bool upstream_only_ = false;  // set_upstream_only()
  // Arrivals are virtual: an upstream link's deliveries, or with no
  // upstream link a source's emissions (send_at).
  bool fed_ = false;
  bool feeds_next_ = false;     // deliveries into next_link_ are virtual
  bool replay_ = false;         // sinks bound: records what passes
  std::uint32_t upstream_links_ = 0;  // links whose receiver this is
  SimTime min_upstream_prop_ = SimTime::max();  // their least base delay
  // Lazy links: the departures, drops and parking (accessors move its
  // cursor too, hence mutable); its down state and burst count serve the
  // eager link as well.
  mutable Core core_;
  // A link fed by upstream links: their deliveries not yet taken, in key
  // order; the time its drain watch runs at (max() with none) and of the
  // newest delivery taken; and its two watch ports.
  Fifo<Inbound> inbox_;
  SimTime watched_ = SimTime::max();
  SimTime taken_until_ = SimTime::nanos(-1);
  std::uint32_t drain_port_id_ = 0;
  std::uint32_t report_port_id_ = 0;
  // Drops of virtual arrivals not yet reported, in key order.
  Fifo<Dropped> dropped_;
  // The deadlines the demux's receivers wait on, in key order (stale ones
  // are skipped), the earliest watched (deadline_port_id_, registered at
  // the first).
  Fifo<Deadline> deadlines_;
  std::uint32_t deadline_port_id_ = kNoPort;
  static constexpr std::uint32_t kNoPort = ~std::uint32_t{0};
  // Where the previous delivery's settle ended (Scheduler::settle_virtual).
  std::uint64_t settle_hint_ = 0;

  std::uint64_t fault_drops_ = 0;

  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_drops_ = 0;
  std::uint64_t total_delivered_ = 0;
  SimTime busy_time_ = SimTime::zero();  // the eager transmitter's
  // Per-flow counters in first-arrival order, touched on every arrival: a
  // bottleneck carries ~50 flows, so an open-addressed index (flow ->
  // position + 1, 0 = empty; a power of two, at most half full) finds the
  // slot in O(1).
  std::vector<std::pair<FlowId, LinkFlowCounters>> per_flow_;
  std::vector<std::uint32_t> flow_index_ = std::vector<std::uint32_t>(8);

  // In-flight deliveries (FIFO by construction: propagation delay is
  // constant between rescales, so (when, seq) is nondecreasing).  Head is
  // armed in the scheduler.
  Fifo<PendingDelivery> deliveries_;
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
  // A bound lazy link (replay_) replays the eager queue: of its admitted
  // and parked packets, in FIFO order, those before obs_started_ /
  // obs_arrived_ have started / arrived.
  mutable Fifo<Traced> traced_;
  mutable std::size_t obs_started_ = 0;
  mutable std::size_t obs_arrived_ = 0;

  // A delay factor below an earlier one keeps the hop into the receiver
  // real (`real_hop_`).
  double max_delay_factor_ = 1.0;
  bool real_hop_ = false;
};

}  // namespace dmp

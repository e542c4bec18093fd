// Unidirectional link: a pluggable queue discipline feeding a fixed-rate
// transmitter with constant propagation delay.  With the default DropTail
// discipline this is the ns-2 DropTail/DelayLink pair in one object,
// byte-identical to the pre-qdisc implementation; PIE / FQ-PIE / CoDel
// (src/net/qdisc/) swap the enqueue/drop decision without touching the
// transmitter, fault hooks or observability.
//
// A link runs eager (a tx-done event per packet) or lazy: an unbounded
// drop-tail link whose owner allows it computes each departure at send(),
// d = max(now, d_prev) + tx, and keeps the tx-done as a virtual scheduler
// event that never enters the queue.  Pop order, delivery times and
// events_executed() are identical either way (docs/DES_ENGINE.md).
#pragma once

#include <cstdint>
#include <memory>
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
  // stage directly instead of going through a std::function.
  void set_receiver(PacketHandler receiver) {
    next_link_ = nullptr;
    next_demux_ = nullptr;
    receiver_ = std::move(receiver);
  }
  void set_receiver(Link* next) {
    next_link_ = next;
    next_demux_ = nullptr;
    receiver_ = nullptr;
  }
  void set_receiver(FlowDemux* demux) {
    next_link_ = nullptr;
    next_demux_ = demux;
    receiver_ = nullptr;
  }

  // Offer to the queue discipline; may drop (tail or AQM-early) on arrival,
  // and AQM disciplines may additionally discard queued packets later.
  void send(const Packet& p);

  std::size_t queue_length() const;
  const LinkConfig& config() const { return config_; }

  // Lazy mode.  The owner allows it (default: not allowed) when no fault
  // hook will reach the link; the link then goes lazy at its first send if
  // it also has an unbounded drop-tail queue, no hub sink bound, and a
  // scheduler whose counters are unobserved.  Fault hooks and sink binding
  // on a lazy link throw std::logic_error.
  void set_lazy_allowed(bool allowed);
  bool lazy() const { return mode_ == Mode::kLazy; }

  // Aggregate and per-flow counters.  Delivered counts transmissions
  // completed by now; on a lazy link it, queue_length() and utilization()
  // walk the in-flight packets.
  std::uint64_t total_arrivals() const { return total_arrivals_; }
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
  // While down the link drops every arrival (counted in fault_drops(), NOT
  // in the congestion counters the measured p_k is built from), finishes
  // the transmission already on the wire, and freezes its queue.  Raising
  // the link resumes draining the frozen queue.
  void set_down(bool down);
  bool down() const { return down_; }
  // Drops the next `count` arrivals (burst loss); cumulative across calls.
  void drop_next(std::uint64_t count) {
    require_eager("drop_next");
    burst_remaining_ += count;
  }
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
  // queue_depth}` channels; an empty one binds flight spans only.
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
  enum class Mode : std::uint8_t { kUndecided, kEager, kLazy };

  static void tx_done_port(void* ctx) {
    static_cast<Link*>(ctx)->on_transmit_done();
  }
  static void delivery_port(void* ctx) {
    static_cast<Link*>(ctx)->on_delivery();
  }

  void decide_mode();
  void send_lazy(const Packet& p);
  // Lazy links: in-flight packets whose tx-done is still ahead (the first
  // of them is on the wire, the rest queued), and their queued tx time.
  std::size_t lazy_ahead(SimTime* queued_tx) const;
  void require_eager(const char* hook);
  bool bound() const;
  void start_transmission(const Packet& p);
  void on_transmit_done();
  void on_delivery();
  void deliver(const Packet& p);
  void on_qdisc_drop(const Packet& victim, QdiscDropReason reason);
  LinkFlowCounters& flow_slot(FlowId flow);

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
  bool fault_touched_ = false;  // a fault hook ran before the first send
  // Lazy links: the newest packet's virtual tx-done and departure (before
  // the clock starts until the first send).
  std::uint64_t last_vtx_ = 0;
  SimTime last_departure_ = SimTime::nanos(-1);

  bool down_ = false;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t fault_drops_ = 0;

  std::uint64_t total_arrivals_ = 0;
  std::uint64_t total_drops_ = 0;
  std::uint64_t total_delivered_ = 0;
  SimTime busy_time_ = SimTime::zero();
  // Flat per-flow counters: a link carries a handful of flows, and send()
  // touches this on every arrival — a hinted linear scan beats hashing.
  std::vector<std::pair<FlowId, LinkFlowCounters>> per_flow_;
  std::size_t flow_hint_ = 0;  // index of the last flow touched

  // In-flight deliveries (FIFO by construction: propagation delay is
  // constant between rescales, so (when, seq) is nondecreasing).  Head is
  // armed in the scheduler; `deliveries_head_` is the ring's pop cursor.
  std::vector<PendingDelivery> deliveries_;
  std::size_t deliveries_head_ = 0;
  PacketPool pool_;
  std::uint32_t tx_done_port_id_ = 0;
  std::uint32_t delivery_port_id_ = 0;

  void record_flight(const Packet& p, obs::FlightEventKind kind,
                     std::size_t queue_depth,
                     obs::DropCause cause = obs::DropCause::kNone);

  obs::Counter* m_arrivals_ = nullptr;
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_early_drops_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::int32_t flight_hop_ = -1;
  obs::TimeSeriesChannel* ts_delivered_ = nullptr;
  obs::TimeSeriesChannel* ts_drops_ = nullptr;
  obs::TimeSeriesChannel* ts_queue_ = nullptr;
};

}  // namespace dmp

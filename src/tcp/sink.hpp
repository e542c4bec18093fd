// TCP receiver: reassembles segments, delivers app packets in order, and
// generates cumulative ACKs with the standard delayed-ACK policy (ack every
// second segment or after 100 ms; immediate duplicate ACKs on out-of-order
// arrivals; immediate ACK when a retransmission fills a gap).
//
// A sink nothing reads (no deliver callback, no hub binding) whose ACKs
// enter a link it alone feeds runs ahead of the clock: the lazy link before
// its demux hands it each delivery when it admits the packet, as a virtual
// delivery event, and the sink sends each ACK into its link as a virtual
// arrival at that event.  Its delayed-ACK deadline is keyed by the claim of
// the delivery that armed it: the next delivery fires it first, as a
// virtual timer event, or supersedes it; one that no delivery settles
// fires at the link's watch (docs/DES_ENGINE.md, "Lazy sinks").  Every
// other sink takes its deliveries at the clock and keeps a timer.  Only
// the outlet differs: one on_data serves both.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/demux.hpp"
#include "net/packet.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_config.hpp"

namespace dmp {

class Link;

class TcpSink final : public AheadReceiver {
 public:
  // `deliver` receives (app_tag, arrival_time) for each segment the moment
  // TCP releases it in order to the application.
  using DeliverFn = std::function<void(std::int64_t app_tag, SimTime when)>;

  // `ack_link`, when given, is the link `ack_out` sends into, fed by this
  // sink alone: the sink may then run ahead of the clock.
  TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
          PacketHandler ack_out, Link* ack_link = nullptr);

  void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }
  // A data segment delivered at `when`: the clock, unless the sink runs
  // ahead of it (then inside take()).
  void on_data(const Packet& p, SimTime when);
  void on_data(const Packet& p) { on_data(p, sched_.now()); }

  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t segments_received() const { return segments_received_; }
  std::uint64_t duplicate_segments() const { return duplicate_segments_; }
  std::uint64_t out_of_order_segments() const { return out_of_order_segments_; }

  // Binds the hub under `prefix` (optional; a no-op when never called):
  // `.{segments_received,duplicate_segments,out_of_order_segments}`
  // counters, a `.reorder_buffer` gauge, kSinkRx / kDeliver flight spans
  // (their gap is head-of-line wait), and a `.reorder_depth` channel.
  void bind(obs::Hub& hub, const std::string& prefix);

  // --- AheadReceiver: deliveries ahead of the clock ---
  bool takes_ahead() override;
  SimTime take(const Packet& p, SimTime when, std::uint64_t event,
               SimTime chain_start) override;
  bool waits(std::uint64_t event) const override {
    return ack_pending_ && deadline_event_ == event;
  }
  void expire() override;

 private:
  // The outlet: at the clock a timer and `ack_out_`; ahead of it, claimed
  // keys and `ack_link_`.
  void arm_delack(SimTime when);
  void send_ack();
  // Armed only while an ACK is pending (send_ack disarms it).
  static void delack_port(void* ctx) {
    auto* sink = static_cast<TcpSink*>(ctx);
    sink->at_ = sink->sched_.now();
    sink->send_ack();
  }
  void record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                     std::int64_t seq);

  Scheduler& sched_;
  FlowId flow_;
  TcpConfig config_;
  PacketHandler ack_out_;
  Link* ack_link_;
  DeliverFn deliver_;
  bool bound_ = false;
  bool ahead_ = false;  // takes_ahead() said yes

  // The event being handled: its time, and ahead of the clock its virtual
  // event and fused chain's start.
  SimTime at_ = SimTime::zero();
  std::uint64_t event_ = 0;
  SimTime chain_start_ = SimTime::zero();
  // Ahead of the clock, the pending deadline: its time, the delivery event
  // whose claim 0 keys it, and that event's chain start.
  SimTime deadline_ = SimTime::zero();
  std::uint64_t deadline_event_ = 0;
  SimTime deadline_chain_ = SimTime::zero();

  std::int64_t rcv_nxt_ = 0;
  std::map<std::int64_t, std::int64_t> reorder_buffer_;  // seq -> app_tag
  bool ack_pending_ = false;
  std::uint32_t delack_timer_ = 0;

  std::uint64_t segments_received_ = 0;
  std::uint64_t duplicate_segments_ = 0;
  std::uint64_t out_of_order_segments_ = 0;

  obs::Counter* m_received_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_out_of_order_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_reorder_ = nullptr;
};

}  // namespace dmp

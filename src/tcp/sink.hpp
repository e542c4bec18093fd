// TCP receiver: reassembles segments, delivers app packets in order, and
// generates cumulative ACKs with the standard delayed-ACK policy (ack every
// second segment or after 100 ms; immediate duplicate ACKs on out-of-order
// arrivals; immediate ACK when a retransmission fills a gap).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/packet.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_config.hpp"

namespace dmp {

class TcpSink {
 public:
  // `deliver` receives (app_tag, arrival_time) for each segment the moment
  // TCP releases it in order to the application.
  using DeliverFn = std::function<void(std::int64_t app_tag, SimTime when)>;

  TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
          PacketHandler ack_out);

  void set_deliver_callback(DeliverFn fn) { deliver_ = std::move(fn); }
  void on_data(const Packet& p);

  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t segments_received() const { return segments_received_; }
  std::uint64_t duplicate_segments() const { return duplicate_segments_; }
  std::uint64_t out_of_order_segments() const { return out_of_order_segments_; }

  // Binds the hub under `prefix` (optional; a no-op when never called):
  // `.{segments_received,duplicate_segments,out_of_order_segments}`
  // counters, a `.reorder_buffer` gauge, kSinkRx / kDeliver flight spans
  // (their gap is head-of-line wait), and a `.reorder_depth` channel.
  void bind(obs::Hub& hub, const std::string& prefix);

 private:
  void send_ack();
  // Armed only while an ACK is pending (send_ack disarms it).
  static void delack_port(void* ctx) { static_cast<TcpSink*>(ctx)->send_ack(); }
  void record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                     std::int64_t seq);

  Scheduler& sched_;
  FlowId flow_;
  TcpConfig config_;
  PacketHandler ack_out_;
  DeliverFn deliver_;

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

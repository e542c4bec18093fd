#include "tcp/sink.hpp"

namespace dmp {

TcpSink::TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
                 PacketHandler ack_out)
    : sched_(sched), flow_(flow), config_(config), ack_out_(std::move(ack_out)) {
  delack_timer_ = sched_.register_timer(&TcpSink::delack_port, this,
                                        EventCategory::kTcpTimer);
}

void TcpSink::bind(obs::Hub& hub, const std::string& prefix) {
  m_received_ = hub.counter(prefix + ".segments_received");
  m_duplicates_ = hub.counter(prefix + ".duplicate_segments");
  m_out_of_order_ = hub.counter(prefix + ".out_of_order_segments");
  if (obs::Gauge* depth = hub.gauge(prefix + ".reorder_buffer")) {
    depth->set_sampler([this] {
      return static_cast<double>(reorder_buffer_.size());
    });
  }
  flight_ = hub.flight();
  ts_reorder_ = hub.channel(prefix + ".reorder_depth");
}

void TcpSink::record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                            std::int64_t seq) {
  obs::FlightEvent e;
  e.t_ns = sched_.now().ns();
  e.kind = kind;
  e.packet = app_tag;
  e.path = static_cast<std::int32_t>(flow_);
  e.seq = seq;
  e.queue = static_cast<std::int64_t>(reorder_buffer_.size());
  flight_->record(e);
}

void TcpSink::on_data(const Packet& p) {
  ++segments_received_;
  if (m_received_) m_received_->inc();
  if (ts_reorder_) {
    ts_reorder_->add(sched_.now(),
                     static_cast<double>(reorder_buffer_.size()));
  }
  if (flight_ && p.app_tag >= 0) {
    record_flight(obs::FlightEventKind::kSinkRx, p.app_tag, p.seq);
  }

  if (p.seq == rcv_nxt_) {
    const bool filled_gap = !reorder_buffer_.empty();
    if (flight_ && p.app_tag >= 0) {
      record_flight(obs::FlightEventKind::kDeliver, p.app_tag, p.seq);
    }
    if (deliver_) deliver_(p.app_tag, sched_.now());
    ++rcv_nxt_;
    // Release any buffered segments that are now in order.
    auto it = reorder_buffer_.begin();
    while (it != reorder_buffer_.end() && it->first == rcv_nxt_) {
      if (flight_ && it->second >= 0) {
        record_flight(obs::FlightEventKind::kDeliver, it->second, it->first);
      }
      if (deliver_) deliver_(it->second, sched_.now());
      ++rcv_nxt_;
      it = reorder_buffer_.erase(it);
    }

    if (!config_.delayed_ack || filled_gap) {
      send_ack();
    } else if (ack_pending_) {
      send_ack();  // every second in-order segment
    } else {
      ack_pending_ = true;
      sched_.arm(delack_timer_, sched_.now() + config_.delack_timeout);
    }
    return;
  }

  if (p.seq > rcv_nxt_) {
    ++out_of_order_segments_;
    if (m_out_of_order_) m_out_of_order_->inc();
    reorder_buffer_.emplace(p.seq, p.app_tag);
    send_ack();  // duplicate ACK, immediately
    return;
  }

  // Segment below rcv_nxt_: spurious retransmission.
  ++duplicate_segments_;
  if (m_duplicates_) m_duplicates_->inc();
  send_ack();
}

void TcpSink::send_ack() {
  ack_pending_ = false;
  sched_.disarm(delack_timer_);
  Packet ack;
  ack.flow = flow_;
  ack.kind = PacketKind::kAck;
  ack.seq = rcv_nxt_;
  ack.size_bytes = kAckPacketBytes;
  // Diagnostic timestamp, only consumed by trace tooling — skip the write
  // on uninstrumented hot paths.
  if (flight_) ack.injected = sched_.now();
  ack_out_(ack);
}

}  // namespace dmp

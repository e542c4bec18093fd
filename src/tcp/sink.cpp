#include "tcp/sink.hpp"

#include "net/link.hpp"

namespace dmp {

TcpSink::TcpSink(Scheduler& sched, FlowId flow, TcpConfig config,
                 PacketHandler ack_out, Link* ack_link)
    : sched_(sched),
      flow_(flow),
      config_(config),
      ack_out_(std::move(ack_out)),
      ack_link_(ack_link) {
  delack_timer_ = sched_.register_timer(&TcpSink::delack_port, this,
                                        EventCategory::kTcpTimer);
}

void TcpSink::bind(obs::Hub& hub, const std::string& prefix) {
  bound_ = true;
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

// What the sink does is read by nothing but its ACKs, which enter a link it
// alone feeds; that link must take them as virtual arrivals.
bool TcpSink::takes_ahead() {
  ahead_ = !deliver_ && !bound_ && ack_link_ != nullptr &&
           ack_link_->take_source();
  return ahead_;
}

// The eager sink would pop the deadline first iff its key orders before
// the delivery's; otherwise the delivery supersedes it.
SimTime TcpSink::take(const Packet& p, SimTime when, std::uint64_t event,
                      SimTime chain_start) {
  if (ack_pending_ &&
      (deadline_ < when ||
       (deadline_ == when &&
        sched_.key_before(deadline_, Scheduler::virtual_seq(deadline_event_, 0),
                          event)))) {
    expire();
  }
  event_ = event;
  chain_start_ = chain_start;
  on_data(p, when);
  return waits(event) ? deadline_ : SimTime::max();
}

// The deadline fires as a virtual timer event at its key.
void TcpSink::expire() {
  ack_pending_ = false;
  event_ = sched_.add_virtual(deadline_,
                              Scheduler::virtual_seq(deadline_event_, 0), 0,
                              EventCategory::kTcpTimer);
  at_ = deadline_;
  chain_start_ = deadline_chain_;
  send_ack();
}

void TcpSink::record_flight(obs::FlightEventKind kind, std::int64_t app_tag,
                            std::int64_t seq) {
  obs::FlightEvent e;
  e.t_ns = at_.ns();
  e.kind = kind;
  e.packet = app_tag;
  e.path = static_cast<std::int32_t>(flow_);
  e.seq = seq;
  e.queue = static_cast<std::int64_t>(reorder_buffer_.size());
  flight_->record(e);
}

void TcpSink::on_data(const Packet& p, SimTime when) {
  at_ = when;
  ++segments_received_;
  if (m_received_) m_received_->inc();
  if (ts_reorder_) {
    ts_reorder_->add(when, static_cast<double>(reorder_buffer_.size()));
  }
  if (flight_ && p.app_tag >= 0) {
    record_flight(obs::FlightEventKind::kSinkRx, p.app_tag, p.seq);
  }

  if (p.seq == rcv_nxt_) {
    const bool filled_gap = !reorder_buffer_.empty();
    if (flight_ && p.app_tag >= 0) {
      record_flight(obs::FlightEventKind::kDeliver, p.app_tag, p.seq);
    }
    if (deliver_) deliver_(p.app_tag, when);
    ++rcv_nxt_;
    // Release any buffered segments that are now in order.
    auto it = reorder_buffer_.begin();
    while (it != reorder_buffer_.end() && it->first == rcv_nxt_) {
      if (flight_ && it->second >= 0) {
        record_flight(obs::FlightEventKind::kDeliver, it->second, it->first);
      }
      if (deliver_) deliver_(it->second, when);
      ++rcv_nxt_;
      it = reorder_buffer_.erase(it);
    }

    if (!config_.delayed_ack || filled_gap) {
      send_ack();
    } else if (ack_pending_) {
      send_ack();  // every second in-order segment
    } else {
      ack_pending_ = true;
      arm_delack(when + config_.delack_timeout);
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

// Ahead of the clock the deadline is keyed by the delivery's claim 0, which
// the eager arm's real claim becomes.
void TcpSink::arm_delack(SimTime when) {
  if (!ahead_) {
    sched_.arm(delack_timer_, when);
    return;
  }
  deadline_ = when;
  deadline_event_ = event_;
  deadline_chain_ = chain_start_;
  sched_.use_claim(Scheduler::virtual_seq(event_, 0));
}

void TcpSink::send_ack() {
  if (!ahead_) {
    sched_.disarm(delack_timer_);
  } else if (ack_pending_) {
    sched_.supersede_at(deadline_);
  }
  ack_pending_ = false;
  Packet ack;
  ack.flow = flow_;
  ack.kind = PacketKind::kAck;
  ack.seq = rcv_nxt_;
  ack.size_bytes = kAckPacketBytes;
  // Diagnostic timestamp, only consumed by trace tooling — skip the write
  // on uninstrumented hot paths.
  if (flight_) ack.injected = at_;
  if (ahead_) {
    ack_link_->arrive_at(at_, event_, ack, chain_start_);
  } else {
    ack_out_(ack);
  }
}

}  // namespace dmp

// TCP Reno sender agent (one-way data, ns-2 style).
//
// The application hands the sender MSS-sized "app packets" (each carrying an
// opaque tag, e.g. the stream packet number) through a bounded send buffer.
// `space()` and the space callback are the hook DMP-streaming uses: a sender
// with free buffer space pulls more packets from the shared server queue
// (the StreamSender interface).
//
// A positive send overhead delays each segment by a random jitter on its
// way out (ns-2's overhead_), kept FIFO.  Sent into a private entry link
// that runs lazy, the delay is a virtual arrival on that link; otherwise
// the sender's own emission ring pops each segment (EventCategory::
// kTcpSend).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "tcp/stream_sender.hpp"
#include "tcp/tcp_config.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class Link;

class RenoSender final : public StreamSender {
 public:
  // `entry`, when given, is the link `network_out` sends into, fed by this
  // sender alone: a jitter-delayed segment then enters it as a virtual
  // arrival when it runs lazy.
  RenoSender(Scheduler& sched, FlowId flow, TcpConfig config,
             PacketHandler network_out, Link* entry = nullptr);

  // --- StreamSender: the application side ---
  // Segments wait in a bounded send buffer and go out as soon as the
  // window allows; the space callback runs when ACKs free buffer space,
  // after the sender has used the new window itself.
  std::size_t space() const override;
  bool enqueue(std::int64_t app_tag) override;
  void set_space_callback(std::function<void()> cb) override {
    space_cb_ = std::move(cb);
  }
  // Pops the never-transmitted segments off the back of the send buffer;
  // segments ever sent stay — their recovery is TCP's job.
  std::vector<std::int64_t> reclaim_unsent() override;
  std::vector<AtRiskSegment> transmitted_unacked() const override {
    std::vector<AtRiskSegment> at_risk;
    for (const auto& segment : segments_) {
      if (segment.times_sent > 0) {
        at_risk.push_back(AtRiskSegment{segment.app_tag, segment.last_sent});
      }
    }
    return at_risk;
  }
  // Karn-filtered; 0 until the first valid sample.
  double srtt_s() const override { return rtt_valid_ ? srtt_s_ : 0.0; }
  // The head-of-line packet this sender's path is blocking; O(1).
  std::int64_t oldest_unacked_tag() const override {
    if (segments_.empty() || segments_.front().times_sent == 0) return -1;
    return segments_.front().app_tag;
  }
  // Doubles per consecutive timeout, up to 64.
  std::uint32_t rto_backoff() const override { return backoff_; }

  // --- network side ---
  void on_ack(const Packet& ack);

  // --- introspection ---
  FlowId flow() const { return flow_; }
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  std::int64_t snd_max() const { return snd_max_; }
  // Segments enqueued and not yet cumulatively acknowledged.
  std::size_t buffered() const { return segments_.size(); }
  SimTime current_rto() const;
  const TcpSenderStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }

  // Reset cwnd after an application idle period (slow-start restart); used
  // by the HTTP background source between transfers.
  void idle_restart();

  // Binds the hub under `prefix` (optional; a no-op when never called):
  // `.{cwnd,ssthresh,srtt_s,rto_s,buffered}` gauges, counters mirroring
  // `stats()`, the `.ack_interarrival_s` histogram; "rto" / "fast_retransmit"
  // / "ss_to_ca" events; flight spans for send-buffer enqueues,
  // (re)transmissions (with cwnd/ssthresh and the recovery mechanism) and
  // RTOs; and `.{cwnd,srtt_s}` channels sampled on every cumulative ACK,
  // so the windows catch the sawtooth a fixed-interval probe aliases over.
  void bind(obs::Hub& hub, const std::string& prefix);

 private:
  struct Segment {
    std::int64_t app_tag;
    std::uint32_t times_sent = 0;
    SimTime last_sent = SimTime::zero();
  };

  // One jitter-delayed emission: a (when, seq) key claimed from the
  // scheduler at transmit() time plus the packet itself.  `when` is
  // strictly increasing (the last_emission_ guard), so the ring is FIFO by
  // construction and only its head is ever armed in the event queue.  A
  // lazy entry link takes the emissions instead (Link::send_at): one real
  // pop fewer per segment.
  struct PendingEmission {
    SimTime when;
    std::uint64_t seq;
    Packet p;
  };

  static void emit_port(void* ctx) {
    static_cast<RenoSender*>(ctx)->on_emit();
  }
  static void rto_port(void* ctx) { static_cast<RenoSender*>(ctx)->on_rto(); }

  Segment& seg(std::int64_t seq) {
    return segments_[static_cast<std::size_t>(seq - snd_una_)];
  }
  std::int64_t enq_end() const {
    return snd_una_ + static_cast<std::int64_t>(segments_.size());
  }

  void try_send();
  void emit(std::int64_t seq);
  void transmit(const Packet& p);
  void on_emit();
  void open_cwnd(std::int64_t newly_acked);
  void enter_fast_recovery();
  void on_rto();
  void arm_rto();
  void rtt_sample(SimTime sample);

  Scheduler& sched_;
  FlowId flow_;
  TcpConfig config_;
  PacketHandler out_;
  Link* entry_ = nullptr;  // the link out_ sends into, when fed by us alone
  std::function<void()> space_cb_;

  std::deque<Segment> segments_;  // front = snd_una_
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_max_ = 0;

  double cwnd_;
  double ssthresh_;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;

  // Jacobson/Karn estimator state (seconds).
  bool rtt_valid_ = false;
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  std::uint32_t backoff_ = 1;
  bool timing_ = false;
  std::int64_t rtt_seq_ = -1;
  SimTime rtt_ts_ = SimTime::zero();
  std::uint32_t rtx_timer_ = 0;

  Rng jitter_rng_;
  SimTime last_emission_ = SimTime::zero();  // keeps jittered sends FIFO
  // Jitter-delayed packets waiting for their armed head to fire;
  // `emissions_head_` is the ring's pop cursor.
  std::vector<PendingEmission> emissions_;
  std::size_t emissions_head_ = 0;
  std::uint32_t emit_port_id_ = 0;

  TcpSenderStats stats_;

  obs::Counter* m_data_sent_ = nullptr;
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;
  obs::Counter* m_fast_retransmits_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Histogram* m_ack_interarrival_ = nullptr;
  SimTime last_ack_at_ = SimTime::zero();
  bool seen_ack_ = false;
  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_cwnd_ = nullptr;
  obs::TimeSeriesChannel* ts_srtt_ = nullptr;
};

}  // namespace dmp

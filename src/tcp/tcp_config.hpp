// Parameters of the simulated TCP Reno agent.
//
// The agent follows the ns-2 one-way TCP abstraction the paper simulates
// with: packet-granularity sequence numbers (one segment = one MSS), no
// three-way handshake, cumulative ACKs with the delayed-ACK policy, classic
// Reno loss recovery (fast retransmit + fast recovery, deflate-and-exit on
// the first new ACK), go-back-N after timeout, Jacobson/Karn RTO with
// exponential backoff.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dmp {

struct TcpConfig {
  std::uint32_t mss_bytes = 1500;
  double initial_cwnd = 2.0;
  double initial_ssthresh = 64.0;
  // Maximum congestion window in packets (ns-2 `window_`).
  double max_cwnd = 64.0;
  // Application send buffer in packets: unsent + sent-but-unacked segments.
  // This bound is what makes DMP-streaming's implicit bandwidth inference
  // work — a sender blocks when it fills, and frees space at its ACK rate.
  std::size_t send_buffer_packets = 64;
  SimTime min_rto = SimTime::millis(200);
  SimTime max_rto = SimTime::seconds(64);
  SimTime delack_timeout = SimTime::millis(100);
  bool delayed_ack = true;
  // Random per-send processing delay, uniform in [0, send_overhead_s]
  // (ns-2's `overhead_`).  Deterministic simulations of identical flows on
  // one drop-tail queue phase-lock (Floyd/Jacobson phase effects); a small
  // overhead breaks the synchronization.  0 disables it.
  double send_overhead_s = 0.0;
  // Seed for the overhead jitter stream (combined with the flow id).
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
};

// `tcp` with the default anti-phase-effect jitter (ns-2 `overhead_`
// practice) when it sets no send overhead: 0.5 ms, its jitter stream
// seeded from the next draw of `rng`.  An explicit overhead is kept and
// `rng` is left untouched.
inline TcpConfig with_default_send_jitter(TcpConfig tcp, Rng& rng) {
  if (tcp.send_overhead_s == 0.0) {
    tcp.send_overhead_s = 0.0005;
    tcp.jitter_seed = rng.next_u64();
  }
  return tcp;
}

// Counters and estimates exported by a sender for the paper's per-path
// statistics (loss rate p, RTT R, normalized timeout TO = R_TO / R).
struct TcpSenderStats {
  std::uint64_t data_packets_sent = 0;   // first transmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;            // RTO expirations
  std::uint64_t fast_retransmits = 0;
  std::uint64_t acks_received = 0;
  double rtt_sample_sum_s = 0.0;         // Karn-filtered RTT samples
  std::uint64_t rtt_sample_count = 0;
  double rto_sample_sum_s = 0.0;         // RTO value observed at each RTT sample
  std::uint64_t rto_sample_count = 0;
  double rto_at_timeout_sum_s = 0.0;     // first (non-backed-off) RTO at expiry
  std::uint64_t rto_at_timeout_count = 0;

  double mean_rtt_s() const {
    return rtt_sample_count == 0 ? 0.0
                                 : rtt_sample_sum_s /
                                       static_cast<double>(rtt_sample_count);
  }
  double mean_rto_s() const {
    return rto_sample_count == 0 ? 0.0
                                 : rto_sample_sum_s /
                                       static_cast<double>(rto_sample_count);
  }
  // The paper's TO_k = R_TO / R.
  double normalized_timeout() const {
    const double r = mean_rtt_s();
    return r <= 0.0 ? 0.0 : mean_rto_s() / r;
  }
};

}  // namespace dmp

// Offline analysis of flight-recorder traces: per-packet timeline
// reconstruction and deadline-miss attribution.
//
// The paper's headline metric is the fraction of packets missing their
// playback deadline n/mu + tau (Figs. 4-5, 7, 9).  The analyzer walks a
// FlightRecorder trace, rebuilds each packet's journey (server queue ->
// TCP send buffer -> bottleneck queue -> receiver reorder buffer ->
// playback), and assigns every late packet exactly one dominant cause:
//
//   queueing        lateness dominated by drop-tail queueing delay at the
//                   bottleneck (no loss involved)
//   loss_fast_rtx   the packet itself was lost and recovered by a fast
//                   retransmit (triple-dupack path)
//   rto_stall       the packet was retransmitted after a timeout, or its
//                   flight window spans an RTO on its path (go-back-N /
//                   window-collapse stall)
//   hol_wait        head-of-line wait: the packet reached the receiver in
//                   time but sat in the reorder buffer behind an earlier
//                   retransmitted segment
//   path_imbalance  lateness dominated by waiting before first
//                   transmission (server queue + send buffer): the path
//                   pulled more of the stream than it could carry
//   never_arrived   generated but not delivered by the end of the run
//   path_fault      the packet's flight window overlaps an injected fault
//                   on its delivering path (link_down..link_up outage
//                   window or a burst_loss instant, src/fault/) — the
//                   outage, not organic congestion, explains the miss
//
// Deadline evaluation replicates StreamTrace::late_fraction_playback_order
// operation-for-operation (same SimTime integer-nanosecond arithmetic,
// same iteration over arrivals), so the analyzer's late count reconciles
// EXACTLY with the trace metric — pinned by tests/obs/.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace dmp::obs {

enum class LateCause : std::uint8_t {
  kQueueing = 0,
  kLossFastRtx = 1,
  kRtoStall = 2,
  kHolWait = 3,
  kPathImbalance = 4,
  kNeverArrived = 5,
  kPathFault = 6,
};
inline constexpr std::size_t kNumLateCauses = 7;

std::string_view late_cause_name(LateCause cause);

// One reconstructed packet journey.  Times are nanoseconds on the
// recorder's clock; -1 marks a station the packet never reached (or one
// that was not instrumented).
struct PacketTimeline {
  std::int64_t packet = -1;
  std::int32_t path = -1;  // path that delivered (or last carried) it

  std::int64_t gen_ns = -1;      // entered the server queue
  std::int64_t pull_ns = -1;     // fetched by a sender
  std::int64_t enqueue_ns = -1;  // appended to the TCP send buffer

  struct Send {
    std::int64_t t_ns = 0;
    std::int64_t seq = -1;
    std::uint32_t attempt = 0;
    RtxReason reason = RtxReason::kNone;
    double cwnd = 0.0;
    double ssthresh = 0.0;
  };
  std::vector<Send> sends;  // first transmission + every retransmission

  struct HopTraversal {
    std::int32_t hop = -1;
    std::int64_t enqueue_ns = -1;
    std::int64_t dequeue_ns = -1;  // -1: still queued or dropped
    bool dropped = false;
  };
  std::vector<HopTraversal> hops;  // one per link pass, in event order

  std::int64_t sink_rx_ns = -1;   // segment reached the receiver
  std::int64_t deliver_ns = -1;   // released in order by the sink
  std::int64_t arrive_ns = -1;    // recorded into the client trace

  std::uint32_t drops = 0;          // drop-tail discards of this packet
  std::uint32_t transmissions = 0;  // total kTcpSend events

  // Derived wait components (ns; 0 when the stations are missing).
  std::int64_t pre_tx_wait_ns() const;   // generation -> first send
  std::int64_t link_queue_wait_ns() const;  // sum of completed hop waits
  std::int64_t reorder_wait_ns() const;  // sink_rx -> in-order delivery
};

// Verdict for one arrival (mirrors one StreamTrace entry).
struct PacketVerdict {
  std::int64_t packet = -1;
  std::int64_t arrive_rel_ns = -1;    // arrival relative to the epoch
  std::int64_t deadline_rel_ns = -1;  // n/mu + tau, relative to the epoch
  bool late = false;
  LateCause cause = LateCause::kQueueing;  // meaningful only when late
};

struct AttributionReport {
  std::int64_t total_packets = 0;
  std::int64_t arrived = 0;  // arrivals with packet < total_packets
  std::int64_t late = 0;     // includes never-arrived packets
  std::array<std::int64_t, kNumLateCauses> by_cause{};
  std::vector<PacketVerdict> verdicts;  // late arrivals only, arrival order

  // Identical to StreamTrace::late_fraction_playback_order on the same
  // trace (0 when total_packets <= 0, matching its guard).
  double late_fraction() const {
    return total_packets <= 0
               ? 0.0
               : static_cast<double>(late) / static_cast<double>(total_packets);
  }
};

// Per-path summary for the trace_query CLI.
struct PathHopStats {
  std::int32_t path = -1;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rtos = 0;
  // Bottleneck-queue wait percentiles over completed hop traversals (s).
  double queue_wait_p50_s = 0.0;
  double queue_wait_p90_s = 0.0;
  double queue_wait_p99_s = 0.0;
  double queue_wait_max_s = 0.0;
};

class TraceAnalyzer {
 public:
  // Builds timelines from an in-memory recorder.  The recorder must
  // outlive the analyzer only for this call; everything is copied out.
  explicit TraceAnalyzer(const FlightRecorder& recorder);

  double mu_pps() const { return mu_pps_; }
  std::int64_t epoch_ns() const { return epoch_ns_; }
  std::int64_t total_packets_hint() const { return total_packets_; }

  const std::map<std::int64_t, PacketTimeline>& timelines() const {
    return timelines_;
  }
  // Null when the packet never appeared in the trace.
  const PacketTimeline* timeline(std::int64_t packet) const;

  // Deadline-miss attribution at startup delay `tau_s`, over packets
  // [0, total_packets).  Pass total_packets < 0 to use the trace meta.
  AttributionReport attribute(double tau_s,
                              std::int64_t total_packets = -1) const;

  // Per-path hop-latency percentiles and loss/retransmission totals.
  std::vector<PathHopStats> path_stats() const;

  // Packets sent more than once, in packet order (retransmission chains).
  std::vector<const PacketTimeline*> retransmitted_packets() const;

  // RTO instants per path (flow), sorted; used for stall attribution.
  const std::map<std::int32_t, std::vector<std::int64_t>>& rto_times() const {
    return rto_times_;
  }

  // Injected-fault windows per path, in trace order: [start, end] ns.
  // link_down opens a window (closed by the next link_up, or running to
  // INT64_MAX when the path never recovers); burst_loss contributes a
  // point window [t, t].
  const std::map<std::int32_t,
                 std::vector<std::pair<std::int64_t, std::int64_t>>>&
  fault_windows() const {
    return fault_windows_;
  }

  // Dominant-cause decision for one late arrival; exposed for tests.
  LateCause classify(const PacketTimeline& tl) const;

 private:
  double mu_pps_ = 0.0;
  std::int64_t epoch_ns_ = 0;
  std::int64_t total_packets_ = -1;
  std::map<std::int64_t, PacketTimeline> timelines_;
  // (packet, absolute arrival ns) in arrival order — mirrors the
  // StreamTrace entry vector so attribution iterates identically.
  std::vector<std::pair<std::int64_t, std::int64_t>> arrivals_;
  std::map<std::int32_t, std::vector<std::int64_t>> rto_times_;
  std::map<std::int32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      fault_windows_;
};

// Reads a trace serialized by FlightRecorder::to_jsonl back into a
// recorder (meta + events).  Each line goes through the util/json parser;
// integer fields are read exactly from their spelling, so nanosecond
// stamps above 2^53 survive.  Throws std::runtime_error naming the 1-based
// line of a malformed entry (bad JSON, missing "ev"/t_ns/pkt, an unknown
// event type or a non-integer integer field).
FlightRecorder read_flight_trace(std::istream& in);
FlightRecorder read_flight_trace_file(const std::string& path);

}  // namespace dmp::obs

// Per-packet flight recorder: every stream packet's lifecycle as typed
// span events, from server pull to playback verdict.
//
// PR 1's metrics layer aggregates (how many packets were late); the flight
// recorder answers *why a specific packet* was late — which path carried
// it, how long it sat in the server queue and the TCP send buffer, whether
// it was dropped at a bottleneck, recovered by fast retransmit or an RTO,
// and how long it waited in the receiver's reorder buffer behind an
// earlier retransmission.  This is the ns-2 trace-file workflow (and the
// per-request tracing production streaming systems rely on) rebuilt on the
// repo's instrumentation discipline:
//
//   * components hold a null recorder pointer by default — the
//     uninstrumented hot path costs one predictable branch per event;
//   * recording is passive (an append to a flat vector): an instrumented
//     run is packet-for-packet identical to an uninstrumented one, pinned
//     by tests/obs/flight_recorder_test.cpp;
//   * timestamps are integer nanoseconds (simulated or wall-clock
//     monotonic, the caller decides), so serialized traces reconstruct
//     timelines exactly — no double rounding between the recorder and the
//     analyzer's deadline arithmetic.
//
// Serialization is deterministic JSON Lines keyed by the stream packet
// number (`pkt`, the app_tag carried end-to-end); `trace_analyzer.hpp`
// reconstructs timelines and attributes deadline misses, and the
// `trace_query` CLI in tools/ filters and summarizes traces offline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dmp::obs {

// Lifecycle stations, in the order a packet normally visits them.
enum class FlightEventKind : std::uint8_t {
  kGenerate,     // server: CBR source placed the packet in the server queue
  kPull,         // server: sender on `path` fetched it from the queue
  kTcpEnqueue,   // tcp: appended to the sender's bounded send buffer
  kTcpSend,      // tcp: (re)transmission with cwnd/ssthresh snapshot
  kLinkEnqueue,  // net: entered a link's drop-tail queue (hop id attached)
  kLinkDequeue,  // net: left the queue / began transmission at the hop
  kLinkDrop,     // net: drop-tail discard at the hop
  kRto,          // tcp: retransmission timeout fired on this packet's flow
  kSinkRx,       // tcp: segment reached the receiver (possibly out of order)
  kDeliver,      // tcp: released in order by the cumulative-ACK sink
  kArrive,       // stream: client recorded the packet into its trace
  kPathFault,    // fault: injected path event (path-level, packet = -1;
                 // seq carries the fault::FaultKind code, queue the burst
                 // count for burst_loss)
  kSchedDecision,  // server: a PathScheduler redundancy decision — a
                   // duplicate copy (packet >= 0) or an XOR-parity packet
                   // (encoded negative tag) dispatched on `path`.  Plain
                   // pulls keep their kPull event; `pull` runs emit none
                   // of these, keeping compat traces byte-identical.
};

std::string_view flight_event_name(FlightEventKind kind);

// Why a segment was retransmitted (kTcpSend with attempt > 1).
enum class RtxReason : std::uint8_t { kNone = 0, kFastRtx = 1, kRtoRtx = 2 };

std::string_view rtx_reason_name(RtxReason reason);

// Which queue-discipline decision discarded the packet (kLinkDrop events
// on AQM links): "overlimit" = buffer-limit discard, "early" = AQM
// controller decision with buffer room to spare.  kNone — the default,
// and the only value drop-tail links emit — keeps the field out of the
// serialized form entirely, so pre-AQM golden traces stay byte-identical
// (docs/OBSERVABILITY.md, drop-reason taxonomy).
enum class DropCause : std::uint8_t { kNone = 0, kOverlimit = 1, kEarly = 2 };

std::string_view drop_cause_name(DropCause cause);

// One span event.  Fields are kind-specific; unused ones keep their
// sentinel defaults and are omitted from the serialized form.
struct FlightEvent {
  std::int64_t t_ns = 0;  // simulated or monotonic wall-clock nanoseconds
  FlightEventKind kind = FlightEventKind::kGenerate;
  std::int64_t packet = -1;   // stream packet number (app_tag); always set
  std::int32_t path = -1;     // video flow / path index; -1 when unknown
  std::int32_t hop = -1;      // link id for kLink* events
  std::int64_t seq = -1;      // TCP sequence (packet units) for tcp events
  std::int64_t queue = -1;    // queue depth at gen/pull/link events
  std::uint32_t attempt = 0;  // kTcpSend: times this segment has been sent
  RtxReason reason = RtxReason::kNone;  // kTcpSend with attempt > 1
  DropCause drop = DropCause::kNone;    // kLinkDrop on AQM links
  double cwnd = 0.0;          // kTcpSend / kRto congestion snapshot
  double ssthresh = 0.0;
};

// Append-only event store.  One recorder serves a whole run (owned by its
// obs::Hub); components cache a raw pointer when they bind the hub and
// call `record()` behind a null check.
class FlightRecorder {
 public:
  FlightRecorder() = default;

  // Stream parameters the analyzer needs to evaluate playback deadlines:
  // the generation epoch on this recorder's clock, the CBR rate, and the
  // number of packets generated.  May be set (or corrected — e.g. the
  // packet count, known only at the end of a run) any time before writing.
  void set_meta(double mu_pps, std::int64_t epoch_ns,
                std::int64_t total_packets = -1) {
    mu_pps_ = mu_pps;
    epoch_ns_ = epoch_ns;
    total_packets_ = total_packets;
  }
  void set_total_packets(std::int64_t n) { total_packets_ = n; }

  double mu_pps() const { return mu_pps_; }
  std::int64_t epoch_ns() const { return epoch_ns_; }
  std::int64_t total_packets() const { return total_packets_; }

  // In time order: a late event (a lazy link's span) goes after those
  // of its nanosecond recorded so far.
  void record(const FlightEvent& e) {
    if (events_.empty() || events_.back().t_ns <= e.t_ns) {
      events_.push_back(e);
    } else {
      insert_late(e);
    }
  }

  std::size_t size() const { return events_.size(); }
  const std::vector<FlightEvent>& events() const { return events_; }

  // One meta line, then one JSON object per event in time order.  The
  // output is deterministic: identical runs serialize byte-for-byte
  // identically (pinned by the golden-trace test).
  void to_jsonl(std::ostream& out) const;
  // Writes to_jsonl() to `path`; returns false (with a stderr warning)
  // on open/write failure instead of throwing — tracing must never take
  // the run down with it.
  bool write_jsonl(const std::string& path) const;

 private:
  void insert_late(const FlightEvent& e);

  double mu_pps_ = 0.0;
  std::int64_t epoch_ns_ = 0;
  std::int64_t total_packets_ = -1;
  std::vector<FlightEvent> events_;
};

}  // namespace dmp::obs

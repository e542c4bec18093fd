// Pluggable path-scheduling policies for the DMP streaming server.
//
// The paper's scheme hard-codes one policy: pull the head-of-queue packet
// onto whichever path has TCP send-buffer room (Fig. 2).  PathScheduler
// extracts that decision behind an interface so the same server core can
// run alternative policies — the Section-7.4 static split, weighted
// splits, lowest-RTT path, round-robin, per-packet duplication, and XOR
// parity à la CTCP — chosen by a validated spec string (the DMP_SCHED
// bench knob).
//
// Contract (see docs/SCHEDULERS.md for the full decision table):
//   * The server owns the shared queue, the senders and all observability;
//     the scheduler only decides *what to send where next*.  After any
//     hook fires, the server calls pick() repeatedly and executes each
//     decision until pick() returns false.
//   * `pull` reproduces the paper's scheme decision-for-decision: with the
//     default spec the server's pull sequence — and therefore every golden
//     figure — is byte-identical to the pre-interface implementation
//     (pinned by tests/stream/scheduler_differential_test.cpp).
//   * Policies that can deliver a stream packet more than once (redundant,
//     parity-k) declare needs_dedup(); the session then routes client
//     deliveries through a RedundancyFilter for exactly-once semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace dmp {

// Snapshot of one sender/path at decision time.
struct SchedPathState {
  std::size_t space = 0;  // free send-buffer slots
  bool down = false;      // fault injector latched the path down
  double srtt_s = 0.0;    // smoothed RTT estimate (0 until the first sample)
  // Oldest transmitted-but-unacked tag on this path (-1 when none): the
  // head-of-line packet, i.e. the most deadline-critical one still in the
  // path's hands.  Stream tags ascend with generation time, so the global
  // minimum across paths is the packet closest to playing late.
  std::int64_t oldest_unacked = -1;
  // The sender's Karn backoff multiplier (1 = healthy; doubles per
  // consecutive unanswered RTO).  A large value flags a stalled path: its
  // next retransmission may be tens of seconds out, and anything handed to
  // it meanwhile sits behind that stall.
  std::uint32_t rto_backoff = 1;
};

// One transmitted-but-unacked packet on a failed path, as seen at the
// fault instant.  `age_s` (time since its last transmission) separates
// packets that can genuinely be caught in the blackhole — sent within
// ~one RTT of the fault — from older ones that were already delivered
// and merely lost their ACK.
struct AtRiskPacket {
  std::int64_t tag = -1;
  double age_s = 0.0;
};

// One dispatch decision.
struct SchedDecision {
  enum class Kind : std::uint8_t {
    kPull,       // move queue[queue_pos] onto `path` (consumes the packet)
    kDuplicate,  // send a copy of already-pulled `packet` on `path`
    kParity,     // send a synthetic parity packet (negative tag) on `path`
  };
  Kind kind = Kind::kPull;
  std::size_t path = 0;
  std::size_t queue_pos = 0;  // kPull: index into the shared queue
  std::int64_t packet = -1;   // the tag that will ride the wire
};

// XOR-parity packets ride the existing app-tag channel as negative tags, so
// no wire format changes: tag <= kParityTagBase - 2 encodes "parity of the
// k consecutive data packets [first, first + 64)-window".  The simulation
// carries abstract tags rather than payloads, so "XOR recovery" at the
// client means: when all but one covered packet have been seen, the missing
// one is reconstructible (see RedundancyFilter).
inline constexpr std::int64_t kParityTagBase = -1000;
inline constexpr int kParityKMin = 2;
inline constexpr int kParityKMax = 32;

inline std::int64_t encode_parity_tag(std::int64_t first, int k) {
  return kParityTagBase - (first * 64 + k);
}
inline bool is_parity_tag(std::int64_t tag) {
  return tag <= kParityTagBase - kParityKMin;
}
inline void decode_parity_tag(std::int64_t tag, std::int64_t* first, int* k) {
  const std::int64_t v = kParityTagBase - tag;
  *k = static_cast<int>(v % 64);
  *first = v / 64;
}

class PathScheduler {
 public:
  virtual ~PathScheduler() = default;

  // Canonical spec string ("pull", "weighted", "parity-4", ...).
  virtual const char* name() const = 0;

  // True when the policy can deliver the same stream packet more than once;
  // the client must then dedup before recording its trace.
  virtual bool needs_dedup() const { return false; }

  // --- event hooks, mirroring the server / fault layer ---
  // A new stream packet was appended to the shared queue.
  virtual void on_generate(std::int64_t /*packet*/) {}
  // Path `path`'s sender freed send-buffer space (ACK arrived).
  virtual void on_window_open(std::size_t /*path*/) {}
  // Generation / reclaim instant: every path may be offered the backlog.
  virtual void on_offer() {}
  // Fault layer: path went down.  `reclaimed` are the tags the server just
  // returned from the dead sender to the front of the shared queue (never
  // transmitted — they re-ride as ordinary data); `at_risk` are the tags
  // the dead sender transmitted but never saw acknowledged — stuck behind
  // its RTO backoff unless a policy re-sends them on the survivors.
  // `srtt_s` is the dead sender's smoothed RTT at the fault instant (0 if
  // never measured): the natural loss horizon against each at-risk age.
  virtual void on_path_down(std::size_t /*path*/,
                            const std::vector<std::int64_t>& /*reclaimed*/,
                            const std::vector<AtRiskPacket>& /*at_risk*/,
                            double /*srtt_s*/) {}
  virtual void on_path_up(std::size_t /*path*/) {}

  // Produces the next decision, or returns false when the policy has
  // nothing (more) to dispatch right now.  `queue` is the shared server
  // queue (ascending tags); `paths` is refreshed before every call.
  virtual bool pick(const std::vector<SchedPathState>& paths,
                    const std::deque<std::int64_t>& queue,
                    SchedDecision* out) = 0;
};

// Parsed, validated scheduler spec — the DMP_SCHED grammar:
//   pull | weighted[:w0,w1,...] | static[:w0,w1,...] | best_path |
//   round_robin | redundant | parity-<k>          (k in [2, 32])
struct SchedulerSpec {
  enum class Strategy : std::uint8_t {
    kPull,
    kWeighted,
    kStatic,
    kBestPath,
    kRoundRobin,
    kRedundant,
    kParity,
  };
  Strategy strategy = Strategy::kPull;
  // kWeighted / kStatic: explicit split (else path rates / even).
  std::vector<double> weights{};
  int parity_k = 0;               // kParity: data packets per parity packet
  std::string text = "pull";      // canonical spec string

  // Throws std::invalid_argument naming the bad token and the accepted set.
  static SchedulerSpec parse(const std::string& spec);

  // Policies that require client-side exactly-once dedup.
  bool redundant() const {
    return strategy == Strategy::kRedundant || strategy == Strategy::kParity;
  }
};

// The accepted-spec set, for error messages and option docs.
const char* scheduler_spec_grammar();

// Builds the scheduler for `spec` over `num_paths` senders.
// `default_weights` (one entry per path, e.g. configured path bandwidths)
// seeds the `weighted` strategy when the spec carries no explicit weights;
// empty means an even split.  `static` without weights always splits
// evenly (the paper's odd/even rule).  Throws std::invalid_argument when
// explicit weights do not match `num_paths` or are invalid.
std::unique_ptr<PathScheduler> make_path_scheduler(
    const SchedulerSpec& spec, std::size_t num_paths,
    const std::vector<double>& default_weights = {});

}  // namespace dmp

// The concrete PathScheduler strategies.  Exposed as a header so unit
// tests can drive each policy directly; production code goes through
// make_path_scheduler (path_scheduler.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "stream/scheduler/path_scheduler.hpp"
#include "stream/scheduler/weighted_split.hpp"

namespace dmp {

// The paper's scheme (Fig. 2), decision-for-decision.  Two dispatch modes
// mirror the historical server entry points: a window-open (or path-up)
// grant focuses on one sender and drains it; a generation / reclaim offer
// walks every sender from a rotating start index, draining each, and
// advances the rotation exactly once per offer — including when the queue
// empties mid-round or no sender has space, matching offer_all().
class PullScheduler : public PathScheduler {
 public:
  explicit PullScheduler(std::size_t num_paths) : n_(num_paths) {}

  const char* name() const override { return "pull"; }
  void on_window_open(std::size_t path) override {
    mode_ = Mode::kFocus;
    focus_ = path;
  }
  void on_offer() override {
    mode_ = Mode::kRound;
    round_i_ = 0;
  }
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;

  std::size_t rotate() const { return rotate_; }

 private:
  enum class Mode : std::uint8_t { kIdle, kFocus, kRound };
  std::size_t n_;
  Mode mode_ = Mode::kIdle;
  std::size_t focus_ = 0;
  std::size_t round_i_ = 0;
  std::size_t rotate_ = 0;  // fairness when several senders have space
};

// Split by path weight: every generated packet is pre-assigned to a path by
// the shared deficit rule (WeightedSplit); a path only ever pulls its own
// packets, even when another path idles.  Two fault stories:
//  - `weighted`: the dead path's pending share — and the tags the server
//    reclaimed from its sender — are re-split across the surviving paths,
//    and fresh packets skip the dead path;
//  - `static` (`fixed`): the Section-7.4 baseline, whose packet-to-path
//    rule is decided in advance.  Fresh packets keep being assigned to the
//    dead path and the reclaimed tags go back to the front of its pending
//    queue, so its share stalls head-of-line until the link returns.
//    Reassigning the stalled share would turn the baseline into DMP.
class WeightedScheduler : public PathScheduler {
 public:
  WeightedScheduler(std::size_t num_paths, std::vector<double> weights,
                    bool fixed = false);

  const char* name() const override { return fixed_ ? "static" : "weighted"; }
  void on_generate(std::int64_t packet) override;
  void on_path_down(std::size_t path,
                    const std::vector<std::int64_t>& reclaimed,
                    const std::vector<AtRiskPacket>& at_risk,
                    double srtt_s) override;
  void on_path_up(std::size_t path) override { up_[path] = 1; }
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;

 private:
  void assign(std::int64_t packet);

  WeightedSplit split_;
  bool fixed_;
  std::vector<char> up_;
  std::vector<std::deque<std::int64_t>> pending_;  // assigned, not yet pulled
  // The server puts reclaimed tags at the front of the shared queue, where
  // they may be newer than tags behind them: only the queue past this many
  // leading entries is guaranteed ascending.
  std::size_t unsorted_ = 0;
};

// Greedy lowest-smoothed-RTT path with send-buffer room takes the queue
// head.  Unmeasured paths (no RTT sample yet) rank last; ties break toward
// the lowest index.
class BestPathScheduler : public PathScheduler {
 public:
  const char* name() const override { return "best_path"; }
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;
};

// One packet per grant to the next path (cursor order), skipping paths
// that are down or full — an EQUAL split in MultiPathNadaClient's terms.
class RoundRobinScheduler : public PathScheduler {
 public:
  explicit RoundRobinScheduler(std::size_t num_paths) : n_(num_paths) {}

  const char* name() const override { return "round_robin"; }
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;

 private:
  std::size_t n_;
  std::size_t cursor_ = 0;
};

// Pull for the data stream, plus bounded redundancy in two forms:
//  - steady state: a copy of the head-of-line packet — the oldest
//    transmitted-but-unacked tag across all paths, i.e. the packet closest
//    to playing late — rides a spare path's idle window (queue drained,
//    a path other than the blocked one has send-buffer room), but only
//    when that packet genuinely lags the stream frontier (kLagMin tags):
//    a healthy stream's oldest unacked trails generation by a handful of
//    tags and a copy of it rescues nothing, while a packet stuck behind a
//    stalled path falls seconds behind.  Capped at 1 copy per kBudgetDen
//    data packets so the goodput overhead stays ~4% — redundancy must
//    never crowd out the stream;
//  - failover: when a path dies, the slice of its transmitted-but-unacked
//    packets young enough to be caught in the blackhole (age <= the dead
//    path's SRTT; older ones were delivered before the fault and merely
//    lost their ACK) is re-sent at data priority on the survivors.
//    Copying the whole unacked set would displace live data on the
//    survivors during the very window they are the stream's only
//    capacity — the filtered slice is one RTT's flight, a handful.
//    The server's reclaim already covers the never-transmitted share.
// The client dedups for exactly-once delivery.
class RedundantScheduler : public PathScheduler {
 public:
  explicit RedundantScheduler(std::size_t num_paths) : pull_(num_paths) {}

  const char* name() const override { return "redundant"; }
  bool needs_dedup() const override { return true; }
  void on_window_open(std::size_t path) override {
    pull_.on_window_open(path);
  }
  void on_offer() override { pull_.on_offer(); }
  void on_generate(std::int64_t packet) override;
  void on_path_down(std::size_t path,
                    const std::vector<std::int64_t>& reclaimed,
                    const std::vector<AtRiskPacket>& at_risk,
                    double srtt_s) override;
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;

  // 1 idle-window copy per this many data packets (4% wire overhead cap).
  static constexpr std::uint64_t kBudgetDen = 25;
  // Minimum lag (stream-frontier tag minus head-of-line tag) before a
  // steady-state copy is worth sending: ~1 s of stream at typical rates.
  static constexpr std::int64_t kLagMin = 32;
  // A sender is treated as soft-down (stalled) when its Karn backoff is
  // deep (>= kStallBackoff) AND the stream has spare capacity to shift
  // onto.  After an outage the recovering path can sit at 16-64x backoff
  // with its next retransmission seconds out; feeding it then parks data
  // behind that timer (observed: a whole send buffer delivered ~20 s
  // late).  But masking is only safe with headroom — at saturation a
  // backed-off path is still needed capacity, and shifting its load onto
  // an equally-congested survivor melts the stream down.  Headroom is
  // observable per generation interval: with spare capacity the shared
  // queue drains to empty before the next packet is generated; under
  // sustained congestion it fails to.  The scheduler keeps one bit per
  // generation ("failed to drain") over a sliding kHeadroomWindow; the
  // mask disarms when more than kSaturatedBacklog of those failed.  This
  // is the MPTCP "penalize stalled subflows" idea, gated so it cannot
  // trigger at saturation.  When every live path is stalled the mask is
  // dropped: degraded service beats none.
  static constexpr std::uint32_t kStallBackoff = 4;
  static constexpr std::uint32_t kHeadroomWindow = 32;
  static constexpr int kSaturatedBacklog = 8;  // > 25% undrained = saturated

 private:
  PullScheduler pull_;
  std::deque<std::int64_t> failover_;  // dead path's at-risk tags to re-send
  std::vector<SchedPathState> masked_;  // scratch: paths with stalls downed
  std::uint64_t data_sent_ = 0;
  std::uint64_t dups_sent_ = 0;
  std::int64_t last_dup_tag_ = -1;  // never copy the same packet twice
  // One bit per recent generation interval, 1 = the shared queue never
  // drained to empty during it.  Low kHeadroomWindow bits are the sliding
  // headroom detector; 0 (all drained) is a fresh stream's state.
  std::uint64_t backlog_bits_ = 0;
  bool drained_since_gen_ = true;
  std::int64_t frontier_ = -1;  // most recently generated stream tag
};

// Pull for the data stream, plus one XOR-parity packet covering each run
// of k consecutively pulled data packets, sent on the spare path with the
// most room (dropped when no spare window is open — parity rides spare
// capacity only, à la CTCP).  The client recovers a covered packet when
// it is the only one missing, and dedups when the original later arrives.
class ParityScheduler : public PathScheduler {
 public:
  ParityScheduler(std::size_t num_paths, int k);

  const char* name() const override { return name_.c_str(); }
  bool needs_dedup() const override { return true; }
  void on_window_open(std::size_t path) override {
    pull_.on_window_open(path);
  }
  void on_offer() override { pull_.on_offer(); }
  bool pick(const std::vector<SchedPathState>& paths,
            const std::deque<std::int64_t>& queue,
            SchedDecision* out) override;

 private:
  PullScheduler pull_;
  std::string name_;
  int k_;
  std::int64_t first_ = -1;  // first data tag of the open parity window
  int count_ = 0;            // data tags accumulated in the window
  std::size_t last_path_ = 0;
  bool parity_pending_ = false;
};

// The spare path for redundancy: most free send-buffer space among live
// paths other than `exclude`; false when none has space.
bool pick_spare_path(const std::vector<SchedPathState>& paths,
                     std::size_t exclude, std::size_t* out);

}  // namespace dmp

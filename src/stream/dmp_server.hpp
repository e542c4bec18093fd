// DMP-streaming server (Fig. 2 of the paper).
//
// A CBR generator places packets into a shared server queue; each of the K
// TCP senders fetches from the head of the queue whenever it can send (for
// us: whenever its send buffer has space).  The paper's lock is implicit in
// the discrete-event setting — pulls are serialized by the scheduler.
// Dynamic load balancing emerges with no bandwidth probing: a path with
// higher achievable throughput drains its send buffer faster, so it pulls
// (and therefore carries) a larger share of the stream.
//
// The *decision* of what to send where is delegated to a PathScheduler
// (src/stream/scheduler/): the server owns the queue, the senders and all
// observability, translates sender/fault events into scheduler hooks, and
// executes the scheduler's decisions.  The default `pull` policy
// reproduces the paper's scheme decision-for-decision (golden-pinned);
// the Section-7.4 static baseline is the `static` policy, and other
// policies (weighted, best_path, round_robin, redundant, parity-k) reuse
// this server core unchanged.
//
// The source is live (one packet every 1/mu seconds) or stored — the
// paper's Section-3 remark that the scheme "is also applicable to
// stored-video streaming", left as future work there.  A stored video
// exists before streaming starts, so the whole mu*duration-packet file is
// queued at the start instant and the senders prefetch as far ahead as TCP
// allows: the live early-packet cap Nmax = mu*tau no longer applies.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/scheduler.hpp"
#include "stream/scheduler/path_scheduler.hpp"
#include "tcp/reno_sender.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class DmpStreamingServer {
 public:
  // `senders` must outlive the server.  Generation begins at `start` and
  // runs for `duration`; `mu_pps` is the CBR playback rate in packets/s.
  // `scheduler` chooses the dispatch policy; null builds the compat `pull`
  // policy.  `stored` swaps the live source for a stored video of
  // llround(mu * duration) packets, all queued at `start`.
  DmpStreamingServer(Scheduler& sched, double mu_pps,
                     std::vector<RenoSender*> senders, SimTime start,
                     SimTime duration,
                     std::unique_ptr<PathScheduler> scheduler = nullptr,
                     bool stored = false);

  // Stream packets generated so far: the late-fraction denominator.  A
  // stored video counts in full from `start` on.
  std::int64_t packets_generated() const { return next_number_; }
  std::size_t queue_length() const { return queue_.size(); }
  // Peak backlog observed in the server queue (diagnostic: bounded by
  // mu * (time TCP lags behind generation)).
  std::size_t max_queue_length() const { return max_queue_; }

  // Report tags: the source kind ("dmp" live, "stored") and the policy.
  const char* scheme_name() const { return stored_ ? "stored" : "dmp"; }
  const char* scheduler_name() const { return scheduler_->name(); }
  // Redundancy decisions executed (0 under non-redundant policies).
  std::uint64_t duplicates_sent() const { return duplicates_sent_; }
  std::uint64_t parity_sent() const { return parity_sent_; }

  // Binds the hub under `prefix` (optional; a no-op when never called):
  // `.queue_depth` / `.max_queue_depth` gauges, `.generated`,
  // `.pulls.path<k>` and `.sched.{duplicates,parity}` counters; kDebug
  // "pull" / "dup" / "parity" events; kGenerate / kPull / kSchedDecision
  // flight spans; the `.backlog` (queue after each offer) and `.generated`
  // channels, plus `.sched.{duplicates,parity}` channels only under a
  // policy that can emit them, so compat telemetry stays unchanged.
  void bind(obs::Hub& hub, const std::string& prefix);

  // Path failure: reclaim the dead sender's never-transmitted segments into
  // the FRONT of the shared queue (they are the oldest outstanding packets)
  // and re-offer the backlog to the surviving senders.  While a path is
  // down its sender is skipped by every policy, so the shared-queue
  // discipline routes the whole stream over the survivors — the paper's
  // implicit load shifting, exercised under failure.  (The `static`
  // policy instead holds the dead path's share until it comes back.)
  void on_path_down(std::size_t k);
  void on_path_up(std::size_t k);

 private:
  // Appends packet `next_number_` to the shared queue.
  void admit();
  void generate();
  void load_stored(std::int64_t packets);
  void window_open(std::size_t k);
  // Refreshes the per-path snapshot and executes scheduler decisions until
  // pick() runs dry.
  void drain();
  void execute(const SchedDecision& decision);

  Scheduler& sched_;
  std::vector<RenoSender*> senders_;
  SimTime period_;
  SimTime end_;
  std::unique_ptr<PathScheduler> scheduler_;
  bool stored_;

  std::deque<std::int64_t> queue_;  // packet numbers awaiting a sender
  std::int64_t next_number_ = 0;
  std::size_t max_queue_ = 0;
  std::vector<bool> down_;  // paths currently failed (fault injector)
  std::uint64_t duplicates_sent_ = 0;
  std::uint64_t parity_sent_ = 0;
  std::vector<SchedPathState> path_state_;  // reused pick() scratch

  obs::Counter* m_generated_ = nullptr;
  std::vector<obs::Counter*> m_pulls_;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_parity_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  obs::TimeSeriesChannel* ts_backlog_ = nullptr;
  obs::TimeSeriesChannel* ts_generated_ = nullptr;
  obs::TimeSeriesChannel* ts_duplicates_ = nullptr;
  obs::TimeSeriesChannel* ts_parity_ = nullptr;
};

}  // namespace dmp

#include "stream/dmp_server.hpp"

#include <cmath>
#include <stdexcept>

#include "stream/scheduler/strategies.hpp"
#include "stream/trace.hpp"

namespace dmp {

DmpStreamingServer::DmpStreamingServer(
    Scheduler& sched, double mu_pps, std::vector<StreamSender*> senders,
    SimTime start, SimTime duration, std::unique_ptr<PathScheduler> scheduler,
    bool stored)
    : sched_(sched),
      senders_(std::move(senders)),
      period_(packet_period(mu_pps)),
      start_(start),
      end_(start + duration),
      scheduler_(std::move(scheduler)),
      stored_(stored) {
  if (senders_.empty()) throw std::invalid_argument{"DMP needs >= 1 sender"};
  if (!scheduler_) scheduler_ = std::make_unique<PullScheduler>(senders_.size());
  down_.assign(senders_.size(), false);
  path_state_.assign(senders_.size(), SchedPathState{});
  for (std::size_t k = 0; k < senders_.size(); ++k) {
    senders_[k]->set_space_callback([this, k] { window_open(k); });
  }
  if (stored_) {
    const auto packets =
        static_cast<std::int64_t>(std::llround(mu_pps * duration.to_seconds()));
    if (packets <= 0) throw std::invalid_argument{"video must be non-empty"};
    sched_.post_at(start, [this, packets] { load_stored(packets); },
                   EventCategory::kSource);
  } else {
    sched_.post_at(start, [this] { generate(); }, EventCategory::kSource);
  }
}

void DmpStreamingServer::bind(obs::Hub& hub, const std::string& prefix) {
  m_generated_ = hub.counter(prefix + ".generated");
  m_pulls_.clear();
  if (hub.metrics()) {
    for (std::size_t k = 0; k < senders_.size(); ++k) {
      m_pulls_.push_back(
          hub.counter(prefix + ".pulls.path" + std::to_string(k)));
    }
    hub.gauge(prefix + ".queue_depth")->set_sampler([this] {
      return static_cast<double>(queue_.size());
    });
    hub.gauge(prefix + ".max_queue_depth")->set_sampler([this] {
      return static_cast<double>(max_queue_);
    });
  }
  m_duplicates_ = hub.counter(prefix + ".sched.duplicates");
  m_parity_ = hub.counter(prefix + ".sched.parity");
  event_log_ = hub.events();
  flight_ = hub.flight();
  ts_backlog_ = hub.channel(prefix + ".backlog");
  ts_generated_ = hub.channel(prefix + ".generated");
  if (scheduler_->needs_dedup()) {
    ts_duplicates_ = hub.channel(prefix + ".sched.duplicates");
    ts_parity_ = hub.channel(prefix + ".sched.parity");
  }
}

void DmpStreamingServer::admit() {
  const std::int64_t number = next_number_++;
  queue_.push_back(number);
  if (m_generated_) m_generated_->inc();
  max_queue_ = std::max(max_queue_, queue_.size());
  if (flight_) {
    obs::FlightEvent e;
    e.t_ns = sched_.now().ns();
    e.kind = obs::FlightEventKind::kGenerate;
    e.packet = number;
    e.queue = static_cast<std::int64_t>(queue_.size());
    flight_->record(e);
  }
  if (ts_generated_) ts_generated_->bump(sched_.now());
  scheduler_->on_generate(number);
}

void DmpStreamingServer::generate() {
  admit();
  // At generation instants several senders may have space (e.g. during
  // startup); the policy decides who gets the backlog.
  scheduler_->on_offer();
  drain();
  // Post-offer backlog: what the CBR source left behind after every sender
  // with space took its share — the paper's "TCP lags generation" signal.
  if (ts_backlog_) {
    ts_backlog_->add(sched_.now(), static_cast<double>(queue_.size()));
  }
  if (sched_.now() + period_ < end_) {
    sched_.post_after(period_, [this] { generate(); }, EventCategory::kSource);
  }
}

void DmpStreamingServer::load_stored(std::int64_t packets) {
  // The whole file exists at the start instant: queue it, then offer it
  // once.  From here on the senders' window openings drain the rest.
  while (next_number_ < packets) admit();
  scheduler_->on_offer();
  drain();
  if (ts_backlog_) {
    ts_backlog_->add(sched_.now(), static_cast<double>(queue_.size()));
  }
}

void DmpStreamingServer::window_open(std::size_t k) {
  // A failed path must not soak up fresh packets: its sender would sit on
  // them behind a dead link.  (The flag is only ever set by the fault
  // injector; fault-free runs never take this branch.)
  if (down_[k]) return;
  scheduler_->on_window_open(k);
  drain();
}

void DmpStreamingServer::drain() {
  SchedDecision decision;
  while (true) {
    for (std::size_t k = 0; k < senders_.size(); ++k) {
      path_state_[k].space = senders_[k]->space();
      path_state_[k].down = down_[k];
      path_state_[k].srtt_s = senders_[k]->srtt_s();
      path_state_[k].oldest_unacked = senders_[k]->oldest_unacked_tag();
      path_state_[k].rto_backoff = senders_[k]->rto_backoff();
    }
    if (!scheduler_->pick(path_state_, queue_, &decision)) return;
    execute(decision);
  }
}

void DmpStreamingServer::execute(const SchedDecision& decision) {
  const std::size_t k = decision.path;
  switch (decision.kind) {
    case SchedDecision::Kind::kPull: {
      // The fetch is recorded before enqueue() so trace lines stay in
      // lifecycle order (enqueue itself emits the tcp/link events).
      const std::int64_t number = queue_[decision.queue_pos];
      queue_.erase(queue_.begin() +
                   static_cast<std::ptrdiff_t>(decision.queue_pos));
      if (!m_pulls_.empty()) m_pulls_[k]->inc();
      if (flight_) {
        obs::FlightEvent e;
        e.t_ns = sched_.now().ns();
        e.kind = obs::FlightEventKind::kPull;
        e.packet = number;
        e.path = static_cast<std::int32_t>(k);
        e.queue = static_cast<std::int64_t>(queue_.size());
        flight_->record(e);
      }
      if (event_log_ && event_log_->enabled(obs::Severity::kDebug)) {
        event_log_->record(sched_.now().to_seconds(), obs::Severity::kDebug,
                           "pull",
                           {obs::EventField::num("path", k),
                            obs::EventField::num("packet", number),
                            obs::EventField::num("queue", queue_.size())});
      }
      senders_[k]->enqueue(number);
      break;
    }
    case SchedDecision::Kind::kDuplicate:
    case SchedDecision::Kind::kParity: {
      const bool dup = decision.kind == SchedDecision::Kind::kDuplicate;
      if (dup) {
        ++duplicates_sent_;
        if (m_duplicates_) m_duplicates_->inc();
        if (ts_duplicates_) ts_duplicates_->bump(sched_.now());
      } else {
        ++parity_sent_;
        if (m_parity_) m_parity_->inc();
        if (ts_parity_) ts_parity_->bump(sched_.now());
      }
      if (flight_) {
        obs::FlightEvent e;
        e.t_ns = sched_.now().ns();
        e.kind = obs::FlightEventKind::kSchedDecision;
        e.packet = decision.packet;
        e.path = static_cast<std::int32_t>(k);
        e.queue = static_cast<std::int64_t>(queue_.size());
        flight_->record(e);
      }
      if (event_log_ && event_log_->enabled(obs::Severity::kDebug)) {
        event_log_->record(sched_.now().to_seconds(), obs::Severity::kDebug,
                           dup ? "dup" : "parity",
                           {obs::EventField::num("path", k),
                            obs::EventField::num("packet", decision.packet),
                            obs::EventField::num("queue", queue_.size())});
      }
      senders_[k]->enqueue(decision.packet);
      break;
    }
  }
}

void DmpStreamingServer::on_path_down(std::size_t k) {
  down_[k] = true;
  // Segments the dead sender accepted but never transmitted go back to the
  // head of the shared queue (they are older than anything queued there),
  // in their original order.  Segments already on the wire stay with TCP —
  // recovery is organic once the link returns.
  const auto tags = senders_[k]->reclaim_unsent();
  requeue_front(tags);
  if (event_log_ && event_log_->enabled(obs::Severity::kInfo)) {
    event_log_->record(sched_.now().to_seconds(), obs::Severity::kInfo,
                       "reclaim",
                       {obs::EventField::num("path", k),
                        obs::EventField::num("packets", tags.size()),
                        obs::EventField::num("queue", queue_.size())});
  }
  std::vector<AtRiskPacket> at_risk;
  for (const auto& segment : senders_[k]->transmitted_unacked()) {
    at_risk.push_back(AtRiskPacket{
        segment.app_tag, (sched_.now() - segment.last_sent).to_seconds()});
  }
  scheduler_->on_path_down(k, tags, at_risk, senders_[k]->srtt_s());
  // Re-offer the (reclaimed) backlog to the surviving senders.
  scheduler_->on_offer();
  drain();
}

void DmpStreamingServer::requeue_front(
    const std::vector<std::int64_t>& numbers) {
  queue_.insert(queue_.begin(), numbers.begin(), numbers.end());
  max_queue_ = std::max(max_queue_, queue_.size());
}

void DmpStreamingServer::on_path_up(std::size_t k) {
  down_[k] = false;
  scheduler_->on_path_up(k);
  scheduler_->on_window_open(k);
  drain();
}

}  // namespace dmp

#include "stream/scheduler/strategies.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace dmp {

bool pick_spare_path(const std::vector<SchedPathState>& paths,
                     std::size_t exclude, std::size_t* out) {
  bool found = false;
  std::size_t best_space = 0;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (k == exclude || paths[k].down || paths[k].space == 0) continue;
    if (paths[k].space > best_space) {
      best_space = paths[k].space;
      *out = k;
      found = true;
    }
  }
  return found;
}

// --- pull (the paper's scheme) ---

bool PullScheduler::pick(const std::vector<SchedPathState>& paths,
                         const std::deque<std::int64_t>& queue,
                         SchedDecision* out) {
  switch (mode_) {
    case Mode::kIdle:
      return false;
    case Mode::kFocus:
      // pull_into(k): drain one sender until it blocks or the queue empties.
      if (!queue.empty() && !paths[focus_].down && paths[focus_].space > 0) {
        out->kind = SchedDecision::Kind::kPull;
        out->path = focus_;
        out->queue_pos = 0;
        out->packet = queue.front();
        return true;
      }
      mode_ = Mode::kIdle;
      return false;
    case Mode::kRound:
      // offer_all(): visit every sender once from the rotating start index,
      // fully draining each; the rotation advances exactly once per offer,
      // whether or not anything was dispatched.
      while (round_i_ < n_) {
        if (queue.empty()) break;
        const std::size_t k = (rotate_ + round_i_) % n_;
        if (!paths[k].down && paths[k].space > 0) {
          out->kind = SchedDecision::Kind::kPull;
          out->path = k;
          out->queue_pos = 0;
          out->packet = queue.front();
          return true;
        }
        ++round_i_;
      }
      rotate_ = (rotate_ + 1) % n_;
      mode_ = Mode::kIdle;
      return false;
  }
  return false;
}

// --- weighted / static (split via the shared deficit rule) ---

WeightedScheduler::WeightedScheduler(std::size_t num_paths,
                                     std::vector<double> weights, bool fixed)
    : split_(num_paths, std::move(weights)),
      fixed_(fixed),
      up_(num_paths, 1),
      pending_(num_paths) {}

void WeightedScheduler::assign(std::int64_t packet) {
  pending_[fixed_ ? split_.assign() : split_.assign_among(&up_)].push_back(
      packet);
}

void WeightedScheduler::on_generate(std::int64_t packet) { assign(packet); }

void WeightedScheduler::on_path_down(
    std::size_t path, const std::vector<std::int64_t>& reclaimed,
    const std::vector<AtRiskPacket>& /*at_risk*/, double /*srtt_s*/) {
  unsorted_ += reclaimed.size();
  if (fixed_) {
    // The dead path keeps its share: reclaimed tags (older than anything
    // still pending there) wait at the head of its queue.
    pending_[path].insert(pending_[path].begin(), reclaimed.begin(),
                          reclaimed.end());
    return;
  }
  up_[path] = 0;
  // The dead path's share — reclaimed sender tags (oldest) plus its
  // pending assignment — is re-split across the surviving paths.
  std::deque<std::int64_t> orphans;
  orphans.insert(orphans.end(), reclaimed.begin(), reclaimed.end());
  orphans.insert(orphans.end(), pending_[path].begin(), pending_[path].end());
  pending_[path].clear();
  for (std::int64_t tag : orphans) assign(tag);
}

bool WeightedScheduler::pick(const std::vector<SchedPathState>& paths,
                             const std::deque<std::int64_t>& queue,
                             SchedDecision* out) {
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (paths[k].down || paths[k].space == 0) continue;
    auto& pend = pending_[k];
    while (!pend.empty()) {
      const std::int64_t tag = pend.front();
      // Past the reclaimed prefix the shared queue holds ascending tags, so
      // the assigned packet's position is a binary search away.
      const auto sorted = queue.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(unsorted_, queue.size()));
      auto it = std::find(queue.begin(), sorted, tag);
      if (it == sorted) it = std::lower_bound(sorted, queue.end(), tag);
      if (it == queue.end() || *it != tag) {
        pend.pop_front();  // stale assignment (defensive; should not occur)
        continue;
      }
      out->kind = SchedDecision::Kind::kPull;
      out->path = k;
      out->queue_pos = static_cast<std::size_t>(it - queue.begin());
      out->packet = tag;
      if (it < sorted) --unsorted_;
      pend.pop_front();
      return true;
    }
  }
  return false;
}

// --- best_path ---

bool BestPathScheduler::pick(const std::vector<SchedPathState>& paths,
                             const std::deque<std::int64_t>& queue,
                             SchedDecision* out) {
  if (queue.empty()) return false;
  std::size_t best = 0;
  double best_metric = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (paths[k].down || paths[k].space == 0) continue;
    // No RTT sample yet ranks behind every measured path.
    const double metric =
        paths[k].srtt_s > 0.0 ? paths[k].srtt_s : std::numeric_limits<double>::max();
    if (!found || metric < best_metric) {
      best_metric = metric;
      best = k;
      found = true;
    }
  }
  if (!found) return false;
  out->kind = SchedDecision::Kind::kPull;
  out->path = best;
  out->queue_pos = 0;
  out->packet = queue.front();
  return true;
}

// --- round_robin ---

bool RoundRobinScheduler::pick(const std::vector<SchedPathState>& paths,
                               const std::deque<std::int64_t>& queue,
                               SchedDecision* out) {
  if (queue.empty()) return false;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t k = (cursor_ + i) % n_;
    if (paths[k].down || paths[k].space == 0) continue;
    cursor_ = (k + 1) % n_;
    out->kind = SchedDecision::Kind::kPull;
    out->path = k;
    out->queue_pos = 0;
    out->packet = queue.front();
    return true;
  }
  return false;
}

// --- redundant ---

void RedundantScheduler::on_generate(std::int64_t packet) {
  frontier_ = packet;
  // Headroom detector: close out the previous generation interval — did
  // the shared queue drain to empty at any point during it?
  backlog_bits_ = (backlog_bits_ << 1) | (drained_since_gen_ ? 0u : 1u);
  drained_since_gen_ = false;
}

void RedundantScheduler::on_path_down(
    std::size_t /*path*/, const std::vector<std::int64_t>& /*reclaimed*/,
    const std::vector<AtRiskPacket>& at_risk, double srtt_s) {
  // Only the slice of the unacked set transmitted within ~one RTT of the
  // fault can actually be caught in the blackhole: an older segment's
  // delivery (and usually its ACK) completed while the link was still up,
  // so copying it would waste survivor capacity exactly when the stream
  // has none to spare.  An unmeasured SRTT means the sender barely
  // started — the whole (tiny) set is then at risk.
  const double horizon =
      srtt_s > 0.0 ? srtt_s : std::numeric_limits<double>::infinity();
  for (const auto& p : at_risk) {
    if (p.age_s <= horizon) failover_.push_back(p.tag);
  }
}

bool RedundantScheduler::pick(const std::vector<SchedPathState>& raw_paths,
                              const std::deque<std::int64_t>& queue,
                              SchedDecision* out) {
  if (queue.empty()) drained_since_gen_ = true;
  // Mask stalled paths (deep RTO backoff) as down so neither data nor
  // copies queue up behind a retransmission that may be tens of seconds
  // out — but only while the stream has headroom (most recent generation
  // intervals saw the queue drain to empty).  At saturation the mask is
  // disarmed: a backed-off path is still needed capacity there.  If no
  // live path survives the mask, run unmasked — a stalled path beats
  // dropping the stream on the floor.
  const int undrained = std::popcount(
      backlog_bits_ & ((std::uint64_t{1} << kHeadroomWindow) - 1));
  const bool mask_armed = undrained <= kSaturatedBacklog;
  masked_ = raw_paths;
  bool any_live = false;
  for (auto& p : masked_) {
    if (p.down) continue;
    if (mask_armed && p.rto_backoff >= kStallBackoff) {
      p.down = true;
    } else {
      any_live = true;
    }
  }
  const std::vector<SchedPathState>& paths = any_live ? masked_ : raw_paths;
  // Failover copies first: they stand in for retransmissions the dead
  // sender cannot make.  Any live path with room carries them.
  if (!failover_.empty()) {
    std::size_t spare = 0;
    if (pick_spare_path(paths, paths.size(), &spare)) {
      out->kind = SchedDecision::Kind::kDuplicate;
      out->path = spare;
      out->queue_pos = 0;
      out->packet = failover_.front();
      failover_.pop_front();
      ++dups_sent_;
      return true;
    }
  }
  if (pull_.pick(paths, queue, out)) {
    ++data_sent_;
    return true;
  }
  // The steady-state copy rides only genuinely idle capacity — the shared
  // queue is drained (pull found nothing) and the copy budget (kBudgetDen)
  // has room.  It re-sends the head-of-line packet: the oldest
  // transmitted-but-unacked tag across all paths is the packet closest to
  // its playback deadline, stuck behind the slowest path's backlog; a copy
  // on an idle path overtakes that backlog.  When the copy is not possible
  // it is skipped, not queued: redundancy never delays the stream.  And it
  // only goes out when the head-of-line packet genuinely lags the stream
  // frontier (kLagMin) — a healthy stream's oldest unacked trails by a
  // handful of tags, and copying it rescues nothing while perturbing a
  // possibly near-capacity system.
  if (queue.empty() && (dups_sent_ + 1) * kBudgetDen <= data_sent_) {
    std::size_t hol_path = 0;
    std::int64_t hol_tag = -1;
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const std::int64_t tag = paths[k].oldest_unacked;
      if (tag < 0) continue;
      if (hol_tag < 0 || tag < hol_tag) {
        hol_tag = tag;
        hol_path = k;
      }
    }
    std::size_t spare = 0;
    if (hol_tag >= 0 && hol_tag != last_dup_tag_ &&
        frontier_ - hol_tag >= kLagMin &&
        pick_spare_path(paths, hol_path, &spare)) {
      out->kind = SchedDecision::Kind::kDuplicate;
      out->path = spare;
      out->queue_pos = 0;
      out->packet = hol_tag;
      last_dup_tag_ = hol_tag;
      ++dups_sent_;
      return true;
    }
  }
  return false;
}

// --- parity-k ---

ParityScheduler::ParityScheduler(std::size_t num_paths, int k)
    : pull_(num_paths), name_("parity-" + std::to_string(k)), k_(k) {}

bool ParityScheduler::pick(const std::vector<SchedPathState>& paths,
                           const std::deque<std::int64_t>& queue,
                           SchedDecision* out) {
  if (parity_pending_) {
    parity_pending_ = false;
    const std::int64_t first = first_;
    first_ = -1;
    count_ = 0;
    std::size_t spare = 0;
    if (pick_spare_path(paths, last_path_, &spare)) {
      out->kind = SchedDecision::Kind::kParity;
      out->path = spare;
      out->queue_pos = 0;
      out->packet = encode_parity_tag(first, k_);
      return true;
    }
    // No spare window: this parity packet is dropped, not deferred.
  }
  if (!pull_.pick(paths, queue, out)) return false;
  // Parity covers k *consecutive* tags; a gap (reclaim reordering) restarts
  // the window at the current packet.
  if (count_ == 0 || out->packet != first_ + count_) {
    first_ = out->packet;
    count_ = 0;
  }
  ++count_;
  last_path_ = out->path;
  if (count_ == k_) parity_pending_ = true;
  return true;
}

}  // namespace dmp

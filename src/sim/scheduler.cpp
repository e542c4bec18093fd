#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <utility>

namespace dmp {

void Scheduler::post_at(SimTime when, EventFn fn, EventCategory cat) {
  if (when < now_) throw std::invalid_argument{"post_at: time in the past"};
  post_key(when, next_seq_++, std::move(fn), cat);
}

void Scheduler::post_key(SimTime when, std::uint64_t seq, EventFn fn,
                         EventCategory cat) {
  if (when < now_) throw std::invalid_argument{"post_key: time in the past"};
  std::uint32_t fn_index;
  if (!free_fns_.empty()) {
    fn_index = free_fns_.back();
    free_fns_.pop_back();
    fns_[fn_index] = std::move(fn);
  } else {
    fn_index = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
    fn_cats_.push_back(0);
  }
  fn_cats_[fn_index] = static_cast<std::uint8_t>(cat);
  push_entry(Entry{when, seq, fn_index});
}

void Scheduler::post_after(SimTime delay, EventFn fn, EventCategory cat) {
  post_at(now_ + delay, std::move(fn), cat);
}

std::uint32_t Scheduler::register_port(PortFn fn, void* ctx,
                                       EventCategory cat) {
  ports_.push_back(Port{fn, ctx, static_cast<std::uint8_t>(cat)});
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

// Runs `fn`, charged to category `cat` when a profile is attached.
template <typename F>
void Scheduler::call(std::uint8_t cat, F&& fn) {
  if (profile_ == nullptr) {
    fn();
    return;
  }
  auto& stats = profile_->by_category[cat < kNumEventCategories ? cat : 0];
  ++stats.executed;
  if (!time_events_) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  stats.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void Scheduler::dispatch(const Entry& e) {
  now_ = e.when;
  ++executed_;
  if (e.fn_index & kPortBit) {
    const Port port = ports_[e.fn_index & ~kPortBit];
    call(port.cat, [&port] { port.fn(port.ctx); });
    return;
  }
  EventFn fn = std::move(fns_[e.fn_index]);
  const std::uint8_t cat = fn_cats_[e.fn_index];
  free_fns_.push_back(e.fn_index);
  call(cat, fn);
}

std::uint32_t Scheduler::register_timer(PortFn fn, void* ctx,
                                        EventCategory cat) {
  timers_.push_back(Timer{.port = register_port(fn, ctx, cat)});
  return static_cast<std::uint32_t>(timers_.size() - 1);
}

void Scheduler::arm(std::uint32_t timer, SimTime when) {
  if (when < now_) throw std::invalid_argument{"arm: time in the past"};
  Timer& t = timers_[timer];
  if (t.armed) supersede(t);
  t.key = Key{when, next_seq_++};
  t.armed = true;
  // In place: a deadline at or after the queued entry (a fresh seq orders
  // after it at the same nanosecond) only moves the key.
  if (t.queued.seq != kNoEntry && !(when < t.queued.when)) return;
  t.queued = t.key;
  push_entry(Entry{when, t.key.seq, timer | kTimerBit});
}

void Scheduler::disarm(std::uint32_t timer) {
  Timer& t = timers_[timer];
  if (!t.armed) return;
  supersede(t);
  t.armed = false;
}

// The armed deadline of `t` is dropped unfired.  It counts once a
// run_until horizon covers it, where its own entry would have popped.
void Scheduler::supersede(const Timer& t) {
  if (t.key.when <= horizon_) {
    ++cancelled_;
    return;
  }
  late_.push_back(t.key.when);
  std::push_heap(late_.begin(), late_.end(), std::greater<>{});
}

// A timer entry popped.  It fires only as the timer's queued entry under
// an unchanged key, dispatched through the timer's port; anything else is
// a skip.  The queued entry of a timer re-armed later pushes itself under
// the current key.
bool Scheduler::timer_due(Entry& e) {
  const std::uint32_t id = e.fn_index & kIndexMask;
  Timer& t = timers_[id];
  const bool queued = e.seq == t.queued.seq;
  if (queued && t.armed && t.key.seq == e.seq) {
    t.armed = false;
    t.queued.seq = kNoEntry;
    e.fn_index = t.port | kPortBit;
    return true;
  }
  if (queued) {
    if (t.armed) {
      t.queued = t.key;
      push_entry(Entry{t.key.when, t.key.seq, id | kTimerBit});
    } else {
      t.queued.seq = kNoEntry;
    }
  }
  return false;
}

bool Scheduler::step(SimTime horizon) {
  while (!cal_.empty()) {
    if (cal_.min().when > horizon) return false;
    Entry top = cal_.pop_min();
    if ((top.fn_index & kTimerBit) && !timer_due(top)) continue;
    if (logging_) log_.push(PopRecord{top.when, top.seq, next_seq_}, top.when);
    dispatch(top);
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime horizon) {
  const std::uint64_t before = events_executed();
  const SimTime outer = std::exchange(horizon_, horizon);
  while (step(horizon)) {
  }
  horizon_ = outer;
  if (horizon != SimTime::max() && now_ < horizon) now_ = horizon;
  // Deadlines superseded past an earlier horizon count once one covers it.
  while (!late_.empty() && late_.front() <= horizon) {
    std::pop_heap(late_.begin(), late_.end(), std::greater<>{});
    late_.pop_back();
    ++cancelled_;
  }
  // The end of a run is a position too: every virtual event at or before
  // (now, next claim) has passed, and claims made between runs order
  // after it.
  if (logging_) log_.push(PopRecord{now_, next_seq_, next_seq_}, now_);
  if (profile_ != nullptr && logging_) profile_virtual();
  for (const std::uint32_t port : run_end_ports_) {
    ports_[port].fn(ports_[port].ctx);
  }
  return events_executed() - before;
}

std::uint64_t Scheduler::run() { return run_until(SimTime::max()); }

// --- virtual events -------------------------------------------------------

void Scheduler::start_log() {
  logging_ = true;
  log_.start(1024);
  vtx_.start(1024);
}

void Scheduler::widen_lookback(SimTime lookback) {
  log_.window = lookback;
  vtx_.window = lookback * 2;
}

const Scheduler::VirtualEvent& Scheduler::virtual_event(
    std::uint64_t id) const {
  if (!vtx_.kept(id)) {
    throw std::logic_error{"virtual event lookup past its retention"};
  }
  return vtx_[id];
}

bool Scheduler::pop_past(std::uint64_t id, std::uint64_t i) const {
  const VirtualEvent& event = vtx_[id];
  const PopRecord& pop = log_[i];
  if (pop.when != event.when) return event.when < pop.when;
  // A pop keyed by one of the event's own claims (a delivery after zero
  // propagation delay) ran after it; comparing the event's key with it
  // would ask for the very c being resolved.
  if (is_virtual(pop.seq) && virtual_id(pop.seq) == id) return true;
  return seq_less(event.sigma, pop.seq);
}

std::uint64_t Scheduler::resolve(std::uint64_t id) const {
  const VirtualEvent& event = virtual_event(id);
  if (event.c != kUnresolved) return event.c;
  if (log_.end == log_.begin || !pop_past(id, log_.end - 1)) {
    return kUnresolved;
  }
  std::uint64_t lo = event.first;
  if (lo < log_.begin) {
    // Pops were dropped since the event was added.  They all ran before
    // it only if they are older than its time; otherwise never guess.
    if (!(log_.dropped < event.when)) {
      throw std::logic_error{"virtual event lookup ran past the pop log"};
    }
    lo = log_.begin;
  }
  vtx_[id].c = log_[first_pop_past(id, lo)].counter;
  return vtx_[id].c;
}

std::uint64_t Scheduler::first_pop_past(std::uint64_t id,
                                        std::uint64_t lo) const {
  // Gallop from `lo` (usually a few pops away), then bisect.  The newest
  // pop is past the event, so this terminates.
  std::uint64_t hi = lo;
  for (std::uint64_t step = 1; !pop_past(id, hi); step *= 2) {
    lo = hi + 1;
    hi = std::min(hi + step, log_.end - 1);
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pop_past(id, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool Scheduler::seq_less(std::uint64_t a, std::uint64_t b) const {
  const bool va = is_virtual(a);
  const bool vb = is_virtual(b);
  if (!va && !vb) return a < b;
  // A real claim r orders before a virtual claim iff r < c: it was made
  // before the first real pop past the virtual event.  An unresolved c
  // (kUnresolved) orders after every real claim that exists.
  if (!va) return a < resolve(virtual_id(b));
  if (!vb) return b >= resolve(virtual_id(a));
  const std::uint64_t ia = virtual_id(a);
  const std::uint64_t ib = virtual_id(b);
  if (ia == ib) return (a & 1) < (b & 1);  // delivery claim, then successor
  const std::uint64_t ca = resolve(ia);
  const std::uint64_t cb = resolve(ib);
  if (ca != cb) return ca < cb;
  // No real pop between the two events: they order by their own keys.
  return virtual_before(ia, ib);
}

bool Scheduler::virtual_before(std::uint64_t a, std::uint64_t b) const {
  const VirtualEvent& x = virtual_event(a);
  const VirtualEvent& y = virtual_event(b);
  if (x.when != y.when) return x.when < y.when;
  if (is_virtual(x.sigma) && is_virtual(y.sigma) &&
      virtual_id(x.sigma) != virtual_id(y.sigma) &&
      virtual_event(virtual_id(x.sigma)).when ==
          virtual_event(virtual_id(y.sigma)).when) {
    // The owners tie too: a level-by-level walk could run down two whole
    // busy periods in lockstep.  Matching chains order by their roots.
    const TieLabel lx = tie_label(a);
    const TieLabel ly = tie_label(b);
    if (lx.label == ly.label) return lx.root < ly.root;
  }
  return seq_less(x.sigma, y.sigma);
}

Scheduler::TieLabel Scheduler::tie_label(std::uint64_t id) const {
  if (tie_labels_.size() > 2 * (vtx_.end - vtx_.begin) + 1024) {
    // Forget the events the ring dropped, and keys older than twice its
    // window.  Twins are labeled by the same comparison, so a key is asked
    // for again soon or not at all; one asked for after all only mints a
    // new label (a lost shortcut, never a wrong order).
    std::erase_if(tie_labels_, [this](const auto& entry) {
      return !vtx_.kept(entry.first);
    });
    const std::int64_t oldest = (now_ - vtx_.window * 2).ns();
    std::erase_if(tie_interned_, [oldest](const auto& entry) {
      return entry.first.when_ns < oldest;
    });
  }
  // Down the chain of owners to a labeled event, a real-keyed root, or an
  // owner the ring dropped (a bottom no other chain shares), then label
  // upward.
  std::vector<std::uint64_t>& chain = tie_chain_;
  chain.clear();
  TieLabel below{0, 0};  // label 0: below a real-keyed root
  for (std::uint64_t at = id;;) {
    if (const auto it = tie_labels_.find(at); it != tie_labels_.end()) {
      below = it->second;
      break;
    }
    chain.push_back(at);
    const std::uint64_t sigma = vtx_[at].sigma;
    if (!is_virtual(sigma)) {
      below.root = sigma;
      break;
    }
    if (!vtx_.kept(virtual_id(sigma))) {
      below.label = next_tie_label_++;
      break;
    }
    at = virtual_id(sigma);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const VirtualEvent& e = vtx_[*it];
    const TieKey key{e.when.ns(), below.label,
                     is_virtual(e.sigma) ? (e.sigma & 1) : 2};
    const auto [slot, fresh] = tie_interned_.try_emplace(key, next_tie_label_);
    if (fresh) ++next_tie_label_;
    below.label = slot->second;
    tie_labels_.insert_or_assign(*it, below);
  }
  return below;
}

bool Scheduler::virtual_ahead(std::uint64_t id) const {
  const SimTime when = virtual_event(id).when;
  if (when != now_) return when > now_;
  return resolve(id) == kUnresolved;
}

Scheduler::Ahead Scheduler::virtual_ahead_totals() const {
  // An event still ahead is never dropped from the ring (it is not older
  // than the clock), so scanning the kept ones finds every one.
  Ahead ahead;
  for (std::uint64_t id = vtx_.begin; id < vtx_.end; ++id) {
    if (virtual_ahead(id)) {
      ++ahead.events;
      ahead.claims += vtx_[id].claims;
      ++ahead.by_category[vtx_[id].cat];
    }
  }
  return ahead;
}

void Scheduler::profile_virtual() {
  const Ahead ahead = virtual_ahead_totals();
  for (std::size_t c = 0; c < kNumEventCategories; ++c) {
    const std::uint64_t passed = virtual_added_[c] - ahead.by_category[c];
    profile_->by_category[c].executed += passed - virtual_profiled_[c];
    virtual_profiled_[c] = passed;
  }
}

}  // namespace dmp

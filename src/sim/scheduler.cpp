#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace dmp {

void Scheduler::push(SimTime when, EventFn fn, std::uint32_t slot,
                     EventCategory cat) {
  if (when < now_) throw std::invalid_argument{"schedule_at: time in the past"};
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
  push_entry(Entry{when, next_seq_++, fn_index, slot});
  max_pending_ = std::max(max_pending_, pending_events());
}

EventHandle Scheduler::schedule_at(SimTime when, EventFn fn,
                                   EventCategory cat) {
  const std::uint32_t slot = pool_->acquire();
  const std::uint32_t gen = pool_->slots[slot].gen;
  push(when, std::move(fn), slot, cat);
  return EventHandle{pool_, slot, gen};
}

EventHandle Scheduler::schedule_after(SimTime delay, EventFn fn,
                                      EventCategory cat) {
  return schedule_at(now_ + delay, std::move(fn), cat);
}

void Scheduler::post_at(SimTime when, EventFn fn, EventCategory cat) {
  push(when, std::move(fn), kNoSlot, cat);
}

void Scheduler::post_after(SimTime delay, EventFn fn, EventCategory cat) {
  post_at(now_ + delay, std::move(fn), cat);
}

std::uint32_t Scheduler::register_port(PortFn fn, void* ctx,
                                       EventCategory cat) {
  ports_.push_back(Port{fn, ctx, static_cast<std::uint8_t>(cat)});
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

void Scheduler::dispatch(const Entry& e) {
  now_ = e.when;
  ++executed_;
  if (e.fn_index & kPortBit) {
    const Port port = ports_[e.fn_index & ~kPortBit];
    if (profile_ == nullptr) {
      port.fn(port.ctx);
      return;
    }
    auto& stats = profile_->by_category[port.cat < kNumEventCategories
                                            ? port.cat
                                            : 0];
    ++stats.executed;
    if (time_events_) {
      const auto t0 = std::chrono::steady_clock::now();
      port.fn(port.ctx);
      const auto t1 = std::chrono::steady_clock::now();
      stats.wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    } else {
      port.fn(port.ctx);
    }
    return;
  }
  EventFn fn = std::move(fns_[e.fn_index]);
  const std::uint8_t cat = fn_cats_[e.fn_index];
  free_fns_.push_back(e.fn_index);
  if (profile_ == nullptr) {
    fn();
  } else {
    auto& stats = profile_->by_category[cat < kNumEventCategories ? cat : 0];
    ++stats.executed;
    if (time_events_) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      stats.wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    } else {
      fn();
    }
  }
}

bool Scheduler::step(SimTime horizon) {
  while (!cal_.empty()) {
    if (cal_.min().when > horizon) return false;
    const Entry top = cal_.pop_min();
    if (!(top.fn_index & kPortBit) && top.slot != kNoSlot) {
      // Release the callable slab slot before the cancellation check so
      // cancelled entries recycle their storage exactly like fired ones.
      EventFn fn = std::move(fns_[top.fn_index]);
      const std::uint8_t cat = fn_cats_[top.fn_index];
      free_fns_.push_back(top.fn_index);
      // The slot is released exactly once — here — so its generation still
      // matches this entry's and `cancelled` is this entry's flag.
      const bool was_cancelled = pool_->slots[top.slot].cancelled;
      pool_->release(top.slot);  // the handle goes dead before fn() runs
      if (was_cancelled) {
        ++cancelled_;
        continue;
      }
      now_ = top.when;
      ++executed_;
      if (logging_) log_.push(PopRecord{top.when, top.seq, next_seq_}, top.when);
      if (profile_ == nullptr) {
        fn();
      } else {
        auto& stats =
            profile_->by_category[cat < kNumEventCategories ? cat : 0];
        ++stats.executed;
        if (time_events_) {
          const auto t0 = std::chrono::steady_clock::now();
          fn();
          const auto t1 = std::chrono::steady_clock::now();
          stats.wall_ns += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        } else {
          fn();
        }
      }
      return true;
    }
    if (logging_) log_.push(PopRecord{top.when, top.seq, next_seq_}, top.when);
    dispatch(top);
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime horizon) {
  const std::uint64_t before = events_executed();
  while (step(horizon)) {
  }
  if (horizon != SimTime::max() && now_ < horizon) now_ = horizon;
  // The end of a run is a position too: every virtual event at or before
  // (now, next claim) has passed, and claims made between runs order
  // after it.
  if (logging_) log_.push(PopRecord{now_, next_seq_, next_seq_}, now_);
  return events_executed() - before;
}

std::uint64_t Scheduler::run() { return run_until(SimTime::max()); }

// --- virtual events -------------------------------------------------------

void Scheduler::widen_lookback(SimTime lookback) {
  if (!logging_) {
    logging_ = true;
    log_.start(1024);
    vtx_.start(1024);
  }
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

bool Scheduler::pop_past(const VirtualEvent& event, std::uint64_t i) const {
  const PopRecord& pop = log_[i];
  if (pop.when != event.when) return event.when < pop.when;
  return seq_less(event.sigma, pop.seq);
}

std::uint64_t Scheduler::resolve(std::uint64_t id) const {
  const VirtualEvent& event = virtual_event(id);
  if (event.c != kUnresolved) return event.c;
  if (log_.end == log_.begin || !pop_past(event, log_.end - 1)) {
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
  // The first pop past the event: gallop from `lo` (usually a few pops
  // away), then bisect.  The newest pop is past it, so this terminates.
  std::uint64_t hi = lo;
  for (std::uint64_t step = 1; !pop_past(event, hi); step *= 2) {
    lo = hi + 1;
    hi = std::min(hi + step, log_.end - 1);
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pop_past(event, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  vtx_[id].c = log_[lo].counter;
  return vtx_[id].c;
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
  const VirtualEvent& x = virtual_event(ia);
  const VirtualEvent& y = virtual_event(ib);
  if (x.when != y.when) return x.when < y.when;
  return seq_less(x.sigma, y.sigma);
}

bool Scheduler::virtual_ahead(std::uint64_t id) const {
  const SimTime when = virtual_event(id).when;
  if (when != now_) return when > now_;
  return resolve(id) == kUnresolved;
}

std::uint64_t Scheduler::virtual_passed() const {
  // An event still ahead is never dropped from the ring (it is not older
  // than the clock), so scanning the kept ones counts every one that has
  // not passed.
  std::uint64_t ahead = 0;
  for (std::uint64_t id = vtx_.begin; id < vtx_.end; ++id) {
    if (virtual_ahead(id)) ++ahead;
  }
  return vtx_.end - ahead;
}

}  // namespace dmp

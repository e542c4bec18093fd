// The one-entry-per-event reference scheduler the DES differential suites
// compare the Scheduler against: a std::priority_queue keyed (when, seq),
// seq claimed at the call, cancellation a shared flag checked at pop (the
// cancel-and-push timer semantics).  No ports, no deferral, no calendar.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "util/sim_time.hpp"

namespace dmp {

class HeapReference {
 public:
  SimTime now() const { return now_; }

  std::shared_ptr<bool> schedule(SimTime when, std::function<void()> fn) {
    auto cancelled = std::make_shared<bool>(false);
    push(when, std::move(fn), cancelled);
    return cancelled;
  }
  void post(SimTime when, std::function<void()> fn) {
    push(when, std::move(fn), nullptr);
  }

  void run_until(SimTime horizon) {
    while (!heap_.empty() && heap_.top().when <= horizon) {
      Item item = heap_.top();
      heap_.pop();
      if (item.cancelled && *item.cancelled) {
        ++cancelled_;
        continue;
      }
      now_ = item.when;
      ++executed_;
      item.fn();
    }
    if (horizon != SimTime::max() && now_ < horizon) now_ = horizon;
  }

  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t scheduled() const { return next_seq_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Item {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void push(SimTime when, std::function<void()> fn,
            std::shared_ptr<bool> cancelled) {
    heap_.push(Item{when, next_seq_++, std::move(fn), std::move(cancelled)});
  }

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace dmp

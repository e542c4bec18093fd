// A lazy drop-tail link's departure arithmetic, with no scheduler
// (docs/DES_ENGINE.md, "Lazy links: no tx-done event").  Arrivals come in
// key order, each with its time and key; the core drops one at a full
// buffer or starts it at its arrival or at the newest tx-done, d =
// max(arrival, d_prev) + tx, and keeps the departures still ahead of the
// clock.  Under declared faults it admits a departure only before the next
// declared fault (the horizon) and parks the rest in FIFO order until that
// fault runs; a down link drops arrivals and freezes its queue, a burst
// drops the next arrivals.  Its owner claims the keys: each start's key
// (sigma) and each admitted departure's id.
//
// `Clock` is the owner's view of the key order: `before(a, d)` iff arrival
// `a` orders before departure `d` at one nanosecond, `ahead(id)` while
// event `id` lies ahead of the clock, and `passed(&d)` at each departure
// the core finds the clock has passed, then `passed(nullptr)`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/fifo.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dmp {

template <class Clock>
class DepartureCore {
 public:
  // The key of an arrival at the clock, where a virtual arrival's id goes.
  static constexpr std::uint64_t kAtClock = ~std::uint64_t{0};

  // An admitted packet: its tx-done and its key's id, its virtual arrival
  // (kAtClock unless it was admitted at one), tx time and flow.
  struct Departure {
    SimTime when;
    std::uint64_t id;
    std::uint64_t arrival;
    SimTime tx;
    FlowId flow;
  };
  // A packet waiting behind the horizon and its arrival (time and key).
  struct Parked {
    Packet p;
    SimTime arrived;
    std::uint64_t arrival;
  };
  // A packet's transmission: its start, tx-done time and key, tx time, and
  // its fused chain's start (its own start unless it started at a virtual
  // arrival).
  struct Started {
    SimTime start;
    SimTime when;
    std::uint64_t sigma;
    SimTime tx;
    SimTime chain_start;
  };
  // An arrival is dropped by a down link, a burst or a full buffer, parked
  // behind a parked packet, or started at `start`, after departure `after`
  // (kAtClock when the link is idle at its arrival).
  enum class Verdict : std::uint8_t { kDown, kBurst, kFull, kPark, kStart };
  struct Offer {
    Verdict verdict;
    SimTime start = SimTime::zero();
    std::uint64_t after = kAtClock;
  };

  DepartureCore(Clock clock, std::size_t buffer_packets)
      : clock_(clock), buffer_(buffer_packets) {}

  // An arrival at (when, arrival), in key order, with the clock at `now`
  // (arrival kAtClock: at the clock).  Every fault at or before it has run
  // and none lies between it and the clock, so the down state and burst
  // count are the eager link's there.  What lies ahead, admitted or
  // parked, is the eager queue plus the packet on the wire.
  Offer offer(SimTime now, SimTime when, std::uint64_t arrival) {
    if (down_ || burst_ != 0) [[unlikely]] return Offer{fault()};
    if (horizon_ <= when) [[unlikely]] {
      throw std::logic_error{"link arrival after a declared fault's time "
                             "before the fault ran"};
    }
    const std::size_t waiting = parked_.size();
    const std::size_t ahead = departures_ahead(now, when, arrival) + waiting;
    if (buffer_ != 0 && ahead > buffer_) return Offer{Verdict::kFull};
    if (waiting != 0) [[unlikely]] return Offer{Verdict::kPark};
    if (ahead == 0) return Offer{Verdict::kStart, when};
    const Departure& last = departures_.back();
    return Offer{Verdict::kStart, last.when, last.id};
  }
  // kDown while down, else kBurst while a burst lasts (using up one of its
  // count); kStart when no fault drops the arrival.
  Verdict fault() {
    if (down_) return Verdict::kDown;
    if (burst_ == 0) return Verdict::kStart;
    --burst_;
    return Verdict::kBurst;
  }
  // Starts the packet an offer started as `s`: true when its tx-done lies
  // before the horizon (its owner then admits it, depart()); else it waits
  // for the fault, parked and started.
  bool start(const Parked& x, const Started& s) {
    if (s.when < horizon_) [[likely]] return true;
    parked_.push(x);
    head_ = s;
    return false;
  }
  void park(const Parked& x) { parked_.push(x); }
  void depart(const Departure& d) {
    departures_.push(d);
    ahead_tx_ += d.tx;
    busy_ += d.tx;
  }

  void declare_fault(SimTime at) {
    faults_.insert(std::upper_bound(faults_.begin(), faults_.end(), at), at);
    horizon_ = faults_.front();
  }
  bool declared() const { return !faults_.empty(); }
  SimTime horizon() const { return horizon_; }
  // A hook runs at `now`: false unless one was declared there; else the
  // horizon moves to the next declared one.
  bool run_fault(SimTime now) {
    if (horizon_ != now) return false;
    ++next_fault_;
    horizon_ = next_fault_ < faults_.size() ? faults_[next_fault_]
                                            : SimTime::max();
    return true;
  }
  bool down() const { return down_; }
  void set_down(bool down) { down_ = down; }
  std::uint64_t burst() const { return burst_; }
  void add_burst(std::uint64_t count) { burst_ += count; }
  // The parked head of a raised link that froze it unstarted; null if none.
  const Packet* stalled() const {
    return !down_ && !head_ && !parked_.empty() ? &parked_.front().p
                                                : nullptr;
  }
  void start_head(SimTime start, std::uint64_t sigma, SimTime tx) {
    head_ = Started{start, start + tx, sigma, tx, start};
  }
  // After a hook: admits the started head while its tx-done lies before
  // the horizon, through admit(packet, started) (which calls depart()); no
  // later fault can change it then.  Its successor starts at its tx-done,
  // through next(packet, departure) (which calls start_head()), unless the
  // link is down: a down link freezes its queue as the eager tx-done does.
  template <class Admit, class Next>
  void resume(Admit&& admit, Next&& next) {
    while (head_ && head_->when < horizon_) {
      const Started s = *head_;
      head_.reset();
      const Packet p = parked_.front().p;
      parked_.pop();
      admit(p, s);
      if (!parked_.empty() && !down_) {
        next(parked_.front().p, departures_.back());
      }
    }
  }

  // Passes the departures whose tx-done the clock has passed and returns
  // how many lie ahead: the first of them on the wire once its packet has
  // arrived, the rest queued or not yet arrived.
  std::size_t pass(SimTime now) {
    // Tx-done keys increase along the FIFO, so the passed ones lead it.
    while (!departures_.empty()) {
      const Departure& d = departures_.front();
      if (d.when > now || (d.when == now && clock_.ahead(d.id))) break;
      ahead_tx_ -= d.tx;
      clock_.passed(&d);
      departures_.pop();
      if (cursor_ != 0) --cursor_;
    }
    clock_.passed(static_cast<const Departure*>(nullptr));
    return departures_.size();
  }
  const Fifo<Departure>& departures() const { return departures_; }
  std::size_t parked() const { return parked_.size(); }
  // Admitted or parked packets (of `flow`, or all) whose virtual arrival
  // is still ahead, the parked ones also in `*parked_ahead`.
  std::size_t arrivals_ahead(SimTime now, const FlowId* flow,
                             std::size_t* parked_ahead = nullptr) {
    // Arrivals come in FIFO order, so the ones still ahead are a suffix of
    // the parked packets and the tx-dones still ahead.  One admitted from
    // the parked list arrived before the fault that admitted it.
    std::size_t n = 0;
    std::size_t waiting = 0;
    const auto counts = [flow](FlowId f) { return !flow || f == *flow; };
    for (std::size_t i = parked_.size(); i > 0; --i) {
      const Parked& x = parked_[i - 1];
      if (x.arrival == kAtClock || x.arrived < now ||
          (x.arrived == now && !clock_.ahead(x.arrival))) {
        if (parked_ahead != nullptr) *parked_ahead = waiting;
        return n;
      }
      ++waiting;
      if (counts(x.p.flow)) ++n;
    }
    if (parked_ahead != nullptr) *parked_ahead = waiting;
    for (std::size_t i = pass(now); i > 0; --i) {
      const Departure& d = departures_[i - 1];
      if (d.arrival == kAtClock || !clock_.ahead(d.arrival)) break;
      if (counts(d.flow)) ++n;
    }
    return n;
  }
  // Packets that have arrived and wait (the eager queue): the first one
  // arrived is on the wire, unless a down link froze it unstarted.
  std::size_t queued(SimTime now) {
    const std::size_t ahead = pass(now);
    const std::size_t arrived =
        ahead + parked_.size() - arrivals_ahead(now, nullptr);
    const bool on_wire = ahead > 0 || head_.has_value();
    return arrived > 0 && on_wire ? arrived - 1 : arrived;
  }
  // The time the transmitter has been busy: packets queued or not yet
  // arrived have not started, and the first arrived one ahead is on the
  // wire.
  SimTime busy(SimTime now) {
    const std::size_t ahead = pass(now);
    std::size_t parked_ahead = 0;
    const std::size_t not_arrived =
        arrivals_ahead(now, nullptr, &parked_ahead);
    const std::size_t arrived = ahead - (not_arrived - parked_ahead);
    SimTime unstarted = ahead_tx_;
    if (arrived > 0) unstarted = unstarted - departures_.front().tx;
    const SimTime done = busy_ - unstarted;
    // With nothing admitted ahead, a started parked head that has arrived
    // is on the wire.
    if (ahead == 0 && head_ && parked_ahead < parked_.size()) {
      return done + head_->tx;
    }
    return done;
  }

 private:
  // The departures that lie after an arrival at (when, arrival), counted
  // with a cursor of its own for a virtual arrival: those before `cursor_`
  // passed their tx-done before the newest virtual arrival.
  std::size_t departures_ahead(SimTime now, SimTime when,
                               std::uint64_t arrival) {
    const std::size_t ahead = pass(now);
    if (arrival == kAtClock) return ahead;  // the arrival is the clock
    std::size_t i = cursor_;
    while (i < departures_.size()) {
      const Departure& d = departures_[i];
      if (d.when > when || (d.when == when && clock_.before(arrival, d.id))) {
        break;
      }
      ++i;
    }
    cursor_ = i;
    return departures_.size() - i;
  }

  Clock clock_;
  const std::size_t buffer_;  // 0: unbounded
  // Admitted packets whose tx-done has not passed, in departure order;
  // `ahead_tx_` sums their tx time and `busy_` every admitted one's.
  Fifo<Departure> departures_;
  std::size_t cursor_ = 0;
  SimTime ahead_tx_ = SimTime::zero();
  SimTime busy_ = SimTime::zero();
  // The declared hook times (sorted) and the next one's index and time
  // (max() past the last); the packets whose tx-done lies at or past it,
  // in FIFO order, the first of them started once its key is fixed.
  std::vector<SimTime> faults_;
  std::size_t next_fault_ = 0;
  SimTime horizon_ = SimTime::max();
  Fifo<Parked> parked_;
  std::optional<Started> head_;
  bool down_ = false;
  std::uint64_t burst_ = 0;
};

}  // namespace dmp

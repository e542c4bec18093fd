// Discrete-event scheduler.
//
// Entries are (time, sequence, callback) triples.  Entries scheduled at the
// same instant fire in scheduling order (FIFO tie-break), which keeps runs
// deterministic.
//
// The priority queue is a calendar queue (src/sim/calendar_queue.hpp),
// O(1) amortized; it pops in strictly increasing (when, seq) order, so the
// order is a property of the keys, not of the container
// (docs/DES_ENGINE.md; tests/sim/ pins it against std::priority_queue).
//
// Hot-path cost model: callables live in a pooled slab of EventFn slots
// (inline storage, no per-event heap allocation) and queue entries carry
// only {time, seq, callable index} — 24 trivially-movable bytes — so queue
// operations never touch the callable.  Nothing posted is cancellable.
//
// Re-armable timers: an owner with one deadline at a time (an RTO, a
// delayed ACK, a probe tick) registers a timer once and re-arms it in
// place; every arm claims its key at call time, as a cancel-and-push timer
// would, and the timer keeps one queued entry.
//
// Ports + claimed keys (the batched-dequeue fast path): an object whose
// events always run the same member function registers it once
// (`register_port`) and schedules against the port id — no EventFn, no
// slab traffic.  An object that owns a FIFO of future events (a link's
// in-flight deliveries, a sender's jittered emissions) claims each event's
// seq when a one-entry-per-event scheduler would have pushed it
// (`claim_seq`) and queues only the head (`arm_key`).
//
// Virtual events (lazy links): an event whose time is known in advance and
// whose handler only claims keys — a drop-tail link's tx-done, its
// delivery into a link fed by nothing else, or a sender's jittered
// emission into its entry link — never enters the queue.
// `add_virtual(when, sigma, claims, cat)` records it at key (when, sigma);
// its claims (`virtual_seq(id, 0|1)`) order exactly where an executed
// event's claims would (the tie rule: a log of real pops, and tie labels
// for chains that tie level for level).  Virtual events count in
// `events_executed()` and the profile, and their claims in
// `events_scheduled()`, once they pass; `events_dispatched()` and
// `pending_events()` count only real pops and entries.  See
// docs/DES_ENGINE.md.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class Scheduler {
 public:
  Scheduler() : cal_(EntryLess{this}) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  // Run `fn` at absolute time `when` (must be >= now()), or after a
  // relative delay (must be >= 0).  The category tags the event for the
  // optional profiler; kOther is free to leave in place at call sites
  // nobody profiles.
  void post_at(SimTime when, EventFn fn,
               EventCategory cat = EventCategory::kOther);
  void post_after(SimTime delay, EventFn fn,
                  EventCategory cat = EventCategory::kOther);
  // post_at under a key claimed earlier (claim_seq, or a virtual event's
  // claim): a FIFO event that cannot wait in its owner's FIFO.
  void post_key(SimTime when, std::uint64_t seq, EventFn fn,
                EventCategory cat);

  // --- ports: devirtualized fire-and-forget dispatch ---
  // A port binds (function pointer, context, category) once; port events
  // skip the EventFn slab entirely.  Ports are never cancelled and never
  // unregistered; the context must outlive every scheduled port event.
  using PortFn = void (*)(void* ctx);
  std::uint32_t register_port(PortFn fn, void* ctx,
                              EventCategory cat = EventCategory::kOther);
  // Defined inline below: these run once per simulated packet hop.
  void post_port_at(SimTime when, std::uint32_t port);
  void post_port_after(SimTime delay, std::uint32_t port);

  // --- re-armable timers (see header comment) ---
  // Registered once per owner, never unregistered; the context must
  // outlive every armed deadline.  `arm` replaces any armed deadline with
  // one at `when` (must be >= now()); a timer is disarmed as it fires, so
  // its callback may re-arm it.
  std::uint32_t register_timer(PortFn fn, void* ctx,
                               EventCategory cat = EventCategory::kOther);
  void arm(std::uint32_t timer, SimTime when);
  void disarm(std::uint32_t timer);
  bool armed(std::uint32_t timer) const { return timers_[timer].armed; }

  // --- claimed keys: caller-owned FIFOs with one queued head ---
  // A real claim with no queue entry yet (a FIFO event's, or a virtual
  // event's key).
  std::uint64_t claim_seq() { return next_seq_++; }
  // Queues a claimed key (real or virtual) for port dispatch.
  void arm_key(SimTime when, std::uint64_t seq, std::uint32_t port) {
    push_entry(Entry{when, seq, port | kPortBit});
  }

  // --- virtual events (see header comment) ---
  // Records a virtual event at key (when, sigma), where sigma is a real
  // claim or another virtual event's claim, and returns its id.  `claims`
  // is how many keys the event claims for itself (a tx-done: 1, its
  // delivery); a virtual sigma also counts as a claim of its owner.  `cat`
  // is its profile category.  The first call starts the pop log.
  std::uint64_t add_virtual(SimTime when, std::uint64_t sigma,
                            std::uint32_t claims, EventCategory cat);
  // Marks key `seq` as made before anything is keyed by it: a virtual
  // event's claim then counts as its owner's (a no-op for a real claim).
  void use_claim(std::uint64_t seq);
  // Bounds how far behind the clock a virtual key may still be compared:
  // the longest delay from an event to the last entry keyed through its
  // claims, plus slack for same-nanosecond chains.  The log keeps every
  // real pop of the last `lookback`, and events are kept twice that long;
  // a lookup past either throws std::logic_error rather than guess.
  void keep_lookback(SimTime lookback) {
    if (lookback > log_.window) widen_lookback(lookback);
  }
  // The seq of claim `index` (0 or 1, in claim order) of virtual event `id`.
  static std::uint64_t virtual_seq(std::uint64_t id, unsigned index) {
    return kVirtualBit | (id << 1) | index;
  }
  // The virtual event a virtual seq is a claim of.
  static std::uint64_t virtual_id(std::uint64_t seq) {
    return (seq & ~kVirtualBit) >> 1;
  }
  // True while virtual event `id` lies ahead of the current position (the
  // running pop, or the end of the last run_until).
  bool virtual_ahead(std::uint64_t id) const;
  // True iff virtual event `a`'s key orders before `b`'s: the order in
  // which the two would pop, decided even while both are still ahead.
  bool virtual_before(std::uint64_t a, std::uint64_t b) const;
  // Resolves a passed virtual event's place among the real claims now,
  // while the pop log still covers it; its owner calls this when the last
  // entry keyed by its claims pops, so later ties never reach back past it.
  // `hint` is a search start kept by the owner across calls: an owner that
  // settles its events in key order (a link's FIFO) starts each search
  // where the previous one ended.
  void settle_virtual(std::uint64_t id, std::uint64_t* hint);
  // Runs `port` at the end of every run_until: a bound lazy link catches
  // its records up.  Its context must outlive every run.
  void at_run_end(std::uint32_t port) { run_end_ports_.push_back(port); }

  // The eager reference the tests check lazy links against: every link
  // stays eager (Link::lazy_eligible).  No production path sets it; the
  // qdisc benchmark runs every discipline's arm on it.
  void keep_links_eager() { links_eager_ = true; }
  bool links_eager() const { return links_eager_; }

  // Attach (or detach, with nullptr) a per-category execution profile
  // before the first event; virtual events count at the end of the
  // run_until they passed in.  `time_events` additionally brackets every
  // callback with steady_clock reads — roughly 40 ns/event, so it is a
  // separate opt-in (DMP_PROFILE) rather than part of the cheap telemetry
  // path.
  void set_profiler(SchedProfile* profile, bool time_events = false) {
    profile_ = profile;
    time_events_ = time_events && profile != nullptr;
  }

  // Run until the event queue drains or the clock passes `horizon`.
  // Returns the number of events executed, virtual ones included.
  std::uint64_t run_until(SimTime horizon);
  // Run until the queue drains.
  std::uint64_t run();

  // Execute at most one real event (virtual ones pass silently); false
  // when the queue is empty or the next event lies beyond `horizon` (clock
  // is then left unchanged).
  bool step(SimTime horizon = SimTime::max());

  // Time of the earliest queued entry, or SimTime::max() when none is.  A
  // timer entry whose deadline was superseded or moved later still counts,
  // so a caller that sleeps until then (a poll loop driving run_until) may
  // wake early, never late.
  SimTime next_event_time() {
    return cal_.empty() ? SimTime::max() : cal_.min().when;
  }

  // Real queue entries: FIFO heads, timer entries and posted events.
  std::size_t pending_events() const { return cal_.size(); }

  // Lifetime work counters.  Cancelled counts superseded timer deadlines
  // (exactly those a cancel-and-push timer pops, after every run_until).
  // Executed and scheduled count the passed virtual events and claims;
  // dispatched counts only the pops that ran a handler.
  std::uint64_t events_executed() const {
    return executed_ + vtx_.end - virtual_ahead_totals().events;
  }
  std::uint64_t events_dispatched() const { return executed_; }
  std::uint64_t events_cancelled() const { return cancelled_; }
  std::uint64_t events_scheduled() const {
    return next_seq_ + virtual_claims_ - virtual_ahead_totals().claims;
  }
  // High-water mark of pending_events().
  std::size_t max_events_pending() const { return max_pending_; }

 private:
  // fn_index values with kPortBit set index ports_, with kTimerBit set
  // timers_, and otherwise the EventFn slab.
  static constexpr std::uint32_t kPortBit = 0x80000000u;
  static constexpr std::uint32_t kTimerBit = 0x40000000u;
  static constexpr std::uint32_t kIndexMask = 0x3FFFFFFFu;

  // Queue entries are deliberately tiny and trivially movable: the callable
  // sits in the fns_ slab (or a port), referenced by index, so queue
  // operations shuffle 24 bytes instead of a type-erased function object.
  struct Entry {
    SimTime when;
    std::uint64_t seq;       // a real claim, or virtual_seq(...)
    std::uint32_t fn_index;  // into fns_, ports_ or timers_ (see above)
  };
  // (when, seq) order.  Two real seqs compare as integers; the tie rule
  // runs only when two entries share a `when` and one seq is virtual.
  struct EntryLess {
    const Scheduler* sched;
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when < b.when;
      if (((a.seq | b.seq) & kVirtualBit) == 0) return a.seq < b.seq;
      return sched->seq_less(a.seq, b.seq);
    }
  };
  struct Port {
    PortFn fn;
    void* ctx;
    std::uint8_t cat;
  };

  // --- virtual events ---
  static constexpr std::uint64_t kVirtualBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kUnresolved = ~std::uint64_t{0};
  static bool is_virtual(std::uint64_t seq) { return (seq & kVirtualBit) != 0; }
  struct VirtualEvent {
    SimTime when;
    std::uint64_t sigma;  // the event's own key seq (real or virtual)
    // Real-claim counter at the first real pop past (when, sigma):
    // kUnresolved until that pop exists, then memoized.
    std::uint64_t c;
    // Log index of the first pop that can lie past the event: pops logged
    // before it was added ran before it.
    std::uint64_t first;
    // Claims that exist: its own, plus one per index another key uses.
    std::uint32_t claims;
    std::uint8_t cat;  // EventCategory, for the profile
  };
  // One real pop (or run_until's end mark): its key and the real-claim
  // counter when it began.
  struct PopRecord {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t counter;
  };
  // Keeps every element pushed during the last `window` of simulated time:
  // a push over a full ring drops the oldest element if it is older than
  // that, and doubles the ring otherwise.  Element i keeps index i for
  // life, so indexes double as ids.
  template <typename T>
  struct WindowRing {
    std::vector<T> slots;     // a power-of-two count, empty until start()
    std::uint64_t mask = 0;   // slots.size() - 1
    std::uint64_t begin = 0;  // oldest kept index
    std::uint64_t end = 0;    // one past the newest
    SimTime window = SimTime::zero();
    SimTime dropped = SimTime::nanos(-1);  // `when` of the newest dropped

    void start(std::size_t capacity) {
      slots.resize(capacity);
      mask = capacity - 1;
    }
    bool kept(std::uint64_t i) const { return i >= begin && i < end; }
    T& operator[](std::uint64_t i) { return slots[i & mask]; }
    const T& operator[](std::uint64_t i) const { return slots[i & mask]; }
    void push(const T& v, SimTime now) {
      if (end - begin > mask) {
        if ((*this)[begin].when + window < now) {
          dropped = (*this)[begin].when;
          ++begin;
        } else {
          std::vector<T> grown(slots.size() * 2);
          for (std::uint64_t i = begin; i < end; ++i) {
            grown[i & (grown.size() - 1)] = (*this)[i];
          }
          slots.swap(grown);
          mask = slots.size() - 1;
        }
      }
      (*this)[end++] = v;
    }
  };
  void start_log();
  void widen_lookback(SimTime lookback);
  const VirtualEvent& virtual_event(std::uint64_t id) const;
  // Total order on claims, real and virtual (the tie rule).
  bool seq_less(std::uint64_t a, std::uint64_t b) const;
  // c of virtual event `id`, or kUnresolved while it is still ahead.
  std::uint64_t resolve(std::uint64_t id) const;
  // Index of the first logged pop past virtual event `id`, searched from
  // `lo`; the newest pop must lie past it.
  std::uint64_t first_pop_past(std::uint64_t id, std::uint64_t lo) const;
  // Logged pop i lies past virtual event `id`'s key.
  bool pop_past(std::uint64_t id, std::uint64_t i) const;
  // Deep ties: two virtual events at one nanosecond whose owners tie too.
  // A label names an event's chain of owners down to its real-keyed root:
  // equal labels mean equal (when, claim index) at every level, so the
  // two order like their roots' real seqs.  Labels are interned on first
  // use and memoized per event, so chains that tie level for level (twin
  // busy periods on identical paths) compare in O(1) however long they
  // run, instead of walking both back to their roots.
  struct TieLabel {
    std::uint64_t label;
    std::uint64_t root;  // the real seq keying the chain's bottom event
  };
  struct TieKey {
    std::int64_t when_ns;
    std::uint64_t below;  // the owner's label (0 below a real-keyed root)
    std::uint64_t index;  // the claim index keying it (2: a real seq)
    bool operator==(const TieKey&) const = default;
  };
  struct TieKeyHash {
    std::size_t operator()(const TieKey& k) const {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(k.when_ns) * 0x9E3779B97F4A7C15ULL) ^
          (k.below * 0xC2B2AE3D27D4EB4FULL) ^ k.index);
    }
  };
  TieLabel tie_label(std::uint64_t id) const;
  // The virtual events still ahead (by category) and their claims.
  struct Ahead {
    std::uint64_t events = 0;
    std::uint64_t claims = 0;
    std::array<std::uint64_t, kNumEventCategories> by_category{};
  };
  Ahead virtual_ahead_totals() const;
  // Adds the virtual events passed since the last call to the profile.
  void profile_virtual();

  // --- timers ---
  static constexpr std::uint64_t kNoEntry = ~std::uint64_t{0};
  struct Key {
    SimTime when;
    std::uint64_t seq;
  };
  struct Timer {
    std::uint32_t port;  // callback and category, dispatched as a port
    bool armed = false;
    Key key{};           // the deadline, while armed
    // The entry that fires or re-pushes; seq kNoEntry when none is queued.
    Key queued{SimTime::zero(), kNoEntry};
  };
  void supersede(const Timer& t);
  bool timer_due(Entry& e);

  void push_entry(const Entry& e) {
    cal_.push(e);
    if (cal_.size() > max_pending_) max_pending_ = cal_.size();
  }
  template <typename F>
  void call(std::uint8_t cat, F&& fn);
  void dispatch(const Entry& e);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t max_pending_ = 0;
  SchedProfile* profile_ = nullptr;  // not owned; null = no attribution
  bool time_events_ = false;
  bool links_eager_ = false;
  std::vector<EventFn> fns_;               // slab of pending callables
  std::vector<std::uint8_t> fn_cats_;      // category byte, parallel to fns_
  std::vector<std::uint32_t> free_fns_;    // recycled slab indexes
  std::vector<Port> ports_;
  std::vector<Timer> timers_;
  // The running run_until's horizon (-1 between runs): a deadline
  // superseded at or before it counts at once, a later one waits in
  // `late_` (a min-heap) for the run whose horizon covers it.
  SimTime horizon_ = SimTime::nanos(-1);
  std::vector<SimTime> late_;
  CalendarQueue<Entry, EntryLess> cal_;

  // Virtual-event state, empty until the first add_virtual.  `c` is
  // memoized from const lookups, hence mutable.
  mutable WindowRing<VirtualEvent> vtx_;
  std::uint64_t virtual_claims_ = 0;  // claims of every virtual event added
  // The real pops since the first add_virtual.
  bool logging_ = false;
  WindowRing<PopRecord> log_;
  // Deep-tie labels by event id, their interned keys, and a scratch chain.
  mutable std::unordered_map<std::uint64_t, TieLabel> tie_labels_;
  mutable std::unordered_map<TieKey, std::uint64_t, TieKeyHash> tie_interned_;
  mutable std::vector<std::uint64_t> tie_chain_;
  mutable std::uint64_t next_tie_label_ = 1;
  // Virtual events added while profiled / counted in it, by category.
  std::array<std::uint64_t, kNumEventCategories> virtual_added_{};
  std::array<std::uint64_t, kNumEventCategories> virtual_profiled_{};
  std::vector<std::uint32_t> run_end_ports_;  // at_run_end
};

// --- inline hot paths (one call per simulated packet hop) ---

inline void Scheduler::post_port_at(SimTime when, std::uint32_t port) {
  if (when < now_) {
    throw std::invalid_argument{"post_port_at: time in the past"};
  }
  push_entry(Entry{when, next_seq_++, port | kPortBit});
}

inline void Scheduler::post_port_after(SimTime delay, std::uint32_t port) {
  post_port_at(now_ + delay, port);
}

inline std::uint64_t Scheduler::add_virtual(SimTime when, std::uint64_t sigma,
                                            std::uint32_t claims,
                                            EventCategory cat) {
  if (when < now_) throw std::invalid_argument{"add_virtual: time in the past"};
  if (!logging_) start_log();
  const std::uint64_t id = vtx_.end;
  const auto c = static_cast<std::uint8_t>(cat);
  vtx_.push(VirtualEvent{when, sigma, kUnresolved, log_.end, claims, c},
            now_);
  virtual_claims_ += claims;
  if (profile_ != nullptr) ++virtual_added_[c];
  use_claim(sigma);
  return id;
}

inline void Scheduler::use_claim(std::uint64_t seq) {
  if (!is_virtual(seq)) return;
  // Claim (seq & 1) of an earlier event: that claim exists.
  VirtualEvent& owner = vtx_[virtual_id(seq)];
  const auto used = static_cast<std::uint32_t>(seq & 1) + 1;
  if (owner.claims < used) {
    virtual_claims_ += used - owner.claims;
    owner.claims = used;
  }
}

inline void Scheduler::settle_virtual(std::uint64_t id, std::uint64_t* hint) {
  VirtualEvent& event = vtx_[id];  // kept: an entry keyed by it is popping
  if (event.c != kUnresolved) return;
  std::uint64_t i = std::max(*hint, event.first);
  if (i < log_.begin) {
    // Pops were dropped since: they all ran before the event only if they
    // are older than it; otherwise never guess.
    if (!(log_.dropped < event.when)) {
      throw std::logic_error{"virtual event lookup ran past the pop log"};
    }
    i = log_.begin;
  }
  // Fast path: a few pops on, one is later by time alone.  A same-time pop
  // or a longer walk takes the full search.
  const std::uint64_t start = i;
  const std::uint64_t stop = std::min(log_.end, i + 16);
  while (i < stop && log_[i].when < event.when) ++i;
  if (i == stop || log_[i].when == event.when) i = first_pop_past(id, start);
  event.c = log_[i].counter;
  *hint = i;
}

}  // namespace dmp

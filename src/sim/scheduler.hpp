// Discrete-event scheduler.
//
// Entries are (time, sequence, callback) triples.  Entries scheduled at the
// same instant fire in scheduling order (FIFO tie-break), which keeps runs
// deterministic.  Cancellation is lazy: `EventHandle::cancel()` marks the
// entry and the run loop skips it when popped — O(1) cancel, no queue
// surgery, which suits TCP timers that are rescheduled on every ACK.
//
// The priority queue is a calendar queue (src/sim/calendar_queue.hpp),
// O(1) amortized; it pops in strictly increasing (when, seq) order, so the
// order is a property of the keys, not of the container
// (docs/DES_ENGINE.md; tests/sim/ pins it against std::priority_queue).
//
// Hot-path cost model: callables live in a pooled slab of EventFn slots
// (inline storage, no per-event heap allocation) and queue entries carry
// only {time, seq, slot indexes} — 24 trivially-movable bytes — so queue
// operations never touch the callable.  The common case (a link delivery,
// a CBR tick) never cancels, so `post_at` / `post_after` skip cancellation
// bookkeeping entirely.  `schedule_at` / `schedule_after` return a
// cancellable EventHandle backed by a pooled generation-stamped slot: slots
// are recycled through free lists, so steady-state timer churn allocates
// nothing.  Handles stay safe after the scheduler dies (the slot pool is
// shared) — they simply report `pending() == false`.
//
// Ports + deferred events (the batched-dequeue fast path): an object whose
// events always run the same member function registers a raw function
// pointer once (`register_port`) and schedules against the port id — no
// EventFn construction, no slab traffic, no type erasure on pop.  An object
// that owns a FIFO of future events (a link's in-flight deliveries, a
// sender's jittered emissions) keeps the FIFO itself and materializes only
// its head in the queue: `defer_at` allocates the event's (when, seq) key —
// at the exact moment the old code would have pushed it, so sequence
// numbers and FIFO tie-breaks are unchanged — and `arm_deferred` inserts a
// stored key when it becomes the FIFO's head.  Deferred events are counted
// in `pending_events()` / `max_events_pending()` as if they were queued.
//
// Virtual events (lazy links): an event whose time is known in advance and
// whose handler only claims keys — a drop-tail link's tx-done — need not
// enter the queue at all.  `add_virtual(when, sigma)` records it at key
// (when, sigma); its claims (`virtual_seq(id, 0|1)`) are seq values that
// order exactly where the claims an executed event would have made order:
// after every real claim made before the event's key passes, before every
// one made after (the tie rule, docs/DES_ENGINE.md).  A log of real pops
// answers "when did it pass" for same-nanosecond ties.  Virtual events
// count in `events_executed()` once they pass, but not in
// `pending_events()` / `max_events_pending()` / `events_scheduled()`,
// which are exact only while no link is lazy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_fn.hpp"
#include "sim/profiler.hpp"
#include "util/sim_time.hpp"

namespace dmp {

class Scheduler;

namespace detail {

// Generation-stamped cancellation slots.  A slot matches a handle only
// while the generations agree; firing or skipping an event bumps the
// generation and recycles the slot.
struct SlotPool {
  struct Slot {
    std::uint32_t gen = 0;
    bool cancelled = false;
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  std::uint32_t acquire() {
    if (!free_list.empty()) {
      const std::uint32_t idx = free_list.back();
      free_list.pop_back();
      return idx;
    }
    slots.push_back(Slot{});
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t idx) {
    ++slots[idx].gen;
    slots[idx].cancelled = false;
    free_list.push_back(idx);
  }

  bool live(std::uint32_t idx, std::uint32_t gen) const {
    return slots[idx].gen == gen;
  }
};

}  // namespace detail

// Shared cancellation token for a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is scheduled and not cancelled / fired.
  bool pending() const {
    return pool_ && pool_->live(slot_, gen_) && !pool_->slots[slot_].cancelled;
  }
  void cancel() {
    if (pool_ && pool_->live(slot_, gen_)) pool_->slots[slot_].cancelled = true;
  }

 private:
  friend class Scheduler;
  EventHandle(std::shared_ptr<detail::SlotPool> pool, std::uint32_t slot,
              std::uint32_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::SlotPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() : cal_(EntryLess{this}) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  // Schedule `fn` at absolute time `when` (must be >= now()).  The
  // category tags the event for the optional profiler; kOther is free to
  // leave in place at call sites nobody profiles.
  EventHandle schedule_at(SimTime when, EventFn fn,
                          EventCategory cat = EventCategory::kOther);
  // Schedule `fn` after a relative delay (must be >= 0).
  EventHandle schedule_after(SimTime delay, EventFn fn,
                             EventCategory cat = EventCategory::kOther);

  // Fire-and-forget variants for events that are never cancelled (packet
  // deliveries, generator ticks): no slot, no handle, no shared state.
  void post_at(SimTime when, EventFn fn,
               EventCategory cat = EventCategory::kOther);
  void post_after(SimTime delay, EventFn fn,
                  EventCategory cat = EventCategory::kOther);

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

  // --- deferred events: caller-owned FIFOs with one armed head ---
  // `defer_at` claims the event's (when, seq) key NOW — bumping the
  // scheduled/pending accounting exactly as a push would — but inserts
  // nothing; the caller stores the key in its FIFO.  `arm_deferred` inserts
  // a previously claimed key (a FIFO head) for port dispatch.  Every
  // claimed key must be armed exactly once; keys armed out of claim order
  // must still be armed in (when, seq) order relative to their FIFO.
  struct Deferred {
    SimTime when;
    std::uint64_t seq;
  };
  Deferred defer_at(SimTime when);
  Deferred defer_after(SimTime delay);
  void arm_deferred(const Deferred& d, std::uint32_t port);

  // --- virtual events (see header comment) ---
  // A real claim with no queue entry: the key of an event that will stay
  // virtual.  Returns the claimed seq.
  std::uint64_t claim_seq() { return next_seq_++; }
  // Records a virtual event at key (when, sigma), where sigma is a real
  // claim or another virtual event's claim, and returns its id.  The first
  // call starts the pop log.  `lookback` bounds how far behind the clock
  // the event's key may still be compared: the longest delay from the
  // event to the last entry keyed by its claims, plus slack for
  // same-nanosecond chains.  The log keeps every real pop of the last
  // `lookback`, and events are kept twice that long; a lookup past either
  // throws std::logic_error rather than guess.
  std::uint64_t add_virtual(SimTime when, std::uint64_t sigma,
                            SimTime lookback);
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
  // Resolves a passed virtual event's place among the real claims now,
  // while the pop log still covers it; its owner calls this when the last
  // entry keyed by its claims pops, so later ties never reach back past it.
  void settle_virtual(std::uint64_t id);
  // Inserts an entry under an already claimed key (real or virtual) for
  // port dispatch; unlike arm_deferred it touches no pending counter.
  void arm_key(SimTime when, std::uint64_t seq, std::uint32_t port) {
    push_entry(Entry{when, seq, port | kPortBit, kNoSlot});
  }

  // Marks this run as one that reads pending_events(), max_events_pending()
  // or per-category counts: links then stay eager so those stay exact.
  // Attaching a profiler implies it.
  void require_exact_counters() { exact_counters_ = true; }
  bool exact_counters() const {
    return exact_counters_ || profile_ != nullptr;
  }

  // Attach (or detach, with nullptr) a per-category execution profile.
  // `time_events` additionally brackets every callback with steady_clock
  // reads — roughly 40 ns/event, so it is a separate opt-in (DMP_PROFILE)
  // rather than part of the cheap telemetry path.
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
  // lazily cancelled entry still counts, so a caller that sleeps until
  // then (a poll loop driving run_until) may wake early, never late.
  SimTime next_event_time() {
    return cal_.empty() ? SimTime::max() : cal_.min().when;
  }

  // Pending = queued entries + deferred keys parked in caller FIFOs, i.e.
  // every event that would have been queued before deferral existed.
  std::size_t pending_events() const { return cal_.size() + deferred_pending_; }
  std::size_t events_pending() const { return pending_events(); }

  // Lifetime work counters.  Lazily-cancelled entries popped off the queue
  // are counted separately from executed events, so scheduler metrics
  // distinguish real work from cancel skips (TCP timers are rescheduled on
  // every ACK, so skips can rival executions).  Executed counts the
  // virtual events that have passed.
  std::uint64_t events_executed() const {
    return executed_ + virtual_passed();
  }
  std::uint64_t events_cancelled() const { return cancelled_; }
  std::uint64_t events_scheduled() const { return next_seq_; }
  // High-water mark of pending events (queued + deferred).
  std::size_t max_events_pending() const { return max_pending_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // fn_index values with this bit set index ports_, not the EventFn slab.
  static constexpr std::uint32_t kPortBit = 0x80000000u;

  // Queue entries are deliberately tiny and trivially movable: the callable
  // sits in the fns_ slab (or a port), referenced by index, so queue
  // operations shuffle 24 bytes instead of a type-erased function object.
  struct Entry {
    SimTime when;
    std::uint64_t seq;       // a real claim, or virtual_seq(...)
    std::uint32_t fn_index;  // into fns_, or ports_ when kPortBit is set
    std::uint32_t slot;      // kNoSlot for fire-and-forget posts
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
  void widen_lookback(SimTime lookback);
  const VirtualEvent& virtual_event(std::uint64_t id) const;
  // Total order on claims, real and virtual (the tie rule).
  bool seq_less(std::uint64_t a, std::uint64_t b) const;
  // c of virtual event `id`, or kUnresolved while it is still ahead.
  std::uint64_t resolve(std::uint64_t id) const;
  // Logged pop i lies past virtual event `event`'s key.
  bool pop_past(const VirtualEvent& event, std::uint64_t i) const;
  std::uint64_t virtual_passed() const;

  void push(SimTime when, EventFn fn, std::uint32_t slot, EventCategory cat);
  void push_entry(const Entry& e) { cal_.push(e); }
  void dispatch(const Entry& e);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t max_pending_ = 0;
  std::size_t deferred_pending_ = 0;  // claimed keys parked in caller FIFOs
  SchedProfile* profile_ = nullptr;  // not owned; null = no attribution
  bool time_events_ = false;
  bool exact_counters_ = false;
  std::shared_ptr<detail::SlotPool> pool_ =
      std::make_shared<detail::SlotPool>();
  std::vector<EventFn> fns_;               // slab of pending callables
  std::vector<std::uint8_t> fn_cats_;      // category byte, parallel to fns_
  std::vector<std::uint32_t> free_fns_;    // recycled slab indexes
  std::vector<Port> ports_;
  CalendarQueue<Entry, EntryLess> cal_;

  // Virtual-event state, empty until the first add_virtual.  `c` is
  // memoized from const lookups, hence mutable.
  mutable WindowRing<VirtualEvent> vtx_;
  // The real pops since the first add_virtual.
  bool logging_ = false;
  WindowRing<PopRecord> log_;
};

// --- inline hot paths (one call per simulated packet hop) ---

inline void Scheduler::post_port_at(SimTime when, std::uint32_t port) {
  if (when < now_) {
    throw std::invalid_argument{"post_port_at: time in the past"};
  }
  push_entry(Entry{when, next_seq_++, port | kPortBit, kNoSlot});
  if (pending_events() > max_pending_) max_pending_ = pending_events();
}

inline void Scheduler::post_port_after(SimTime delay, std::uint32_t port) {
  post_port_at(now_ + delay, port);
}

inline Scheduler::Deferred Scheduler::defer_at(SimTime when) {
  if (when < now_) throw std::invalid_argument{"defer_at: time in the past"};
  // The key is claimed at the exact point the one-entry-per-event code
  // would have pushed, so seq assignment (and with it every same-time
  // tie-break downstream) is unchanged.  The event is logically pending
  // from this moment: counters move now, the queue entry comes later.
  const Deferred d{when, next_seq_++};
  ++deferred_pending_;
  if (pending_events() > max_pending_) max_pending_ = pending_events();
  return d;
}

inline Scheduler::Deferred Scheduler::defer_after(SimTime delay) {
  return defer_at(now_ + delay);
}

inline std::uint64_t Scheduler::add_virtual(SimTime when, std::uint64_t sigma,
                                            SimTime lookback) {
  if (when < now_) throw std::invalid_argument{"add_virtual: time in the past"};
  if (lookback > log_.window) widen_lookback(lookback);  // also starts the log
  const std::uint64_t id = vtx_.end;
  vtx_.push(VirtualEvent{when, sigma, kUnresolved, log_.end}, now_);
  return id;
}

inline void Scheduler::settle_virtual(std::uint64_t id) {
  VirtualEvent& event = vtx_[id];  // kept: an entry keyed by it is popping
  if (event.c != kUnresolved) return;
  // Fast path: a few pops after the event was added, one is later by time
  // alone.  A same-time pop or a longer walk takes the full search.
  if (event.first >= log_.begin) {
    const std::uint64_t stop = std::min(log_.end, event.first + 8);
    for (std::uint64_t i = event.first; i < stop; ++i) {
      const PopRecord& pop = log_[i];
      if (pop.when == event.when) break;
      if (pop.when > event.when) {
        event.c = pop.counter;
        return;
      }
    }
  }
  resolve(id);
}

inline void Scheduler::arm_deferred(const Deferred& d, std::uint32_t port) {
  // Moves one event from a caller FIFO into the queue: total pending is
  // unchanged, so no high-water update.
  --deferred_pending_;
  push_entry(Entry{d.when, d.seq, port | kPortBit, kNoSlot});
}

}  // namespace dmp

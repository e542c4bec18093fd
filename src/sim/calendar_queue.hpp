// Calendar queue (R. Brown, CACM 1988) for the DES scheduler hot path.
//
// The event set of a packet-level simulation is dominated by near-future
// events whose timestamps advance with the clock — the textbook case where
// a calendar beats a binary heap: O(1) amortized enqueue/dequeue instead of
// O(log n) sifts.  Days are power-of-two nanosecond spans so the bucket of
// a timestamp is a shift+mask, never a divide; the year wraps over a
// power-of-two bucket count.
//
// Each bucket is an ascending (when, seq) run with a pop cursor, so the
// common pop is a cursor bump — no memmove, no sift.  A push keyed at or
// after the bucket's tail appends; any other push takes a sorted insert
// into the live suffix.  In packet-level sessions the insert is the common
// case: about three pushes in four over a Figs. 4/5 validation sweep.
//
// Ordering contract: pops come out in EXACTLY the order a binary heap over
// the same (when, seq) keys would produce them — strictly increasing
// (when, seq) lexicographic order.  Same-nanosecond events always land in
// the same bucket, where the sorted insert orders them by seq, so FIFO
// tie-breaking survives every resize and year wrap.  The scheduler's
// differential suite (tests/sim/calendar_queue_test.cpp) pins this against
// std::priority_queue on randomized workloads.  Calendar geometry (bucket
// count, day width, rebuild timing) is pure wall-clock tuning — it can
// never reorder pops.
//
// Sizing policy: the calendar doubles when occupancy exceeds two entries
// per bucket and halves below one entry per two buckets (4x hysteresis, so
// steady-state churn never thrashes).  The day width comes from an EMA of
// the gaps between consecutively popped keys — the rate the clock actually
// advances — NOT from the pending set's span: a steady-size queue (the
// classic DES profile) never triggers an occupancy resize, and one
// far-future sentinel would poison a span-based estimate for good.  Every
// kCalibratePops pops the width is re-checked and the calendar rebuilt in
// place when it drifts 4x from the target.  A full year without a hit
// falls back to a global min-bucket scan and jumps straight to that day.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmp {

// Plain (when, seq) lexicographic order.
template <typename Entry>
struct WhenSeqLess {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
};

// Entry must expose `when` (SimTime) and `seq` (uint64); (when, seq) pairs
// are unique per queue (seq is a global schedule counter).  `Less` is a
// strict total order that agrees with `when` first; the scheduler's one
// extends the seq comparison with its virtual-event tie rule.
template <typename Entry, typename Less = WhenSeqLess<Entry>>
class CalendarQueue {
 public:
  explicit CalendarQueue(Less less = Less{}) : less_(less) {
    buckets_.resize(kMinBuckets);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const Entry& e) {
    const std::uint64_t ns = key_ns(e);
    Bucket& bucket = buckets_[bucket_of(ns)];
    if (bucket.v.empty() || !less_(e, bucket.v.back())) {
      // Monotone fast path: at or after the bucket tail.
      bucket.v.push_back(e);
    } else {
      // Out-of-order: sorted insert into the live suffix (everything before
      // `head` is already popped, so the position is never below it).
      bucket.v.insert(std::upper_bound(bucket.v.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               bucket.head),
                                       bucket.v.end(), e, less_),
                      e);
    }
    ++size_;
    // An event behind the calendar's current day would be missed by the
    // forward scan: rewind to its day (cheap, and rare — only timers that
    // undercut every pending event do this).
    if (ns < day_start_) {
      cur_ = bucket_of(ns);
      day_start_ = align_day(ns);
    }
    if (size_ > (buckets_.size() << 1)) {
      rebuild(buckets_.size() << 1);
    }
  }

  // Smallest (when, seq) entry; undefined when empty.
  const Entry& min() {
    locate_min();
    const Bucket& bucket = buckets_[cur_];
    return bucket.v[bucket.head];
  }

  Entry pop_min() {
    locate_min();
    Bucket& bucket = buckets_[cur_];
    Entry e = bucket.v[bucket.head++];
    if (bucket.head == bucket.v.size()) {
      bucket.v.clear();
      bucket.head = 0;
    } else if (bucket.head >= 64 && bucket.head > (bucket.v.size() >> 1)) {
      // A long-lived bucket (streamed through within one day) keeps its
      // dead prefix bounded.
      bucket.v.erase(bucket.v.begin(),
                     bucket.v.begin() +
                         static_cast<std::ptrdiff_t>(bucket.head));
      bucket.head = 0;
    }
    --size_;
    observe_pop(key_ns(e));
    if (buckets_.size() > kMinBuckets && size_ < (buckets_.size() >> 1)) {
      rebuild(buckets_.size() >> 1);
    }
    return e;
  }

  // Introspection for tests and the resize differential suite.
  std::size_t bucket_count() const { return buckets_.size(); }
  int day_shift() const { return shift_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::uint32_t kCalibratePops = 1024;

  // Ascending (when, seq) run; live entries are v[head..).
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;
    bool live() const { return head < v.size(); }
    const Entry& front() const { return v[head]; }
  };

  static std::uint64_t key_ns(const Entry& e) {
    // SimTime is non-negative (scheduling in the past throws upstream), so
    // the unsigned cast preserves order and makes day arithmetic overflow-
    // free even for sentinel far-future timestamps.
    return static_cast<std::uint64_t>(e.when.ns());
  }

  std::size_t bucket_of(std::uint64_t ns) const {
    return static_cast<std::size_t>(ns >> shift_) & (buckets_.size() - 1);
  }
  std::uint64_t align_day(std::uint64_t ns) const {
    return (ns >> shift_) << shift_;
  }
  std::uint64_t day_width() const { return std::uint64_t{1} << shift_; }

  // Power-of-two day width near 3x the estimated inter-pop gap: wide
  // enough that consecutive pops usually stay in one bucket, narrow enough
  // that a day rarely holds a long sorted run.
  int shift_for_gap(std::uint64_t gap_ns) const {
    const std::uint64_t target = gap_ns * 3 + 1;
    int shift = 1;
    while (shift < 40 && (std::uint64_t{1} << shift) < target) ++shift;
    return shift;
  }

  // Per-pop gap EMA (alpha = 1/8) + periodic width recalibration.
  void observe_pop(std::uint64_t ns) {
    if (popped_any_) {
      const std::int64_t delta =
          static_cast<std::int64_t>(ns - last_pop_ns_) -
          static_cast<std::int64_t>(gap_ema_ns_);
      gap_ema_ns_ = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(gap_ema_ns_) + (delta >> 3));
    }
    popped_any_ = true;
    last_pop_ns_ = ns;
    if (++pops_since_calibrate_ >= kCalibratePops) {
      pops_since_calibrate_ = 0;
      const int target = shift_for_gap(gap_ema_ns_);
      if (target >= shift_ + 2 || target + 2 <= shift_) {
        rebuild(buckets_.size());
      }
    }
  }

  // Advance cur_ to the bucket holding the global minimum.  The fast path
  // finds it within the current year's forward scan; a dry year falls back
  // to one pass over all bucket minima.
  void locate_min() {
    for (std::size_t scanned = 0; scanned <= buckets_.size(); ++scanned) {
      const Bucket& bucket = buckets_[cur_];
      if (bucket.live() &&
          key_ns(bucket.front()) < day_start_ + day_width()) {
        return;
      }
      cur_ = (cur_ + 1) & (buckets_.size() - 1);
      day_start_ += day_width();
    }
    // Sparse tail: no event within a full year of the clock.  Distinct
    // buckets never hold equal timestamps (same ns implies same bucket), so
    // comparing bucket minima by (when, seq) is unambiguous.
    std::size_t best = buckets_.size();
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (!buckets_[b].live()) continue;
      if (best == buckets_.size() ||
          less_(buckets_[b].front(), buckets_[best].front())) {
        best = b;
      }
    }
    cur_ = best;
    day_start_ = align_day(key_ns(buckets_[best].front()));
  }

  void rebuild(std::size_t nbuckets) {
    std::vector<Entry> all;
    all.reserve(size_);
    for (Bucket& bucket : buckets_) {
      for (std::size_t i = bucket.head; i < bucket.v.size(); ++i) {
        all.push_back(bucket.v[i]);
      }
      bucket.v.clear();
      bucket.head = 0;
    }
    buckets_.resize(nbuckets);
    // Globally sorted redistribution keeps every per-bucket run ascending
    // with plain appends.
    std::sort(all.begin(), all.end(), less_);
    if (popped_any_) {
      shift_ = shift_for_gap(gap_ema_ns_);
    } else if (size_ > 1) {
      // No pops yet (bulk setup): fall back to the pending set's mean gap.
      const std::uint64_t span = key_ns(all.back()) - key_ns(all.front());
      shift_ = shift_for_gap(span / static_cast<std::uint64_t>(size_));
    }
    for (const Entry& e : all) {
      buckets_[bucket_of(key_ns(e))].v.push_back(e);
    }
    // Re-anchor the calendar on the new geometry at the global minimum (or
    // at the epoch when empty; the next push rewinds as needed).
    day_start_ = 0;
    cur_ = 0;
    if (size_ > 0) {
      const std::uint64_t min_ns = key_ns(all.front());
      cur_ = bucket_of(min_ns);
      day_start_ = align_day(min_ns);
    }
  }

  Less less_;
  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  int shift_ = 20;  // ~1 ms days until the first calibration
  std::size_t cur_ = 0;
  std::uint64_t day_start_ = 0;
  // Width estimator state (observe_pop).
  std::uint64_t gap_ema_ns_ = std::uint64_t{1} << 18;
  std::uint64_t last_pop_ns_ = 0;
  std::uint32_t pops_since_calibrate_ = 0;
  bool popped_any_ = false;
};

}  // namespace dmp
// Event heap: the DES scheduler's priority queue.
//
// A 4-ary min-heap in one vector.  Sifts move a hole rather than swapping
// (each level copies one entry, not three), and four children per node
// halve the depth of a binary heap; at the queue depths the packet-level
// sessions reach (a few hundred entries) a pop touches four or five
// levels, all in a few cache lines.
//
// Ordering contract: pops come out in strictly increasing `Less` order.
// `Less` must be a strict total order over the entries pushed (the
// scheduler's is (when, seq) with its virtual-event tie rule), and its
// answer for two entries must not change while both are queued: a heap
// compares entries again when it pops, not only when it pushes.
// tests/sim/event_heap_test.cpp pins the pop order against
// std::priority_queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dmp {

template <typename Entry, typename Less>
class EventHeap {
 public:
  explicit EventHeap(Less less) : less_(less) {}

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }

  // Smallest entry; undefined when empty.
  const Entry& min() const { return v_.front(); }

  void push(const Entry& e) {
    std::size_t hole = v_.size();
    v_.push_back(e);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!less_(e, v_[parent])) break;
      v_[hole] = v_[parent];
      hole = parent;
    }
    v_[hole] = e;
  }

  // Removes and returns the smallest entry; undefined when empty.
  Entry pop_min() {
    const Entry top = v_.front();
    const Entry last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return top;
    // Sift `last` down from the root's hole.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less_(v_[c], v_[best])) best = c;
      }
      if (!less_(v_[best], last)) break;
      v_[hole] = v_[best];
      hole = best;
    }
    v_[hole] = last;
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;

  Less less_;
  std::vector<Entry> v_;
};

}  // namespace dmp

// A fixed calibration kernel that measures how fast the host runs
// DES-shaped work right now.  It never changes with the repository's code,
// so timing it beside the workload separates the host's drift from the
// code's speed.
//
// The kernel is a small discrete-event loop: a binary heap of pending
// events, each popped event updating one of 64k 64-byte flow records
// (4 MiB, past the private caches, like a session's links, flows and
// packet pool) and posting its successor.  One slice runs kSliceEvents
// events.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  static constexpr std::size_t kFlows = 1u << 16;
  static constexpr std::size_t kPending = 4096;
  static constexpr std::size_t kSliceEvents = 20000;

  HostSpeedProbe() : flows_(kFlows) {
    heap_.reserve(kPending);
    for (std::size_t i = 0; i < kPending; ++i) {
      heap_.push_back(Event{static_cast<double>(next() % 1000),
                            static_cast<std::uint32_t>(next() % kFlows)});
    }
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Runs one slice and returns its wall time in seconds.
  double slice_s() {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kSliceEvents; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event e = heap_.back();
      Flow& f = flows_[e.flow];
      f.bytes += f.cwnd;
      f.cwnd = f.cwnd < 64 ? f.cwnd + 1 : f.cwnd / 2;
      f.last = e.t;
      f.seq[f.bytes & 7] += e.flow;
      const std::uint64_t r = next();
      e.t += 1.0 + static_cast<double>(r & 1023) * 1e-3;
      e.flow = static_cast<std::uint32_t>((r >> 20) % kFlows);
      heap_.back() = e;
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  struct Event {
    double t;
    std::uint32_t flow;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.t > b.t; }
  };
  struct alignas(64) Flow {
    std::uint64_t bytes = 0;
    std::uint64_t cwnd = 1;
    double last = 0.0;
    std::uint32_t seq[8] = {};
  };

  std::uint64_t next() {  // SplitMix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::vector<Flow> flows_;
  std::vector<Event> heap_;
  std::uint64_t state_ = 2007;
};

}  // namespace perfbench

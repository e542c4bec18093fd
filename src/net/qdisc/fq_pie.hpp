// FQ-PIE — flow-queueing PIE (RFC 8033 §5.5 style, after Linux fq_pie).
//
// Arrivals hash by flow id into one of `flows` buckets, each with its own
// FIFO and its own PIE controller; a deficit-round-robin scheduler (one
// kDataPacketBytes quantum) serves the active buckets, so a flooding
// background flow cannot starve the video flow sharing the bottleneck —
// the isolation property tests/net/qdisc_test.cpp pins.
//
// Per-bucket queueing delay is the HEAD packet's sojourn time (the
// bucket's drain share is scheduler-dependent, so bytes/rate is
// unknowable per bucket); the controllers step lazily off arrival
// timestamps like plain PIE.  When an arrival finds the aggregate buffer
// full, the HEAD of the longest bucket is discarded (overlimit) to make
// room — the flooding flow pays for the shared buffer it fills, not
// whoever arrives next (the fq_codel discipline).  Early-drop trials
// share one per-link Rng.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/qdisc/pie.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "util/rng.hpp"

namespace dmp {

class FqPieQdisc final : public QueueDiscipline {
 public:
  FqPieQdisc(std::size_t buffer_packets, int flows, PieParams params,
             std::uint64_t seed);

  const char* name() const override { return "fq_pie"; }
  bool enqueue(const Packet& p, SimTime now) override;
  bool dequeue(Packet* out, SimTime now) override;
  std::size_t len() const override { return total_len_; }

  // Exposed for the isolation / DRR tests.
  std::size_t bucket_of(FlowId flow) const;

 private:
  struct Entry {
    Packet packet;
    SimTime enqueued;
  };
  struct Bucket {
    std::deque<Entry> queue;
    PieController pie;
    std::int64_t deficit = 0;
    bool active = false;  // currently in the DRR rotation

    explicit Bucket(PieParams params) : pie(params) {}
  };

  void advance(SimTime now);
  double bucket_delay_s(const Bucket& b, SimTime now) const;
  bool should_early_drop(const Bucket& b);
  void drop_from_longest();
  void activate(std::size_t index);

  std::size_t buffer_packets_;
  PieParams params_;
  Rng rng_;
  std::vector<Bucket> buckets_;
  std::deque<std::size_t> active_;  // DRR rotation of active bucket indices
  std::size_t total_len_ = 0;
  bool clock_started_ = false;
  SimTime next_update_ = SimTime::zero();
};

}  // namespace dmp

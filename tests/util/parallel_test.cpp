// OrderedPool: deterministic fan-out/fan-in used by the experiment runner
// and the sharded Monte-Carlo estimator.  The contract under test: consume
// runs on the calling thread in strict index order regardless of worker
// count, and produce errors surface at the owning index.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dmp {
namespace {

TEST(ResolveWorkerThreads, ZeroMeansHardwareButAtLeastOne) {
  EXPECT_GE(resolve_worker_threads(0), 1u);
  EXPECT_EQ(resolve_worker_threads(3), 3u);
}

TEST(OrderedPool, ConsumesInIndexOrderWithManyWorkers) {
  OrderedPool pool(4);
  constexpr std::size_t kN = 64;
  std::mutex mu;
  std::condition_variable produced_cv;
  std::vector<bool> produced(kN, false);
  std::vector<std::size_t> produced_order;
  std::vector<std::size_t> order;
  pool.run_ordered(
      kN,
      [&](std::size_t i) {
        // Deterministic stagger: every third item finishes only after its
        // successor.  Workers claim indices in ascending order, so i + 1 is
        // claimed by another worker, and the one worker whose claim is the
        // newest is the only one that can wait on an unclaimed successor:
        // with >= 2 workers this cannot deadlock.
        std::unique_lock<std::mutex> lock(mu);
        if (i % 3 == 0 && i + 1 < kN) {
          produced_cv.wait(lock, [&] { return produced[i + 1]; });
        }
        produced[i] = true;
        produced_order.push_back(i);
        produced_cv.notify_all();
        return i * 10;
      },
      [&](std::size_t i, std::size_t value) {
        EXPECT_EQ(value, i * 10);
        order.push_back(i);
      });
  ASSERT_EQ(order.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
  // Production really ran out of index order: each staggered item
  // finished after its successor.
  ASSERT_EQ(produced_order.size(), kN);
  const auto position = [&](std::size_t i) {
    return std::find(produced_order.begin(), produced_order.end(), i) -
           produced_order.begin();
  };
  for (std::size_t i = 0; i + 1 < kN; i += 3) {
    EXPECT_LT(position(i + 1), position(i)) << "item " << i;
  }
}

TEST(OrderedPool, SerialFallbackMatchesParallel) {
  auto run = [](std::size_t threads) {
    OrderedPool pool(threads);
    std::vector<int> out;
    pool.run_ordered(
        10, [](std::size_t i) { return static_cast<int>(i * i); },
        [&](std::size_t, int v) { out.push_back(v); });
    return out;
  };
  EXPECT_EQ(run(1), run(5));
}

TEST(OrderedPool, MapReturnsResultsInOrder) {
  OrderedPool pool(3);
  const auto squares =
      pool.map(8, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(squares.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(OrderedPool, ProduceExceptionPropagatesToCaller) {
  OrderedPool pool(4);
  std::atomic<int> consumed{0};
  EXPECT_THROW(
      pool.run_ordered(
          16,
          [](std::size_t i) -> int {
            if (i == 7) throw std::runtime_error("boom");
            return static_cast<int>(i);
          },
          [&](std::size_t, int) { ++consumed; }),
      std::runtime_error);
  // Everything before the failing index was consumed in order.
  EXPECT_EQ(consumed.load(), 7);
}

TEST(OrderedPool, ZeroItemsIsANoOp) {
  OrderedPool pool(2);
  int consumed = 0;
  pool.run_ordered(
      0, [](std::size_t) { return 0; }, [&](std::size_t, int) { ++consumed; });
  EXPECT_EQ(consumed, 0);
}

}  // namespace
}  // namespace dmp

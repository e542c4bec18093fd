// The process-wide memoized chain cache: repeated solves of the same
// TcpChainParams must be O(1) lookups (no re-BFS, no re-solve), keyed by
// the canonicalized parameter bits, with bounded LRU eviction.
#include "model/chain_cache.hpp"

#include <gtest/gtest.h>

#include "model/composed_chain.hpp"
#include "model/tcp_chain.hpp"

namespace dmp {
namespace {

TcpChainParams flow(double loss) {
  TcpChainParams p;
  p.loss_rate = loss;
  p.rtt_s = 0.2;
  p.to_ratio = 2.0;
  p.wmax = 6;
  p.max_backoff = 3;
  return p;
}

TEST(ChainCache, RepeatedLookupsShareOneSolvedChain) {
  chain_cache_clear();
  const auto first = shared_flow_chain(flow(0.04));
  const auto misses_after_first = chain_cache_stats().misses;
  for (int i = 0; i < 50; ++i) {
    const auto again = shared_flow_chain(flow(0.04));
    EXPECT_EQ(again.get(), first.get());  // same object, not a rebuild
  }
  const auto stats = chain_cache_stats();
  EXPECT_EQ(stats.misses, misses_after_first);
  EXPECT_GE(stats.hits, 50u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ChainCache, HitIsConstantTimeRelativeToASolve) {
  chain_cache_clear();
  // A miss pays BFS + stationary solve; a hit is a mutex + hash lookup.
  // Rather than wall-clock (flaky under load), assert the observable
  // contract: constructing many engines over the same params performs
  // exactly one solve (miss count does not grow).
  ComposedParams params;
  params.flows = {flow(0.04), flow(0.04)};
  params.mu_pps = 40.0;
  params.tau_s = 1.0;
  { DmpModelMonteCarlo warm(params, 1); }
  const auto misses_before = chain_cache_stats().misses;
  for (int i = 0; i < 100; ++i) {
    DmpModelMonteCarlo engine(params, 1);
  }
  EXPECT_EQ(chain_cache_stats().misses, misses_before);
}

TEST(ChainCache, DistinctParametersGetDistinctEntries) {
  chain_cache_clear();
  const auto a = shared_flow_chain(flow(0.04));
  const auto b = shared_flow_chain(flow(0.05));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(chain_cache_stats().entries, 2u);
}

TEST(ChainCache, EvictsLeastRecentlyUsedPastCapacity) {
  chain_cache_clear();
  const auto original_capacity = chain_cache_capacity();
  set_chain_cache_capacity(2);
  const auto a = shared_flow_chain(flow(0.03));
  shared_flow_chain(flow(0.04));
  shared_flow_chain(flow(0.05));  // evicts 0.03
  EXPECT_EQ(chain_cache_stats().entries, 2u);
  EXPECT_GE(chain_cache_stats().evictions, 1u);
  // The evicted chain is rebuilt on next request (a new object), while the
  // caller's shared_ptr keeps the old solve alive independently.
  const auto rebuilt = shared_flow_chain(flow(0.03));
  EXPECT_NE(rebuilt.get(), a.get());
  EXPECT_GT(a->num_states(), 0u);  // still usable
  set_chain_cache_capacity(original_capacity);
  chain_cache_clear();
}

TEST(ChainCache, RejectsZeroCapacity) {
  EXPECT_THROW(set_chain_cache_capacity(0), std::invalid_argument);
}

}  // namespace
}  // namespace dmp

// The composed DMP-streaming model (Section 4.2):
//
//   state = (X_1, ..., X_K, N),  N = early packets in the client buffer.
//
//   * Each flow's transition adds its delivered count S to N, clipped at
//     Nmax = mu * tau (live-source constraint, Section 2.1); a flow is
//     frozen (makes no transition) while N = Nmax.
//   * Consumption events fire at the playback rate mu; a consumption that
//     finds N = 0 is a late packet.  Consumption is Poisson and state-
//     independent, so by PASTA the late fraction equals the stationary
//     probability P(N = 0) — the paper's f = P(N < 0 | E = C).
//
// Two backends:
//   * ComposedChainExact materializes the product chain and solves it with
//     the sparse CTMC solver — exact, but exponential in K and linear in
//     Nmax, so practical only for small configurations (used to validate
//     the Monte-Carlo engine).
//   * DmpModelMonteCarlo samples trajectories of the same generator —
//     linear-time per event, handles any Nmax / wmax, and is the workhorse
//     behind every Section-7 figure.
//
// The Monte-Carlo engine has one sampler (docs/MODEL_ENGINE.md).  It
// replays the historical event loop draw for draw — one uniform per event,
// linear transition scans — so seeded runs reproduce the golden pins
// byte-identically.  It decides each event by integer compares of the raw
// 53-bit draw against exact cuts: the consumption and flow cuts of the
// current exit-rate class (compat_class_cuts, kept in a ClassCutTable)
// and the chain's per-edge pick cuts (TcpFlowChain::pick_cut).  Runs of
// consecutive consumptions are accounted in one fold.  Sharded estimation
// (run_sharded) runs independent engines of the same sampler.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/tcp_chain.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dmp {

struct ComposedParams {
  std::vector<TcpChainParams> flows;  // K >= 1 paths
  double mu_pps = 25.0;               // playback / generation rate
  double tau_s = 10.0;                // startup delay; Nmax = round(mu * tau)

  std::int64_t nmax() const;
};

// The materialized product-chain generator (validation sizes only; throws
// beyond ~2M states).  Exposed so tests can cross-check the two
// steady-state solvers on the same composed chain.
Ctmc composed_ctmc(const ComposedParams& params);

// The sampler's cuts for one exit-rate class: flows with exit rates
// exits[0..kflows) and playback rate mu, total = mu + exits[0] + ... in
// index order.  A draw b (Rng::draw53) is a consumption iff b < cuts[0],
// the smallest b with !(Rng::unit(b) * total < mu); otherwise its flow is
// the number of i in [1, kflows) with cuts[i] <= b, where cuts[i] is the
// smallest b at which the sequential-subtraction flow scan of
// Rng::unit(b) * total - mu picks flow i or later.  Each cut is searched
// on the historical expression itself, so the integer decisions equal the
// floating-point ones for every draw.  Writes kflows cuts.
void compat_class_cuts(double mu, const double* exits, std::size_t kflows,
                       std::uint64_t* cuts);

// compat_class_cuts per tuple of the flows' exit-rate classes, filled on
// first use; both samplers (DmpModelMonteCarlo, stored_video_late_fraction)
// decide by it.  A flow's class (TcpFlowChain::exit_class) fixes its exit
// rate, so the tuple of the flows' classes fixes every cut.  The tuple's
// mixed-radix index, the sum of class * stride(k), picks a slot of K + 1
// words, [index, K cuts]: the slot numbered by the index itself when there
// are at most kSlots tuples (mult_ = 1, shift_ = 0), else one of kSlots
// slots by a multiplicative hash, where a slot holding another index is
// refilled.  The chains need build_pick_cuts() first.
class ClassCutTable {
 public:
  ClassCutTable() = default;
  // Throws std::invalid_argument for 2^62 or more class tuples.
  ClassCutTable(double mu,
                std::vector<std::shared_ptr<const TcpFlowChain>> chains);

  std::uint64_t stride(std::size_t k) const { return stride_[k]; }
  // The cuts of the class tuple numbered `index`: cuts[0] for consumption,
  // cuts[1..K) for the flow pick.  Valid until the next call.
  const std::uint64_t* cuts(std::uint64_t index) {
    std::uint64_t* const slot =
        table_.data() + ((index * mult_) >> shift_) * (chains_.size() + 1);
    if (slot[0] != index) fill(slot, index);
    return slot + 1;
  }

 private:
  static constexpr std::uint64_t kNoIndex = ~0ull;
  static constexpr int kSlotBits = 14;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;

  void fill(std::uint64_t* slot, std::uint64_t index);

  double mu_ = 0.0;
  std::vector<std::shared_ptr<const TcpFlowChain>> chains_;
  std::vector<std::uint64_t> stride_;
  std::vector<std::uint64_t> table_;
  std::vector<double> exits_;  // scratch for fill: the tuple's exit rates
  std::uint64_t mult_ = 1;
  int shift_ = 0;
};

class ComposedChainExact {
 public:
  explicit ComposedChainExact(const ComposedParams& params);

  std::uint32_t num_states() const { return num_states_; }
  // Stationary late-packet fraction f = P(N = 0).
  double late_fraction() const { return late_fraction_; }
  // Stationary distribution of N alone (marginal).
  const std::vector<double>& n_marginal() const { return n_marginal_; }

 private:
  std::uint32_t num_states_ = 0;
  double late_fraction_ = 0.0;
  std::vector<double> n_marginal_;
};

struct MonteCarloResult {
  double late_fraction = 0.0;
  ConfidenceInterval ci{};
  std::uint64_t consumptions = 0;
  std::uint64_t late = 0;
  // Fraction of the delivered packets contributed by each flow — the
  // model-side analogue of the DMP path split.
  std::vector<double> flow_share;
  double mean_early_packets = 0.0;
};

// Stored-video extension: the live-source constraint (and with it the
// Nmax cap) disappears — flows prefetch arbitrarily far ahead, and the
// video has a finite length, so the analysis is finite-horizon instead of
// stationary.  One replication plays the whole video; the late fraction is
// averaged over replications.
struct StoredVideoResult {
  double late_fraction = 0.0;
  ConfidenceInterval ci{};  // across replications
  std::uint64_t replications = 0;
};

StoredVideoResult stored_video_late_fraction(
    const ComposedParams& params, std::int64_t video_packets,
    std::uint64_t replications, std::uint64_t seed);

class DmpModelMonteCarlo {
 public:
  DmpModelMonteCarlo(const ComposedParams& params, std::uint64_t seed);

  // Simulates until `consumptions` consumption events have been *counted*
  // (after discarding `warmup` consumptions for the initial transient).
  // Throws std::invalid_argument for consumptions == 0.
  MonteCarloResult run(std::uint64_t consumptions, std::uint64_t warmup = 0);

  // Sequential variant for threshold decisions: stops early once the CI
  // (95%) separates from `threshold`, or after `max_consumptions`.
  // Returns the estimate with whatever precision was reached.  Throws
  // std::invalid_argument for min_consumptions == 0.
  MonteCarloResult run_until_decides(double threshold,
                                     std::uint64_t min_consumptions,
                                     std::uint64_t max_consumptions);

  // run_until_decides with the same warm-up, checkpoints and RNG stream,
  // except that counting ends as soon as the late count reaches L*, the
  // smallest count whose estimate at the last reachable checkpoint is not
  // below `threshold`: from there on no checkpoint can decide "pass", so
  // the verdict (late_fraction < threshold) is "fail" whatever the
  // remaining draws would be (docs/MODEL_ENGINE.md, "Exact early
  // decisions").  The verdict always equals run_until_decides'; a result
  // that passes is identical to it.  After an early stop the estimate
  // covers fewer consumptions and the engine's trajectory is not the one
  // later calls would have continued.  Throws std::invalid_argument unless
  // min_consumptions > 0 and threshold is finite and > 0.
  MonteCarloResult run_until_verdict(double threshold,
                                     std::uint64_t min_consumptions,
                                     std::uint64_t max_consumptions);

  static constexpr std::uint64_t kAutoWarmup = ~0ull;

  // Deterministic sharded estimation: `shards` independent trajectories,
  // each a fresh engine's run(consumptions_per_shard, warmup_per_shard)
  // with shard s seeded from the SplitMix64 stream (seed, shard
  // domain).at(s), executed on an OrderedPool and merged in shard order.
  // The result is a pure function of (params, seed, shards,
  // consumptions_per_shard, warmup_per_shard) — byte-identical at any
  // `threads` / DMP_THREADS, matching the experiment-runner contract.
  // The CI is a t-interval over per-shard late fractions.  This engine's
  // own trajectory and RNG are untouched.
  MonteCarloResult run_sharded(std::uint64_t shards,
                               std::uint64_t consumptions_per_shard,
                               std::uint64_t warmup_per_shard = kAutoWarmup,
                               std::size_t threads = 0) const;

 private:
  static constexpr std::uint64_t kNoLateStop = ~0ull;

  // Shared body of the two sequential decisions: counting also ends once
  // late_ reaches `late_stop`.
  MonteCarloResult decide(double threshold, std::uint64_t min_consumptions,
                          std::uint64_t max_consumptions,
                          std::uint64_t late_stop);
  // Discards `warmup` consumptions, then resets the run accounting.
  void start_counting(std::uint64_t warmup);
  // The hot loop: one 53-bit draw per event, decided by integer cuts,
  // each run of consumptions between flow events folded in one step, until
  // counted consumptions reach `target` or the late count reaches
  // `late_stop` at a segment boundary, whichever first.
  void advance_to(std::uint64_t target,
                  std::uint64_t late_stop = kNoLateStop);
  MonteCarloResult snapshot() const;

  ComposedParams params_;
  std::vector<std::shared_ptr<const TcpFlowChain>> chains_;
  std::vector<std::uint32_t> flow_state_;
  std::int64_t n_ = 0;
  std::int64_t nmax_;
  Rng rng_;
  std::uint64_t seed_;

  // accounting for the current run() call
  std::uint64_t late_ = 0;
  std::uint64_t counted_ = 0;
  std::vector<std::uint64_t> flow_delivered_;
  double early_sum_ = 0.0;
  BatchMeans batches_;

  std::vector<std::uint32_t> compat_class_;  // each flow's current class
  ClassCutTable compat_cuts_;
};

}  // namespace dmp

#include "model/composed_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "model/chain_cache.hpp"
#include "solver/ctmc.hpp"
#include "util/parallel.hpp"
#include "util/seed_stream.hpp"

namespace dmp {

namespace {

// Seed-stream domain for Monte-Carlo shards (kind 17 of the registry in
// exp/plan.hpp; kinds >= 16 are reserved for library-internal streams).
constexpr std::uint64_t kShardDomain = 17ull << 32;

// Accounts `j` consecutive consumptions that start at N = n.  The first
// min(j, N) are on time and walk N down to 0; the rest find an empty
// buffer.  This equals j single consumptions sample for sample, in the
// same order for the batch-means stream.  The closed-form sum of N after
// each on-time consumption, (n-1) + ... + (n-m), is exact because every
// partial sum is an integer below 2^53.
inline void consume_segment(std::uint64_t j, std::int64_t& n,
                            std::uint64_t& late, std::uint64_t& counted,
                            double& early_sum, BatchMeans& batches) {
  if (j == 0) return;
  const auto ontime = std::min<std::uint64_t>(j, static_cast<std::uint64_t>(n));
  const std::uint64_t newly_late = j - ontime;
  const double n0 = static_cast<double>(n);
  const double m = static_cast<double>(ontime);
  early_sum += m * n0 - 0.5 * m * (m + 1.0);
  n -= static_cast<std::int64_t>(ontime);
  late += newly_late;
  counted += j;
  batches.add_zeros_then_ones(ontime, newly_late);
}

// The flow whose exit-rate interval holds x in [0, sum of exits): the
// sequential-subtraction scan, with the last flow taking any rounding
// remainder.
inline std::size_t pick_flow(const double* exits, std::size_t kflows,
                             double x) {
  std::size_t k = 0;
  for (; k + 1 < kflows; ++k) {
    if (x < exits[k]) break;
    x -= exits[k];
  }
  return k;
}

// L* for a sequential decision over checkpoints min * 2^i: the smallest
// late count L with !(L / c_last < threshold), where c_last = min * 2^k is
// the last checkpoint the doubling reaches (the first >= max; not max
// itself, which the doubling may overshoot).  late never falls and the
// counted total never exceeds c_last, so once late >= L* every checkpoint
// estimates >= threshold (IEEE division is monotone in both operands).
// Returns ~0 (never stop) when c_last does not fit in 64 bits or
// threshold > 1, where L* would exceed any reachable count.  Requires
// min > 0 and a finite threshold > 0.
std::uint64_t certain_fail_late(double threshold, std::uint64_t min,
                                std::uint64_t max) {
  constexpr std::uint64_t kNever = ~0ull;
  std::uint64_t c_last = min;
  while (c_last < max) {
    if (c_last > kNever / 2) return kNever;
    c_last *= 2;
  }
  if (threshold > 1.0) return kNever;
  const double c = static_cast<double>(c_last);
  const auto fails = [&](std::uint64_t late) {
    return !(static_cast<double>(late) / c < threshold);
  };
  // Start from the real-valued answer and settle the rounding both ways;
  // fails(c_last) holds (c / c == 1 >= threshold), bounding the search.
  const double guess = std::ceil(threshold * c);
  std::uint64_t late =
      guess >= c ? c_last : static_cast<std::uint64_t>(guess);
  while (late > 0 && fails(late - 1)) --late;
  while (!fails(late)) ++late;
  return late;
}

}  // namespace

void compat_class_cuts(double mu, const double* exits, std::size_t kflows,
                       std::uint64_t* cuts) {
  // The total rate, summed in the historical order: mu, then the flows.
  double total = mu;
  for (std::size_t k = 0; k < kflows; ++k) total += exits[k];
  // Both decisions are monotone in b: u = Rng::unit(b) is exact, and
  // rounding the product, the difference and each step of the sequential
  // subtraction scan never reverses an order.  So each decision flips at
  // one draw, found by searching the historical expression itself (never a
  // closed form, which could miss where u * total rounds up to mu).
  cuts[0] = first_draw_where(
      [&](std::uint64_t b) { return !(Rng::unit(b) * total < mu); }, 0,
      mu / total);
  std::uint64_t lo = 0;
  double below = mu;
  for (std::size_t i = 1; i < kflows; ++i) {
    below += exits[i - 1];
    lo = first_draw_where(
        [&](std::uint64_t b) {
          return pick_flow(exits, kflows, Rng::unit(b) * total - mu) >= i;
        },
        lo, below / total);
    cuts[i] = lo;
  }
}

ClassCutTable::ClassCutTable(
    double mu, std::vector<std::shared_ptr<const TcpFlowChain>> chains)
    : mu_(mu), chains_(std::move(chains)), stride_(chains_.size()) {
  const std::size_t kflows = chains_.size();
  std::uint64_t product = 1;  // number of class tuples, kept below 2^62
  for (std::size_t k = kflows; k-- > 0;) {
    stride_[k] = product;
    const std::uint64_t classes = chains_[k]->num_exit_classes();
    if (product > (1ull << 62) / classes) {
      throw std::invalid_argument{
          "too many exit-rate class tuples for the compat sampler"};
    }
    product *= classes;
  }
  std::uint64_t slots = product;
  if (product > kSlots) {
    slots = kSlots;
    mult_ = 0x9E3779B97F4A7C15ull;
    shift_ = 64 - kSlotBits;
  }
  table_.assign(slots * (kflows + 1), kNoIndex);
}

void ClassCutTable::fill(std::uint64_t* slot, std::uint64_t index) {
  const std::size_t kflows = chains_.size();
  exits_.resize(kflows);
  for (std::size_t k = 0; k < kflows; ++k) {
    exits_[k] = chains_[k]->class_exit_rate(static_cast<std::uint32_t>(
        index / stride_[k] % chains_[k]->num_exit_classes()));
  }
  compat_class_cuts(mu_, exits_.data(), kflows, slot + 1);
  slot[0] = index;
}

std::int64_t ComposedParams::nmax() const {
  return static_cast<std::int64_t>(std::llround(mu_pps * tau_s));
}

// ---------------------------------------------------------------------------
// Exact product-chain backend
// ---------------------------------------------------------------------------

Ctmc composed_ctmc(const ComposedParams& params) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  const std::int64_t nmax = params.nmax();
  if (nmax < 1) throw std::invalid_argument{"Nmax = mu*tau must be >= 1"};

  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  chains.reserve(params.flows.size());
  std::uint64_t flow_product = 1;
  for (const auto& fp : params.flows) {
    chains.push_back(shared_flow_chain(fp));
    flow_product *= chains.back()->num_states();
  }
  const std::uint64_t total =
      flow_product * static_cast<std::uint64_t>(nmax + 1);
  // The triplet store costs ~16 B per edge and Gauss-Seidel sweeps the
  // whole chain repeatedly; beyond a couple of million states the Monte-
  // Carlo backend is the right tool.
  if (total > 2'000'000ull) {
    throw std::invalid_argument{
        "exact composed chain too large; use DmpModelMonteCarlo"};
  }

  const std::size_t kflows = chains.size();
  // Mixed-radix index: (((x_0 * n_1 + x_1) ... ) * (nmax+1)) + N.
  std::vector<std::uint64_t> stride(kflows);
  std::uint64_t acc = static_cast<std::uint64_t>(nmax + 1);
  for (std::size_t k = kflows; k-- > 0;) {
    stride[k] = acc;
    acc *= chains[k]->num_states();
  }

  CtmcBuilder builder(static_cast<std::uint32_t>(total));
  // Enumerate composed states by iterating flow-state tuples and N.
  std::vector<std::uint32_t> x(kflows, 0);
  while (true) {
    std::uint64_t base = 0;
    for (std::size_t k = 0; k < kflows; ++k) base += x[k] * stride[k];

    for (std::int64_t n = 0; n <= nmax; ++n) {
      const auto from = static_cast<std::uint32_t>(base + static_cast<std::uint64_t>(n));
      // Consumption: N -> max(N-1, 0); at N = 0 the state is unchanged
      // (self-loop, dropped) but the consumed packet is late — the metric
      // reads P(N = 0), so no edge is needed.
      if (n > 0) {
        builder.add_transition(from, from - 1, params.mu_pps);
      }
      // Flow transitions, frozen at N = Nmax.
      if (n == nmax) continue;
      for (std::size_t k = 0; k < kflows; ++k) {
        for (const auto& t : chains[k]->transitions_from(x[k])) {
          const std::int64_t n2 =
              std::min<std::int64_t>(n + t.delivered, nmax);
          const std::uint64_t to = base +
                                   (static_cast<std::uint64_t>(t.target) -
                                    static_cast<std::uint64_t>(x[k])) *
                                       stride[k] +
                                   static_cast<std::uint64_t>(n2);
          builder.add_transition(from, static_cast<std::uint32_t>(to), t.rate);
        }
      }
    }

    // Advance the flow-state tuple (odometer).
    std::size_t k = kflows;
    while (k-- > 0) {
      if (++x[k] < chains[k]->num_states()) break;
      x[k] = 0;
      if (k == 0) {
        k = SIZE_MAX;
        break;
      }
    }
    if (k == SIZE_MAX) break;
  }

  return std::move(builder).build();
}

ComposedChainExact::ComposedChainExact(const ComposedParams& params) {
  const Ctmc chain = composed_ctmc(params);
  num_states_ = chain.num_states();

  const auto pi = chain.steady_state_gauss_seidel(1e-13);

  const std::int64_t nmax = params.nmax();
  n_marginal_.assign(static_cast<std::size_t>(nmax + 1), 0.0);
  for (std::uint64_t s = 0; s < pi.size(); ++s) {
    n_marginal_[s % static_cast<std::uint64_t>(nmax + 1)] += pi[s];
  }
  late_fraction_ = n_marginal_[0];
}

// ---------------------------------------------------------------------------
// Stored-video finite-horizon Monte Carlo
// ---------------------------------------------------------------------------

namespace {

// One replication: the historical event loop's late fraction, draw for
// draw.  Once everything is delivered nothing more can play late, so the
// replication stops there, as the historical loop's count does.
double stored_video_replication(
    const ComposedParams& params,
    const std::vector<std::shared_ptr<const TcpFlowChain>>& chains,
    ClassCutTable& cuts, std::int64_t video_packets, Rng& rng) {
  const std::size_t kflows = chains.size();
  std::vector<std::uint32_t> state;
  std::vector<double> exits;
  for (const auto& chain : chains) {
    state.push_back(chain->initial_state());
    exits.push_back(chain->exit_rate(state.back()));
  }

  // Before playback starts, the event times decide when it does.
  double t = 0.0;
  std::int64_t delivered = 0;
  while (t < params.tau_s) {
    if (delivered >= video_packets) return 0.0;
    double total_rate = 0.0;
    for (const double e : exits) total_rate += e;
    const double dt = rng.exponential(1.0 / total_rate);
    // An event past tau restarts at tau, with consumption running: exact,
    // because exponential holding times are memoryless.
    if (t + dt >= params.tau_s) break;
    t += dt;
    const std::size_t k =
        pick_flow(exits.data(), kflows, rng.uniform() * total_rate);
    const auto& tr = chains[k]->pick_cut(state[k], rng.draw53());
    state[k] = tr.target;
    exits[k] = chains[k]->exit_rate(tr.target);
    delivered += tr.delivered;
  }

  // From then on only the order of events matters.  Each event still
  // draws its exponential holding time (a uniform, redrawn while zero) and
  // then a uniform deciding it, so the stream of draws is unchanged; the
  // decision compares the raw draw with the class tuple's cuts.
  std::vector<std::uint32_t> classes(kflows);
  std::uint64_t index = 0;
  for (std::size_t k = 0; k < kflows; ++k) {
    classes[k] = chains[k]->exit_class(state[k]);
    index += classes[k] * cuts.stride(k);
  }
  const std::uint64_t* sending = cuts.cuts(index);
  std::int64_t consumed = 0;
  std::int64_t late = 0;
  while (consumed < video_packets && delivered < video_packets) {
    while (rng.draw53() == 0) {
    }
    const std::uint64_t b = rng.draw53();
    if (b < sending[0]) {
      if (consumed >= delivered) ++late;  // nothing to play: glitch
      ++consumed;
      continue;
    }
    std::size_t k = 0;
    for (std::size_t i = 1; i < kflows; ++i) k += b >= sending[i] ? 1 : 0;
    const auto& tr = chains[k]->pick_cut(state[k], rng.draw53());
    state[k] = tr.target;
    if (tr.target_class != classes[k]) {
      // Unsigned wrap-around cancels: the new index is in range.
      index += (std::uint64_t{tr.target_class} - classes[k]) * cuts.stride(k);
      classes[k] = tr.target_class;
      sending = cuts.cuts(index);
    }
    delivered += tr.delivered;
  }
  return static_cast<double>(late) / static_cast<double>(video_packets);
}

}  // namespace

StoredVideoResult stored_video_late_fraction(const ComposedParams& params,
                                             std::int64_t video_packets,
                                             std::uint64_t replications,
                                             std::uint64_t seed) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  if (video_packets <= 0) throw std::invalid_argument{"empty video"};
  if (replications == 0) throw std::invalid_argument{"need >= 1 replication"};

  std::vector<std::shared_ptr<const TcpFlowChain>> chains;
  chains.reserve(params.flows.size());
  for (const auto& fp : params.flows) {
    chains.push_back(shared_flow_chain(fp));
    chains.back()->build_pick_cuts();
  }
  ClassCutTable cuts(params.mu_pps, chains);

  Rng master(seed);
  std::vector<double> per_run;
  per_run.reserve(replications);
  for (std::uint64_t rep = 0; rep < replications; ++rep) {
    Rng rng = master.fork();
    per_run.push_back(
        stored_video_replication(params, chains, cuts, video_packets, rng));
  }

  StoredVideoResult result;
  result.replications = replications;
  result.ci = confidence_interval(per_run);
  result.late_fraction = result.ci.mean;
  return result;
}

// ---------------------------------------------------------------------------
// Monte-Carlo backend
// ---------------------------------------------------------------------------

DmpModelMonteCarlo::DmpModelMonteCarlo(const ComposedParams& params,
                                       std::uint64_t seed)
    : params_(params), nmax_(params.nmax()), rng_(seed), seed_(seed) {
  if (params.flows.empty()) throw std::invalid_argument{"need >= 1 flow"};
  if (params.mu_pps <= 0.0) throw std::invalid_argument{"mu must be positive"};
  if (nmax_ < 1) throw std::invalid_argument{"Nmax = mu*tau must be >= 1"};
  for (const auto& fp : params.flows) {
    chains_.push_back(shared_flow_chain(fp));
    flow_state_.push_back(chains_.back()->initial_state());
    chains_.back()->build_pick_cuts();
  }
  flow_delivered_.assign(chains_.size(), 0);
  compat_class_.resize(chains_.size());
  compat_cuts_ = ClassCutTable(params_.mu_pps, chains_);
  // Start with a full buffer: live streaming begins consuming after the
  // buffer had tau seconds to fill; the warmup discards any residual bias.
  n_ = nmax_;
}

void DmpModelMonteCarlo::advance_to(std::uint64_t target,
                                    std::uint64_t late_stop) {
  std::uint32_t* const states = flow_state_.data();
  std::uint64_t* const delivered = flow_delivered_.data();
  const std::size_t kflows = chains_.size();
  const std::int64_t nmax = nmax_;
  std::int64_t n = n_;
  std::uint64_t counted = counted_;
  std::uint64_t late = late_;
  double early_sum = early_sum_;
  // The class tuple's table index, and its cuts: cuts[0] for consumption,
  // cuts[1..K) for the flow pick (compat_class_cuts).
  std::uint32_t* const classes = compat_class_.data();
  ClassCutTable& table = compat_cuts_;
  std::uint64_t index = 0;
  for (std::size_t k = 0; k < kflows; ++k) {
    classes[k] = chains_[k]->exit_class(states[k]);
    index += classes[k] * table.stride(k);
  }
  const std::uint64_t* cuts = table.cuts(index);
  Rng rng = rng_;
  while (counted < target) {
    // One segment: the consumptions up to the next flow event.  Each event
    // draws b and is a consumption iff b < cuts[0].  Only consumptions
    // happen inside a segment, so N only falls and the whole segment folds
    // into one consume_segment() call.  A frozen state (N = Nmax) can
    // therefore only open a segment: its flows make no transitions, so its
    // draw is spent and the event is a consumption.
    const std::uint64_t consume_below = cuts[0];
    const std::uint64_t remaining = target - counted;
    std::uint64_t j = 0;
    if (n == nmax) {
      static_cast<void>(rng.draw53());
      j = 1;
    }
    std::uint64_t b = 0;
    while (j < remaining) {
      b = rng.draw53();
      if (b >= consume_below) break;
      ++j;
    }
    consume_segment(j, n, late, counted, early_sum, batches_);
    // Target reached or a certain "fail": no further event drawn.
    if (counted >= target || late >= late_stop) break;
    // Flow event: the flow by the same draw (the flow cuts ascend, so the
    // flow index is the number of them at or below b, counted without a
    // data-dependent branch), then its transition by the next draw against
    // the chain's pick cuts.
    std::size_t k = 0;
    for (std::size_t i = 1; i < kflows; ++i) k += b >= cuts[i] ? 1 : 0;
    const TcpFlowChain& chain = *chains_[k];
    const auto& t = chain.pick_cut(states[k], rng.draw53());
    states[k] = t.target;
    const std::uint32_t cls = t.target_class;
    if (cls != classes[k]) {
      // Unsigned wrap-around cancels: the new index is in range.
      index += (std::uint64_t{cls} - classes[k]) * table.stride(k);
      classes[k] = cls;
      cuts = table.cuts(index);
    }
    // Unconditional: a zero delivery leaves both unchanged (N <= Nmax),
    // and a branch on it would mispredict.
    n = std::min<std::int64_t>(n + t.delivered, nmax);
    delivered[k] += t.delivered;
  }
  n_ = n;
  counted_ = counted;
  late_ = late;
  early_sum_ = early_sum;
  rng_ = rng;
}

MonteCarloResult DmpModelMonteCarlo::snapshot() const {
  MonteCarloResult result;
  result.consumptions = counted_;
  result.late = late_;
  result.late_fraction =
      static_cast<double>(late_) / static_cast<double>(counted_);
  result.ci = batches_.interval();
  result.mean_early_packets = early_sum_ / static_cast<double>(counted_);
  std::uint64_t delivered_total = 0;
  for (auto d : flow_delivered_) delivered_total += d;
  for (auto d : flow_delivered_) {
    result.flow_share.push_back(delivered_total == 0
                                    ? 0.0
                                    : static_cast<double>(d) /
                                          static_cast<double>(delivered_total));
  }
  return result;
}

void DmpModelMonteCarlo::start_counting(std::uint64_t warmup) {
  // Transient: run `warmup` consumptions without counting.
  advance_to(counted_ + warmup);

  late_ = 0;
  counted_ = 0;
  early_sum_ = 0.0;
  batches_ = BatchMeans{};
  std::fill(flow_delivered_.begin(), flow_delivered_.end(), 0);
}

MonteCarloResult DmpModelMonteCarlo::run(std::uint64_t consumptions,
                                         std::uint64_t warmup) {
  if (consumptions == 0) {
    throw std::invalid_argument{"need >= 1 consumption per run"};
  }
  start_counting(warmup);
  advance_to(consumptions);
  return snapshot();
}

MonteCarloResult DmpModelMonteCarlo::decide(double threshold,
                                            std::uint64_t min_consumptions,
                                            std::uint64_t max_consumptions,
                                            std::uint64_t late_stop) {
  start_counting(min_consumptions / 10);
  advance_to(min_consumptions, late_stop);
  MonteCarloResult result = snapshot();
  std::uint64_t target = min_consumptions;
  while (late_ < late_stop && result.consumptions < max_consumptions) {
    const bool decided =
        result.ci.hi() < threshold || result.ci.lo() > threshold;
    // Also stop when the estimate is overwhelmingly far from the threshold.
    if (decided) break;
    target *= 2;
    // Continue the same trajectory: accumulate more consumptions.
    advance_to(target, late_stop);
    result = snapshot();
  }
  return result;
}

MonteCarloResult DmpModelMonteCarlo::run_until_decides(
    double threshold, std::uint64_t min_consumptions,
    std::uint64_t max_consumptions) {
  if (min_consumptions == 0) {
    throw std::invalid_argument{"need >= 1 consumption per decision"};
  }
  return decide(threshold, min_consumptions, max_consumptions, kNoLateStop);
}

MonteCarloResult DmpModelMonteCarlo::run_until_verdict(
    double threshold, std::uint64_t min_consumptions,
    std::uint64_t max_consumptions) {
  if (min_consumptions == 0) {
    throw std::invalid_argument{"need >= 1 consumption per decision"};
  }
  if (!std::isfinite(threshold) || threshold <= 0.0) {
    throw std::invalid_argument{"decision threshold must be finite and > 0"};
  }
  return decide(threshold, min_consumptions, max_consumptions,
                certain_fail_late(threshold, min_consumptions,
                                  max_consumptions));
}

MonteCarloResult DmpModelMonteCarlo::run_sharded(
    std::uint64_t shards, std::uint64_t consumptions_per_shard,
    std::uint64_t warmup_per_shard, std::size_t threads) const {
  if (shards == 0) throw std::invalid_argument{"need >= 1 shard"};
  if (consumptions_per_shard == 0) {
    throw std::invalid_argument{"need >= 1 consumption per shard"};
  }
  if (warmup_per_shard == kAutoWarmup) {
    warmup_per_shard = consumptions_per_shard / 10;
  }

  struct ShardTotals {
    std::uint64_t late = 0;
    std::uint64_t counted = 0;
    double early_sum = 0.0;
    std::vector<std::uint64_t> delivered;
    double fraction = 0.0;
  };

  const SeedStream shard_seeds(seed_, kShardDomain);
  std::uint64_t late = 0;
  std::uint64_t counted = 0;
  double early_sum = 0.0;
  std::vector<std::uint64_t> delivered(chains_.size(), 0);
  std::vector<double> fractions;
  fractions.reserve(shards);

  const OrderedPool pool(threads);
  pool.run_ordered(
      static_cast<std::size_t>(shards),
      [&](std::size_t s) {
        DmpModelMonteCarlo engine(params_, shard_seeds.at(s));
        engine.run(consumptions_per_shard, warmup_per_shard);
        return ShardTotals{engine.late_, engine.counted_, engine.early_sum_,
                           engine.flow_delivered_,
                           static_cast<double>(engine.late_) /
                               static_cast<double>(engine.counted_)};
      },
      [&](std::size_t, ShardTotals&& shard) {
        late += shard.late;
        counted += shard.counted;
        early_sum += shard.early_sum;
        for (std::size_t k = 0; k < delivered.size(); ++k) {
          delivered[k] += shard.delivered[k];
        }
        fractions.push_back(shard.fraction);
      });

  MonteCarloResult result;
  result.consumptions = counted;
  result.late = late;
  result.late_fraction =
      static_cast<double>(late) / static_cast<double>(counted);
  result.ci = confidence_interval(fractions);
  result.mean_early_packets = early_sum / static_cast<double>(counted);
  std::uint64_t delivered_total = 0;
  for (auto d : delivered) delivered_total += d;
  for (auto d : delivered) {
    result.flow_share.push_back(delivered_total == 0
                                    ? 0.0
                                    : static_cast<double>(d) /
                                          static_cast<double>(delivered_total));
  }
  return result;
}

}  // namespace dmp

// Per-flow TCP CTMC — the X_k(t) component of the paper's model.
//
// The paper (Section 4.2) tracks X_k = (W, C, L, E, Q) and defers the full
// transition table to its companion TR [32], which is not retrievable; this
// is our documented reconstruction following the cited modeling lineage
// (Padhye et al. 1998; Figueiredo et al. 2002; Wang et al. 2004):
//
//   * Rounds: in normal operation the flow makes one transition per RTT
//     (exponential with rate 1/R), sending a W-packet round.
//   * Correlated intra-round losses: the first loss at position i loses
//     packets i..W (L = W-i+1); earlier packets deliver (S = i-1).
//   * Loss detection: timeout with probability min(1, 3/W) (too few dup
//     ACKs), otherwise fast retransmit -> a recovery round that redelivers
//     the L lost packets with probability (1-p)^L and halves the window.
//   * Timeout states: exponential duration with mean TO * 2^(E-1) * R
//     (E = backoff exponent, capped); the retransmission succeeds w.p. 1-p,
//     releasing the L blocked packets and restarting in slow start.
//   * Slow start doubles (b=1) or grows 1.5x (b=2, delayed ACKs) per round
//     up to ssthresh; congestion avoidance adds one packet per b rounds
//     (the paper's C component is the b=2 phase bit).
//
// Each transition carries S, the number of packets released in order to the
// client — the increment applied to the early-packet count N(t) in the
// composed chain.
//
// Storage is CSR (one flat transition array + per-state row offsets) so the
// Monte-Carlo hot loop walks contiguous memory.  `pick_linear` reproduces,
// operation for operation, the sequential-subtraction scan the engine has
// always used, and defines how the Monte-Carlo sampler picks a transition.
// The sampler decides by integer cuts instead (`pick_cut`): each edge stores
// the smallest 53-bit draw that pick_linear sends past it, found by
// searching pick_linear itself, so a compare of the raw draw picks the same
// edge as the scan, draw for draw, and seeded runs stay byte-identical to
// historical golden runs.  The cuts are built on first sampler use
// (`build_pick_cuts`) into padding the edge layout had anyway.  See
// docs/MODEL_ENGINE.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "solver/ctmc.hpp"

namespace dmp {

struct TcpChainParams {
  double loss_rate = 0.02;  // p: per-packet loss probability
  double rtt_s = 0.2;       // R: round-trip time in seconds
  double to_ratio = 2.0;    // TO: first retransmission timer / RTT
  int wmax = 20;            // maximum congestion window (packets)
  int ack_every = 1;        // b: 1 = per-packet ACKs, 2 = delayed ACKs
  int max_backoff = 6;      // timeout exponent cap
};

// One past the largest 53-bit draw (Rng::draw53): a cut at kDrawLimit is
// never reached.
inline constexpr std::uint64_t kDrawLimit = 1ull << 53;

// The smallest draw b in [lo, kDrawLimit) at which `holds(b)` is true, or
// kDrawLimit if none; `holds` must be monotone (false, then true) on
// [lo, kDrawLimit).  The search gallops out from `hint` (a fraction of the
// draw range, where the boundary is expected) to bracket the boundary and
// bisects the bracket, so the answer depends on `holds` alone: a wrong hint
// costs evaluations, never exactness.
template <class Holds>
std::uint64_t first_draw_where(const Holds& holds, std::uint64_t lo,
                               double hint) {
  std::uint64_t hi = kDrawLimit;  // holds(hi), by convention at the limit
  const double guess = hint * 0x1.0p53;
  std::uint64_t probe = guess >= 0x1.0p53 ? kDrawLimit - 1
                         : guess > 0.0    ? static_cast<std::uint64_t>(guess)
                                          : 0;
  probe = std::max(probe, lo);
  if (probe >= hi) return hi;
  std::uint64_t step = 1;
  if (holds(probe)) {
    hi = probe;
    while (hi > lo) {  // gallop down
      probe = hi - std::min(step, hi - lo);
      if (!holds(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
      step *= 2;
    }
  } else {
    lo = probe + 1;
    while (lo < hi) {  // gallop up
      probe = lo + std::min(step, hi - lo) - 1;
      if (holds(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
      step *= 2;
    }
  }
  while (lo < hi) {  // bisect: !holds(lo - 1), holds(hi)
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (holds(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

// One outgoing transition of the per-flow chain.
struct FlowTransition {
  std::uint32_t target = 0;
  std::uint16_t delivered = 0;  // S: packets released in order (<= 2 wmax)
  // The target's exit-rate class (TcpFlowChain::exit_class), and the
  // sampler's pick cut: the smallest draw b for which pick_linear(s,
  // Rng::unit(b) * exit_rate(s)) picks an edge after this one (kDrawLimit
  // on a row's last edge).  Both zero until TcpFlowChain::build_pick_cuts().
  std::uint16_t target_class = 0;
  double rate = 0.0;  // exponential rate (1/s)
  std::uint64_t pick_cut = 0;
};
static_assert(sizeof(FlowTransition) == 24,
              "the sampler fields fill what was padding");

class TcpFlowChain {
 public:
  explicit TcpFlowChain(TcpChainParams params);

  // The chain owns flat CSR arrays plus a lazily solved stationary vector
  // guarded by a mutex; instances are shared via shared_flow_chain()
  // (model/chain_cache.hpp) instead of being copied.
  TcpFlowChain(const TcpFlowChain&) = delete;
  TcpFlowChain& operator=(const TcpFlowChain&) = delete;

  const TcpChainParams& params() const { return params_; }
  std::uint32_t num_states() const {
    return static_cast<std::uint32_t>(exit_rate_.size());
  }
  std::uint32_t initial_state() const { return initial_; }

  // Lightweight view over one CSR row (a state's outgoing transitions).
  struct TransitionSpan {
    const FlowTransition* data = nullptr;
    std::uint32_t count = 0;
    const FlowTransition* begin() const { return data; }
    const FlowTransition* end() const { return data + count; }
    std::uint32_t size() const { return count; }
    bool empty() const { return count == 0; }
    const FlowTransition& operator[](std::uint32_t i) const { return data[i]; }
    const FlowTransition& back() const { return data[count - 1]; }
  };

  TransitionSpan transitions_from(std::uint32_t s) const {
    const std::uint32_t off = row_off_[s];
    return {flat_.data() + off, row_off_[s + 1] - off};
  }

  double exit_rate(std::uint32_t s) const { return exit_rate_[s]; }
  // True while the flow sits in a timeout state (diagnostics).
  bool is_timeout_state(std::uint32_t s) const { return timeout_flag_[s]; }

  // Next transition from `s` given x in [0, exit_rate(s)): the historical
  // sequential-subtraction scan, preserved bit for bit so seeded runs that
  // predate the CSR layout reproduce byte-identically.
  const FlowTransition& pick_linear(std::uint32_t s, double x) const {
    const std::uint32_t off = row_off_[s];
    const std::uint32_t last = row_off_[s + 1] - 1;
    for (std::uint32_t i = off; i < last; ++i) {
      if (x < flat_[i].rate) return flat_[i];
      x -= flat_[i].rate;
    }
    return flat_[last];
  }

  // pick_linear(s, Rng::unit(b) * exit_rate(s)) for a 53-bit draw b, by
  // integer compares against the row's pick cuts: the scan is monotone in
  // its argument, so the edge it picks is the first whose cut lies above b.
  // Requires build_pick_cuts() (on any thread) first.
  const FlowTransition& pick_cut(std::uint32_t s, std::uint64_t b) const {
    const FlowTransition* t = flat_.data() + row_off_[s];
    const FlowTransition* const last = flat_.data() + row_off_[s + 1] - 1;
    while (t != last && !(b < t->pick_cut)) ++t;
    return *t;
  }

  // Fills every edge's pick_cut, and the exit-rate classes below, on the
  // first call; later calls return at once.  Thread-safe: concurrent
  // callers wait for one build, and its results are visible to every
  // caller once it returns.
  void build_pick_cuts() const;

  // Exit-rate classes (valid after build_pick_cuts()): states whose exit
  // rates are bit-identical share a class, numbered by increasing rate.
  // Exit rates take few distinct values (12-14 for a wmax-20 chain), so
  // the Monte-Carlo sampler keys its per-class cuts by these ids; each edge
  // carries its target's class (FlowTransition::target_class).
  std::uint32_t exit_class(std::uint32_t s) const;
  std::uint32_t num_exit_classes() const {
    return static_cast<std::uint32_t>(class_exit_rate_.size());
  }
  double class_exit_rate(std::uint32_t c) const { return class_exit_rate_[c]; }

  // Stationary distribution of the flow chain alone (backlogged source).
  // Solved once and memoized; thread-safe, so chains shared through the
  // chain cache never re-solve.
  const std::vector<double>& stationary() const;

  // sigma_k: the achievable (backlogged) TCP throughput in packets/s —
  // long-run delivered rate of the chain with no Nmax constraint.
  // Memoized alongside stationary().
  double achievable_throughput_pps() const;

 private:
  void solve_locked() const;

  TcpChainParams params_;
  std::uint32_t initial_ = 0;
  // CSR: state s owns flat_[row_off_[s] .. row_off_[s+1]).
  std::vector<std::uint32_t> row_off_;
  // Mutable for build_pick_cuts() alone, which fills each edge's
  // target_class and pick_cut once; the rest is fixed at construction.
  mutable std::vector<FlowTransition> flat_;
  std::vector<double> exit_rate_;
  std::vector<bool> timeout_flag_;
  // The distinct exit rates, ascending; filled by build_pick_cuts().
  mutable std::vector<double> class_exit_rate_;

  // Guards the memoized solve and the one pick-cut and class build.
  mutable std::mutex solve_mu_;
  mutable std::optional<std::vector<double>> stationary_;
  mutable double throughput_pps_ = 0.0;
  mutable bool pick_cuts_built_ = false;
};

// Inverse throughput map: the loss rate at which a path with the given RTT,
// TO and window limit achieves `target_pps` (bisection; throughput is
// monotone decreasing in p).  Used by the paper's heterogeneity Case 2.
double loss_rate_for_throughput(double target_pps, const TcpChainParams& base);

}  // namespace dmp

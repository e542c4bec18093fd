#include "model/tcp_chain.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "model/chain_cache.hpp"
#include "util/rng.hpp"

namespace dmp {

namespace {

enum class Mode : std::uint8_t {
  kSlowStart,
  kCongestionAvoidance,
  kRecovery,
  kTimeout
};

// Symbolic state; enumeration assigns dense indices to reachable states only.
struct StateDesc {
  Mode mode = Mode::kSlowStart;
  int w = 1;        // congestion window (packets); 1 in timeout states
  int ssthresh = 2; // slow-start threshold
  int c = 0;        // delayed-ACK phase (CA only, 0..b-1)
  int l = 0;        // packets lost in the previous round, pending recovery
  int e = 0;        // timeout backoff exponent (timeout states only)

  // Dense packing for the BFS hash map: every field is bounded (w, ssthresh
  // and l by wmax <= 4095, e by max_backoff, c by b), so the whole state
  // fits one 64-bit key.
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(mode) << 44) |
           (static_cast<std::uint64_t>(w) << 32) |
           (static_cast<std::uint64_t>(ssthresh) << 20) |
           (static_cast<std::uint64_t>(c) << 19) |
           (static_cast<std::uint64_t>(l) << 7) |
           static_cast<std::uint64_t>(e);
  }
};

struct SymbolicTransition {
  StateDesc target;
  double rate;
  int delivered;
};

class Expander {
 public:
  explicit Expander(const TcpChainParams& p) : p_(p) {
    if (p.loss_rate <= 0.0 || p.loss_rate >= 1.0) {
      throw std::invalid_argument{"loss rate must lie in (0, 1)"};
    }
    if (p.rtt_s <= 0.0) throw std::invalid_argument{"RTT must be positive"};
    if (p.to_ratio <= 0.0) throw std::invalid_argument{"TO must be positive"};
    if (p.wmax < 2) throw std::invalid_argument{"wmax must be >= 2"};
    if (p.wmax > 4095) throw std::invalid_argument{"wmax must be <= 4095"};
    if (p.ack_every < 1 || p.ack_every > 2) {
      throw std::invalid_argument{"ack_every must be 1 or 2"};
    }
    if (p.max_backoff < 1) throw std::invalid_argument{"max_backoff >= 1"};
    if (p.max_backoff > 127) {
      throw std::invalid_argument{"max_backoff must be <= 127"};
    }
  }

  std::vector<SymbolicTransition> expand(const StateDesc& s) const {
    switch (s.mode) {
      case Mode::kSlowStart:
      case Mode::kCongestionAvoidance:
        return expand_round(s);
      case Mode::kRecovery:
        return expand_recovery(s);
      case Mode::kTimeout:
        return expand_timeout(s);
    }
    return {};
  }

 private:
  int half(int w) const { return std::max(w / 2, 2); }

  StateDesc grown(const StateDesc& s) const {
    StateDesc n = s;
    if (s.mode == Mode::kSlowStart) {
      // One window-increment per ACK: b=1 doubles the window per round,
      // b=2 grows it 1.5x.
      const int acks = (s.w + p_.ack_every - 1) / p_.ack_every;
      n.w = std::min({s.w + acks, s.ssthresh, p_.wmax});
      if (n.w >= s.ssthresh) {
        n.mode = Mode::kCongestionAvoidance;
        n.c = 0;
      }
    } else {
      // Congestion avoidance: +1 packet every b rounds via the phase bit C.
      if (s.c + 1 >= p_.ack_every) {
        n.w = std::min(s.w + 1, p_.wmax);
        n.c = 0;
      } else {
        n.c = s.c + 1;
      }
    }
    return n;
  }

  std::vector<SymbolicTransition> expand_round(const StateDesc& s) const {
    std::vector<SymbolicTransition> out;
    const double p = p_.loss_rate;
    const double round_rate = 1.0 / p_.rtt_s;
    const double ok = std::pow(1.0 - p, s.w);

    out.push_back({grown(s), round_rate * ok, s.w});

    // First loss at position i: packets 1..i-1 deliver, i..w are lost.
    const double q_to = std::min(1.0, 3.0 / s.w);
    for (int i = 1; i <= s.w; ++i) {
      const double prob_i = std::pow(1.0 - p, i - 1) * p;
      const int lost = s.w - i + 1;

      if (q_to > 0.0) {
        StateDesc to{};
        to.mode = Mode::kTimeout;
        to.w = 1;
        to.ssthresh = half(s.w);
        to.l = lost;
        to.e = 1;
        out.push_back({to, round_rate * prob_i * q_to, i - 1});
      }
      if (q_to < 1.0) {
        StateDesc fr{};
        fr.mode = Mode::kRecovery;
        fr.w = half(s.w);
        fr.ssthresh = half(s.w);
        fr.l = lost;
        out.push_back({fr, round_rate * prob_i * (1.0 - q_to), i - 1});
      }
    }
    return out;
  }

  std::vector<SymbolicTransition> expand_recovery(const StateDesc& s) const {
    // The recovery round retransmits the l lost packets AND keeps the
    // (halved) window of new data flowing, as Reno does.  If any
    // retransmission is lost, recovery fails into timeout; otherwise the
    // new data faces the usual per-round loss process.
    std::vector<SymbolicTransition> out;
    const double p = p_.loss_rate;
    const double round_rate = 1.0 / p_.rtt_s;
    const double rtx_ok = std::pow(1.0 - p, s.l);

    // Retransmission lost -> timeout; the gap persists, nothing delivers.
    {
      StateDesc to{};
      to.mode = Mode::kTimeout;
      to.w = 1;
      to.ssthresh = half(s.w);
      to.l = s.l;
      to.e = 1;
      out.push_back({to, round_rate * (1.0 - rtx_ok), 0});
    }

    // Retransmissions arrive: the l blocked packets release, and the new
    // w-packet round behaves like a normal round.
    const double all_ok = std::pow(1.0 - p, s.w);
    StateDesc recovered = s;
    recovered.mode = Mode::kCongestionAvoidance;
    recovered.c = 0;
    recovered.l = 0;
    out.push_back({recovered, round_rate * rtx_ok * all_ok, s.l + s.w});

    const double q_to = std::min(1.0, 3.0 / s.w);
    for (int j = 1; j <= s.w; ++j) {
      const double prob_j = std::pow(1.0 - p, j - 1) * p;
      const int lost = s.w - j + 1;
      if (q_to > 0.0) {
        StateDesc to{};
        to.mode = Mode::kTimeout;
        to.w = 1;
        to.ssthresh = half(s.w);
        to.l = lost;
        to.e = 1;
        out.push_back({to, round_rate * rtx_ok * prob_j * q_to, s.l + j - 1});
      }
      if (q_to < 1.0) {
        StateDesc fr{};
        fr.mode = Mode::kRecovery;
        fr.w = half(s.w);
        fr.ssthresh = half(s.w);
        fr.l = lost;
        out.push_back(
            {fr, round_rate * rtx_ok * prob_j * (1.0 - q_to), s.l + j - 1});
      }
    }
    return out;
  }

  std::vector<SymbolicTransition> expand_timeout(const StateDesc& s) const {
    std::vector<SymbolicTransition> out;
    const double backoff = std::pow(2.0, s.e - 1);
    const double rate = 1.0 / (p_.to_ratio * backoff * p_.rtt_s);

    StateDesc ss{};
    ss.mode = Mode::kSlowStart;
    ss.w = 1;
    ss.ssthresh = s.ssthresh;
    out.push_back({ss, rate * (1.0 - p_.loss_rate), s.l});

    StateDesc again = s;
    again.e = std::min(s.e + 1, p_.max_backoff);
    if (again.e != s.e) {
      out.push_back({again, rate * p_.loss_rate, 0});
    } else {
      // At the backoff cap the failed retransmission re-enters the same
      // state; as a CTMC self-loop it is dropped, which only rescales the
      // holding time the way repeated failures would.
      out.push_back({again, 0.0, 0});
    }
    return out;
  }

  TcpChainParams p_;
};

}  // namespace

TcpFlowChain::TcpFlowChain(TcpChainParams params) : params_(params) {
  const Expander expander(params);

  StateDesc init{};
  init.mode = Mode::kSlowStart;
  init.w = 1;
  init.ssthresh = std::max(params.wmax / 2, 2);

  // BFS over reachable symbolic states, assigning dense indices.  The
  // frontier pops states in discovery (= index) order, so one expansion
  // pass both discovers successors and emits state si's CSR row before
  // row si+1 starts.
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  index.reserve(4096);
  std::queue<StateDesc> frontier;
  index.emplace(init.key(), 0);
  frontier.push(init);

  row_off_.push_back(0);
  while (!frontier.empty()) {
    const StateDesc s = frontier.front();
    frontier.pop();
    double exits = 0.0;
    for (const auto& t : expander.expand(s)) {
      if (t.rate <= 0.0) continue;
      const auto [it, inserted] = index.emplace(
          t.target.key(), static_cast<std::uint32_t>(index.size()));
      if (inserted) frontier.push(t.target);
      flat_.push_back(FlowTransition{
          it->second, static_cast<std::uint16_t>(t.delivered), 0, t.rate});
      exits += t.rate;
    }
    row_off_.push_back(static_cast<std::uint32_t>(flat_.size()));
    exit_rate_.push_back(exits);
    timeout_flag_.push_back(s.mode == Mode::kTimeout);
  }
  initial_ = 0;
}

void TcpFlowChain::solve_locked() const {
  if (stationary_) return;
  CtmcBuilder builder(num_states());
  for (std::uint32_t s = 0; s < num_states(); ++s) {
    for (const auto& t : transitions_from(s)) {
      builder.add_transition(s, t.target, t.rate);
    }
  }
  std::vector<double> pi = std::move(builder).build().steady_state_gauss_seidel();
  double rate = 0.0;
  for (std::uint32_t s = 0; s < num_states(); ++s) {
    for (const auto& t : transitions_from(s)) {
      rate += pi[s] * t.rate * t.delivered;
    }
  }
  throughput_pps_ = rate;
  stationary_ = std::move(pi);
}

void TcpFlowChain::build_pick_cuts() const {
  // Each Monte-Carlo engine calls this once, so the lock is cheap; taking it
  // every time also orders the caller's reads after the build.
  std::lock_guard<std::mutex> lock(solve_mu_);
  if (pick_cuts_built_) return;
  for (std::uint32_t s = 0; s < num_states(); ++s) {
    const std::uint32_t off = row_off_[s];
    const std::uint32_t last = row_off_[s + 1] - 1;
    const double exit = exit_rate_[s];
    // Edge i's cut: the first draw whose pick lies past edge i.  The pick
    // only moves forward as b grows, so each search starts at the last cut.
    std::uint64_t cut = 0;
    double below = 0.0;  // rates up to edge i: where the cut should sit
    for (std::uint32_t i = off; i < last; ++i) {
      below += flat_[i].rate;
      cut = first_draw_where(
          [&](std::uint64_t b) {
            return &pick_linear(s, Rng::unit(b) * exit) > &flat_[i];
          },
          cut, below / exit);
      flat_[i].pick_cut = cut;
    }
    flat_[last].pick_cut = kDrawLimit;
  }
  for (const double e : exit_rate_) {  // few distinct values: insert sorted
    const auto at = std::lower_bound(class_exit_rate_.begin(),
                                     class_exit_rate_.end(), e);
    if (at == class_exit_rate_.end() || *at != e) class_exit_rate_.insert(at, e);
  }
  if (class_exit_rate_.size() > 0x10000) {
    throw std::length_error{"more than 65536 distinct exit rates"};
  }
  for (auto& t : flat_) {
    t.target_class = static_cast<std::uint16_t>(exit_class(t.target));
  }
  pick_cuts_built_ = true;
}

std::uint32_t TcpFlowChain::exit_class(std::uint32_t s) const {
  return static_cast<std::uint32_t>(
      std::lower_bound(class_exit_rate_.begin(), class_exit_rate_.end(),
                       exit_rate_[s]) -
      class_exit_rate_.begin());
}

const std::vector<double>& TcpFlowChain::stationary() const {
  std::lock_guard<std::mutex> lock(solve_mu_);
  solve_locked();
  return *stationary_;
}

double TcpFlowChain::achievable_throughput_pps() const {
  std::lock_guard<std::mutex> lock(solve_mu_);
  solve_locked();
  return throughput_pps_;
}

double loss_rate_for_throughput(double target_pps, const TcpChainParams& base) {
  if (target_pps <= 0.0) {
    throw std::invalid_argument{"target throughput must be positive"};
  }
  // Chains go through the shared cache: a repeated inversion (the
  // heterogeneity benches call this per grid point) re-uses both the chain
  // build and its memoized solve.
  auto throughput_at = [&](double p) {
    TcpChainParams params = base;
    params.loss_rate = p;
    return shared_flow_chain(params)->achievable_throughput_pps();
  };
  double lo = 1e-5, hi = 0.6;  // throughput decreasing in p
  if (throughput_at(lo) < target_pps) {
    throw std::invalid_argument{
        "target throughput unreachable even at negligible loss"};
  }
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (throughput_at(mid) >= target_pps) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-7) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace dmp

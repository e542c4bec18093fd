#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "host_speed.hpp"
#include "model/chain_cache.hpp"
#include "model/required_delay.hpp"
#include "param_space.hpp"
#include "stream/scheduler/path_scheduler.hpp"

namespace perfbench {

namespace {

// --- workload sizes (the pinned reference depends on every one) ---

// validation_sweep: Figs. 4/5 over the eight independent Table-1 settings,
// on 2 workers (1 on a single-core machine).  Two workers still show the
// runner's straggler effects; a pool as wide as the host's cores would time
// the host's scheduler and its other tenants instead.
constexpr std::size_t kSweepWorkers = 2;
constexpr std::size_t kSweepReplications = 12;
constexpr double kSweepVideoS = 40.0;
constexpr double kSweepWarmupS = 10.0;
constexpr double kSweepDrainS = 10.0;
constexpr double kProbeS = 100.0;
constexpr double kProbeWarmupS = 20.0;  // fixed inside measure_backlogged_paths
constexpr std::uint64_t kModelConsumptions = 400'000;

// required_delay: bench_fig9_required_delay's grid and per-point seeds,
// repeated over seed-stream seeds.  Every probe draws exactly the default
// minimum budget: with the default escalation (doubling while the CI
// straddles 1e-4) a pass's work would depend on the seed, and its time
// with it.
constexpr std::size_t kFig9Seeds = 6;
constexpr std::uint64_t kFig9Consumptions =
    dmp::RequiredDelayOptions{}.min_consumptions;
constexpr double kFig9Losses[] = {0.004, 0.02, 0.04};
constexpr double kFig9To = 4.0;
constexpr double kFig9Ratio = 1.6;

// failover_redundant: the bench_schedulers outage arm on a 20 s stream,
// serial.
constexpr std::size_t kFailoverReplications = 100;
constexpr double kFailoverVideoS = 20.0;
constexpr double kFailoverWarmupS = 5.0;
constexpr double kFailoverDrainS = 5.0;
constexpr double kOutageS = 5.0;

constexpr double kCurveTaus[] = {3, 4, 5, 6, 7, 8, 9, 10, 11};
constexpr double kScatterTaus[] = {4, 6, 8, 10};

std::size_t sweep_workers() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 1, kSweepWorkers);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// One calibration slice on the calling thread, in seconds.  Each thread
// keeps its own kernel state, so a slice measures the core it runs on.
double calibration_slice_s() {
  thread_local HostSpeedProbe probe;
  return probe.slice_s();
}

void add(LayerCounts& into, const LayerCounts& c) {
  into.sessions += c.sessions;
  into.events += c.events;
  for (std::size_t i = 0; i < dmp::kNumEventCategories; ++i) {
    into.category_events[i] += c.category_events[i];
    into.category_wall_ns[i] += c.category_wall_ns[i];
  }
  into.sim_s += c.sim_s;
  into.des_wall_s += c.des_wall_s;
  into.session_wall_s += c.session_wall_s;
  into.loss_rate_sum += c.loss_rate_sum;
  into.loss_rate_n += c.loss_rate_n;
  into.data_packets_sent += c.data_packets_sent;
  into.retransmissions += c.retransmissions;
  into.timeouts += c.timeouts;
  into.video_acks += c.video_acks;
  into.generated += c.generated;
  into.duplicates_sent += c.duplicates_sent;
  into.parity_sent += c.parity_sent;
  into.duplicates_suppressed += c.duplicates_suppressed;
  into.fault_events += c.fault_events;
  into.trace_records += c.trace_records;
  into.bottleneck_arrivals += c.bottleneck_arrivals;
  into.bottleneck_delivered += c.bottleneck_delivered;
  into.max_events_pending =
      std::max(into.max_events_pending, c.max_events_pending);
  into.mc_consumptions += c.mc_consumptions;
  into.mc_wall_s += c.mc_wall_s;
}

// One unit of work as produced on a worker and consumed in index order.
struct ItemOut {
  std::string label;
  std::vector<double> values;
  std::string error;  // empty = produced and passed its output checks
  LayerCounts counts{};
  ItemTiming timing{};
  double called_s = 0.0;  // when the worker took the item up
};

// Shared per-pass state: spans, the result under construction, timing.
class Pass {
 public:
  Pass(const PassConfig& config, std::size_t workers) : config_(config) {
    // Every pass starts with a cold chain cache, as a fresh process does.
    dmp::chain_cache_clear();
    result.workers = config.workers == 0 ? workers : config.workers;
    cpu0_ = cpu_seconds();
    t0_ = config.started_at_s >= 0.0 ? config.started_at_s : now_s();
  }

  const PassConfig& config() const { return config_; }
  SpanLog& spans() { return spans_; }
  dmp::exp::ExperimentRunner runner() const {
    return dmp::exp::ExperimentRunner(result.workers);
  }

  // Consumes one produced unit: output row, failure, counts; `item` marks
  // the units that are work items (timed for the item percentiles).
  void consume(ItemOut out, bool item) {
    ++result.attempted;
    if (!out.error.empty()) {
      ++result.failed;
      result.errors.push_back(out.label + ": " + out.error);
    }
    if (item) {
      result.items.push_back(out.timing);
      result.host_slices_s.push_back(out.timing.slice_s);
      first_call_s_ = std::min(first_call_s_, out.called_s);
    }
    add(result.counts, out.counts);
    result.outputs.push_back(Output{std::move(out.label),
                                    std::move(out.values)});
  }

  void fail(const std::string& label, const std::string& error) {
    ++result.attempted;
    ++result.failed;
    result.errors.push_back(label + ": " + error);
  }

  // Runs items [0, n) on the pool; `produce(i)` returns an ItemOut.  A
  // calibration slice runs just before each item, on the item's worker.
  // In a set-up probe the pool starts but runs no item, set-up ends where
  // the first item would have started, and this returns false: the caller
  // ends the pass.
  template <class Produce>
  bool run_items(std::size_t n, Produce produce) {
    if (config_.setup_only) {
      runner().run_ordered(
          1, [](std::size_t) { return now_s(); },
          [this](std::size_t, double start) { result.setup_s = start - t0_; });
      return false;
    }
    const double batch_start = now_s();
    runner().run_ordered(
        n,
        [&produce](std::size_t i) {
          const double called_s = now_s();
          const double slice_s = calibration_slice_s();
          ItemOut out = produce(i);
          out.called_s = called_s;
          out.timing.slice_s = slice_s;
          return out;
        },
        [this](std::size_t, ItemOut out) { consume(std::move(out), true); });
    result.runner =
        runner_stats(result.items, result.workers, batch_start, now_s());
    return true;
  }

  PassResult finish() {
    result.wall_s = now_s() - t0_;
    result.cpu_s = cpu_seconds() - cpu0_;
    // Set-up ends where a worker first took an item up (before its
    // calibration slice).
    if (!result.items.empty()) result.setup_s = first_call_s_ - t0_;
    const auto stats = dmp::chain_cache_stats();
    result.counts.cache_hits = stats.hits;
    result.counts.cache_misses = stats.misses;
    const double workers = static_cast<double>(result.workers);
    result.phase_probe_s = spans_.self_time_s("probe") / workers;
    result.phase_session_s = spans_.self_time_s("session") / workers;
    result.phase_model_s = spans_.self_time_s("model") / workers;
    result.phase_analysis_s = spans_.self_time_s("analysis") / workers;
    return std::move(result);
  }

  PassResult result;

 private:
  const PassConfig& config_;
  SpanLog spans_{[] { return now_s(); }};
  double t0_ = 0.0;
  double cpu0_ = 0.0;
  double first_call_s_ = std::numeric_limits<double>::infinity();
};

std::string file_safe(std::string s) {
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

bool non_increasing(const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[i - 1]) return false;
  }
  return true;
}

// Values, output checks and layer counts of one finished session.
void analyse_session(const dmp::SessionResult& r,
                     const dmp::SessionConfig& config, ItemOut* out) {
  const std::int64_t generated = r.packets_generated;
  std::vector<double> playback, arrival;
  for (double tau : kCurveTaus) {
    playback.push_back(r.trace.late_fraction_playback_order(tau, generated));
  }
  for (double tau : kScatterTaus) {
    arrival.push_back(r.trace.late_fraction_arrival_order(tau, generated));
  }
  const auto shares = r.trace.path_split(config.num_flows);
  auto& v = out->values;
  v.insert(v.end(), playback.begin(), playback.end());
  v.insert(v.end(), arrival.begin(), arrival.end());
  v.insert(v.end(), shares.begin(), shares.end());
  for (const auto n :
       {static_cast<double>(generated), static_cast<double>(r.trace.arrivals()),
        static_cast<double>(r.events_executed),
        static_cast<double>(r.duplicates_sent),
        static_cast<double>(r.parity_sent),
        static_cast<double>(r.duplicates_suppressed),
        static_cast<double>(r.fault_events_fired)}) {
    v.push_back(n);
  }

  // Output checks that hold for every seed.
  std::vector<char> seen(static_cast<std::size_t>(std::max<std::int64_t>(
                             generated, 0)),
                         0);
  for (const auto& e : r.trace.entries()) {
    if (e.packet_number < 0 || e.packet_number >= generated) {
      out->error = "packet number outside [0, generated)";
      break;
    }
    if (seen[static_cast<std::size_t>(e.packet_number)]++ != 0) {
      out->error = "packet recorded more than once";
      break;
    }
  }
  if (static_cast<std::int64_t>(r.trace.arrivals()) > generated) {
    out->error = "arrivals exceed packets_generated";
  }
  if (!non_increasing(playback) || !non_increasing(arrival)) {
    out->error = "late fraction increases with tau";
  }
  double share_sum = 0.0;
  for (double s : shares) share_sum += s;
  if (r.trace.arrivals() > 0 && std::fabs(share_sum - 1.0) > 1e-9) {
    out->error = "path shares do not sum to 1";
  }

  LayerCounts& c = out->counts;
  c.sessions = 1;
  c.events = r.events_executed;
  for (std::size_t i = 0; i < dmp::kNumEventCategories; ++i) {
    c.category_events[i] = r.profile.by_category[i].executed;
    c.category_wall_ns[i] = r.profile.by_category[i].wall_ns;
  }
  c.sim_s = config.warmup_s + config.duration_s + config.drain_s;
  for (const auto& path : r.paths) {
    c.loss_rate_sum += path.loss_rate;
    ++c.loss_rate_n;
    c.data_packets_sent += path.tcp.data_packets_sent;
    c.retransmissions += path.tcp.retransmissions;
    c.timeouts += path.tcp.timeouts;
    c.video_acks += path.tcp.acks_received;
  }
  c.generated = static_cast<std::uint64_t>(generated);
  c.duplicates_sent = r.duplicates_sent;
  c.parity_sent = r.parity_sent;
  c.duplicates_suppressed = r.duplicates_suppressed;
  c.fault_events = r.fault_events_fired;
  c.trace_records = r.trace.arrivals();
  if (r.metrics) {
    const std::size_t paths =
        config.correlated ? 1 : config.path_configs.size();
    for (std::size_t i = 0; i < paths; ++i) {
      const std::string prefix = "link.path" + std::to_string(i);
      if (const auto* a = r.metrics->find_counter(prefix + ".arrivals")) {
        c.bottleneck_arrivals += a->value();
      }
      if (const auto* d = r.metrics->find_counter(prefix + ".delivered")) {
        c.bottleneck_delivered += d->value();
      }
    }
    if (const auto* g = r.metrics->find_gauge("sched.max_events_pending")) {
      c.max_events_pending = static_cast<std::uint64_t>(g->value());
    }
  }
}

ItemOut session_item(const std::string& label, dmp::SessionConfig config,
                     Pass& pass) {
  ItemOut out;
  out.label = label;
  if (pass.config().traced) {
    config.profile = true;
    config.profile_wall_time = true;
    config.obs.enabled = true;
    config.obs.probe_interval_s = 0.0;  // counters only: no probe events
    config.obs.event_ring_capacity = 1024;
    config.obs.output_dir = pass.config().obs_dir;
    config.obs.prefix = file_safe(label);
  }
  SpanLog& spans = pass.spans();
  const double start = now_s();
  const std::size_t span = spans.begin("session");
  try {
    const dmp::SessionResult result = dmp::run_session(config);
    const double des_wall = now_s() - start;
    {
      ScopedSpan analysis(spans, "analysis", span);
      analyse_session(result, config, &out);
    }
    out.counts.des_wall_s = des_wall;
    out.counts.session_wall_s = des_wall;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  spans.end(span);
  out.timing = ItemTiming{start, now_s()};
  return out;
}

// A backlogged-probe row {p, R, TO, throughput}: finite, p in [0, 1],
// R > 0 and throughput > 0.
bool valid_probe(const std::vector<double>& v) {
  if (v.size() != 4) return false;
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return v[0] >= 0.0 && v[0] <= 1.0 && v[1] > 0.0 && v[3] > 0.0;
}

ItemOut probe_item(const std::string& label, int config_id,
                   std::uint64_t seed, Pass& pass) {
  ItemOut out;
  out.label = label;
  const double start = now_s();
  try {
    ScopedSpan span(pass.spans(), "probe");
    const auto probes = dmp::measure_backlogged_paths(
        dmp::table1_config(config_id), 1, seed, kProbeS);
    const auto& m = probes.at(0);
    out.values = {m.loss_rate, m.rtt_s, m.to_ratio, m.throughput_pps};
    if (!valid_probe(out.values)) out.error = "probe estimate out of range";
    out.counts.sim_s = kProbeWarmupS + kProbeS;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.timing = ItemTiming{start, now_s()};
  out.counts.des_wall_s = out.timing.wall_s();
  return out;
}

// Cold build + solve of each chain, in milliseconds.
std::vector<double> time_chain_builds(
    const std::vector<dmp::TcpChainParams>& chains) {
  std::vector<double> ms;
  for (const auto& params : chains) {
    const double start = now_s();
    const dmp::TcpFlowChain chain(params);
    chain.achievable_throughput_pps();  // the solve
    ms.push_back((now_s() - start) * 1e3);
  }
  return ms;
}

// --- validation_sweep ---

PassResult validation_sweep(std::uint64_t seed, const PassConfig& config) {
  Pass pass(config, sweep_workers());
  const auto settings = dmp::bench::independent_settings();
  constexpr std::size_t kPerSetting = 2 + kSweepReplications;

  // Plan: validated session configs and seeds for every item.
  struct Item {
    std::string label;
    bool probe = false;
    int config_id = 0;
    dmp::SessionConfig session{};
    std::uint64_t seed = 0;
  };
  std::vector<Item> items;
  for (std::size_t s = 0; s < settings.size(); ++s) {
    const auto& st = settings[s];
    const auto probe_seeds = dmp::exp::probe_stream(seed, s);
    for (int k = 0; k < 2; ++k) {
      Item item;
      item.label = st.name + "/probe/" + std::to_string(k);
      item.probe = true;
      item.config_id = k == 0 ? st.config_a : st.config_b;
      item.seed = probe_seeds.at(static_cast<std::uint64_t>(k));
      items.push_back(std::move(item));
    }
    dmp::SessionConfig session = dmp::bench::session_for(st, kSweepVideoS);
    session.warmup_s = kSweepWarmupS;
    session.drain_s = kSweepDrainS;
    dmp::SchedulerSpec::parse(session.scheduler);
    for (std::size_t r = 0; r < kSweepReplications; ++r) {
      Item item;
      item.label = st.name + "/session/" + std::to_string(r);
      item.session = session;
      item.session.seed = dmp::exp::replication_seed(seed, s, r);
      items.push_back(std::move(item));
    }
  }

  const bool ran = pass.run_items(items.size(), [&](std::size_t i) {
    const Item& item = items[i];
    return item.probe ? probe_item(item.label, item.config_id, item.seed, pass)
                      : session_item(item.label, item.session, pass);
  });
  if (!ran) return pass.finish();

  // Model curves from each setting's two probes: 9 taus per setting.
  struct Point {
    std::size_t setting;
    dmp::ComposedParams params;
    std::uint64_t seed;
  };
  std::vector<Point> points;
  std::vector<dmp::TcpChainParams> chains;
  std::vector<bool> have_probes(settings.size(), false);
  for (std::size_t s = 0; s < settings.size(); ++s) {
    const auto& a = pass.result.outputs[s * kPerSetting].values;
    const auto& b = pass.result.outputs[s * kPerSetting + 1].values;
    if (!valid_probe(a) || !valid_probe(b)) continue;
    have_probes[s] = true;
    dmp::ComposedParams base;
    base.mu_pps = settings[s].mu_pps;
    base.flows = {dmp::bench::chain_of(a[0], a[1], a[2]),
                  dmp::bench::chain_of(b[0], b[1], b[2])};
    chains.insert(chains.end(), base.flows.begin(), base.flows.end());
    const auto mc_seeds = dmp::exp::mc_stream(seed, s);
    for (std::size_t t = 0; t < std::size(kCurveTaus); ++t) {
      Point p{s, base, mc_seeds.at(t)};
      p.params.tau_s = kCurveTaus[t];
      points.push_back(std::move(p));
    }
  }
  for (std::size_t s = 0; s < settings.size(); ++s) {
    if (!have_probes[s]) {
      pass.fail(settings[s].name + "/model", "no probe estimates");
    }
  }
  struct Estimate {
    dmp::MonteCarloResult mc{};
    double wall_s = 0.0;
    double slice_s = 0.0;
    std::string error;
  };
  std::vector<std::vector<dmp::MonteCarloResult>> curves(settings.size());
  std::vector<std::string> curve_errors(settings.size());
  pass.runner().run_ordered(
      points.size(),
      [&](std::size_t i) {
        Estimate e;
        e.slice_s = calibration_slice_s();
        ScopedSpan span(pass.spans(), "model");
        const double start = now_s();
        try {
          dmp::DmpModelMonteCarlo mc(points[i].params, points[i].seed);
          e.mc = mc.run(kModelConsumptions, kModelConsumptions / 10);
        } catch (const std::exception& ex) {
          e.error = ex.what();
        }
        e.wall_s = now_s() - start;
        return e;
      },
      [&](std::size_t i, Estimate e) {
        const std::size_t s = points[i].setting;
        pass.result.host_slices_s.push_back(e.slice_s);
        pass.result.counts.mc_consumptions += e.mc.consumptions;
        pass.result.counts.mc_wall_s += e.wall_s;
        if (!e.error.empty()) curve_errors[s] = e.error;
        curves[s].push_back(std::move(e.mc));
      });
  {
    ScopedSpan analysis(pass.spans(), "analysis");
    for (std::size_t s = 0; s < settings.size(); ++s) {
      if (!have_probes[s]) continue;
      ItemOut out;
      out.label = settings[s].name + "/model";
      out.error = curve_errors[s];
      // Only the range is checked: each tau is an independent MC run whose
      // late events come in bursts, so the model curve is non-increasing
      // in expectation only (the simulated curves are checked exactly).
      for (const auto& m : curves[s]) {
        out.values.push_back(m.late_fraction);
        if (!(m.late_fraction >= 0.0 && m.late_fraction <= 1.0)) {
          out.error = "model late fraction outside [0, 1]";
        }
      }
      pass.consume(std::move(out), false);
    }
  }
  PassResult result = pass.finish();
  if (config.traced) result.chain_build_ms = time_chain_builds(chains);
  return result;
}

// --- required_delay ---

PassResult required_delay(std::uint64_t seed, const PassConfig& config) {
  Pass pass(config, 1);
  struct Point {
    std::string label;
    dmp::ComposedParams params;
    double tau_max_s;
    std::size_t index;  // position in bench_fig9's 18-point grid
  };
  struct Item {
    const Point* point;
    std::string label;
    std::uint64_t seed;
  };
  // Plan building, as bench_fig9 does it: each point's RTT or mu comes
  // from a cold unit-RTT chain build + solve.
  std::vector<Point> grid;
  char label[64];
  std::size_t index = 0;
  for (double mu : {25.0, 50.0, 100.0}) {
    for (double p : kFig9Losses) {
      const double rtt =
          dmp::bench::rtt_for_ratio(p, kFig9To, mu, kFig9Ratio);
      if (rtt <= 0.6) {  // larger RTTs are omitted, as in the paper
        std::snprintf(label, sizeof label, "a/p%.3f/mu%.0f", p, mu);
        grid.push_back({label,
                        dmp::bench::homogeneous_setup(p, rtt, kFig9To, mu),
                        60.0, index});
      }
      ++index;
    }
  }
  for (double rtt_ms : {100.0, 200.0, 300.0}) {
    for (double p : kFig9Losses) {
      const double rtt = rtt_ms / 1e3;
      const double mu = dmp::bench::mu_for_ratio(p, rtt, kFig9To, kFig9Ratio);
      std::snprintf(label, sizeof label, "b/p%.3f/rtt%.0f", p, rtt_ms);
      grid.push_back({label,
                      dmp::bench::homogeneous_setup(p, rtt, kFig9To, mu),
                      120.0, index++});
    }
  }
  std::vector<Item> items;
  for (std::size_t j = 0; j < kFig9Seeds; ++j) {
    const auto mc_seeds = dmp::exp::mc_stream(seed, j);
    for (const auto& point : grid) {
      items.push_back({&point, "seed" + std::to_string(j) + "/" + point.label,
                       mc_seeds.at(point.index)});
    }
  }

  const bool ran = pass.run_items(items.size(), [&](std::size_t i) {
    const Item& item = items[i];
    ItemOut out;
    out.label = item.label;
    const double start = now_s();
    try {
      ScopedSpan span(pass.spans(), "model");
      dmp::RequiredDelayOptions options;
      options.tau_max_s = item.point->tau_max_s;
      options.seed = item.seed;
      options.min_consumptions = kFig9Consumptions;
      options.max_consumptions = kFig9Consumptions;
      const auto r = dmp::required_startup_delay(item.point->params, options);
      out.values = {r.tau_s, r.feasible ? 1.0 : 0.0, r.late_at_tau,
                    static_cast<double>(r.evaluations)};
      const bool on_grid = r.tau_s == std::floor(r.tau_s) &&
                           r.tau_s >= options.tau_min_s &&
                           r.tau_s <= options.tau_max_s;
      if (r.feasible &&
          (r.late_at_tau > options.target_late_fraction || !on_grid)) {
        out.error = "feasible point misses 1e-4 or the 1-s grid";
      }
      if (!r.feasible && r.tau_s != options.tau_max_s) {
        out.error = "infeasible point not at the tau ceiling";
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.timing = ItemTiming{start, now_s()};
    return out;
  });
  PassResult result = pass.finish();
  if (ran && config.traced) {
    std::vector<dmp::TcpChainParams> chains;
    for (double p : kFig9Losses) {
      chains.push_back(dmp::bench::chain_of(p, 1.0, kFig9To));
    }
    for (const auto& point : grid) chains.push_back(point.params.flows[0]);
    result.chain_build_ms = time_chain_builds(chains);
    // required_startup_delay does not report how many consumptions its
    // probes drew, so the MC rate comes from one compat run per grid point
    // at a probe's minimum budget (after the timed pass).
    const std::uint64_t budget = kFig9Consumptions;
    const auto rate_seeds = dmp::exp::mc_stream(seed, kFig9Seeds);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double start = now_s();
      dmp::DmpModelMonteCarlo mc(grid[i].params, rate_seeds.at(i));
      const auto r = mc.run(budget, budget / 10);
      result.counts.mc_wall_s += now_s() - start;
      result.counts.mc_consumptions += r.consumptions;
    }
  }
  return result;
}

// --- failover_redundant ---

PassResult failover_redundant(std::uint64_t seed, const PassConfig& config) {
  Pass pass(config, 1);
  dmp::SessionConfig session =
      dmp::bench::session_for({"4-4", 4, 4, 30.0, false}, kFailoverVideoS);
  session.warmup_s = kFailoverWarmupS;
  session.drain_s = kFailoverDrainS;
  session.scheduler = "redundant";
  const double t_down = std::max(5.0, 0.2 * kFailoverVideoS);
  char spec[128];
  std::snprintf(spec, sizeof spec, "%g link_down path0; %g link_up path0",
                t_down, t_down + kOutageS);
  session.faults = spec;
  dmp::SchedulerSpec::parse(session.scheduler);
  dmp::fault::FaultPlan::parse(session.faults);
  pass.run_items(kFailoverReplications, [&](std::size_t r) {
    dmp::SessionConfig c = session;
    c.seed = dmp::exp::replication_seed(seed, 0, r);
    return session_item("4-4-outage/session/" + std::to_string(r), c, pass);
  });
  return pass.finish();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "validation_sweep", "required_delay", "failover_redundant"};
  return names;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_slice_s(std::size_t slices) {
  std::vector<double> s;
  for (std::size_t i = 0; i < slices; ++i) s.push_back(calibration_slice_s());
  return mean(s);
}

ReferenceTimes reference_times(const PassResult& pass) {
  ReferenceTimes t;
  if (pass.host_slices_s.empty()) return t;
  const double slice = mean(pass.host_slices_s);
  const double total = slice * static_cast<double>(pass.host_slices_s.size());
  // The slices ran on the pass's workers side by side: they added about
  // 1/workers of their sum to the pass's wall time and all of it to its
  // CPU time.
  t.wall_s = reference_s(
      pass.wall_s - total / static_cast<double>(pass.workers), slice);
  t.cpu_s = reference_s(pass.cpu_s - total, slice);
  t.setup_s = reference_s(pass.setup_s, slice);
  for (const auto& item : pass.items) {
    t.item_ms.push_back(reference_s(item.wall_s(), item.slice_s) * 1e3);
  }
  return t;
}

PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    const PassConfig& config) {
  if (workload == "validation_sweep") return validation_sweep(seed, config);
  if (workload == "required_delay") return required_delay(seed, config);
  if (workload == "failover_redundant") {
    return failover_redundant(seed, config);
  }
  throw std::invalid_argument{"unknown workload: " + workload};
}

}  // namespace perfbench

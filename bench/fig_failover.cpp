// Failover study (unlocked by the fault injector): required startup delay
// vs. mid-stream outage duration for K = 1, 2, 3 paths.
//
// Every setting streams mu = 20 pkts/s over K Table-1 config-4 paths; at
// 20% of the stream (>= 5 s in) path0 goes dark for D seconds (forward and
// reverse bottleneck down, so the sender's only signal is its RTO timer).
// Single-path streaming must ride out the whole outage on retransmission
// backoff — its required startup delay grows with D — while DMP reclaims
// the dead sender's unsent share and the survivors absorb the load, so the
// required delay stays near its fault-free value.  One experiment-plan
// setting per (K, D) cell; DMP_FAULTS is ignored here because the outage
// schedule IS the experiment.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace dmp;

namespace {

struct DelayStats {
  double required_tau_s = 0.0;
  double delivered_fraction = 1.0;
};

// Smallest startup delay that would have made playback smooth: packet n
// plays at n/mu + tau, so tau must cover max_n(arrival_n - n/mu).  Packets
// that never arrived (drain too short, or a path that never recovered)
// clamp the answer to `cap_s` and show up in delivered_fraction.
DelayStats delay_stats(const StreamTrace& trace, std::int64_t total,
                       double cap_s) {
  DelayStats stats;
  if (total <= 0) return stats;
  std::vector<bool> got(static_cast<std::size_t>(total), false);
  for (const auto& e : trace.entries()) {
    if (e.packet_number < 0 || e.packet_number >= total) continue;
    got[static_cast<std::size_t>(e.packet_number)] = true;
    stats.required_tau_s =
        std::max(stats.required_tau_s,
                 e.arrived.to_seconds() -
                     static_cast<double>(e.packet_number) / trace.mu());
  }
  std::int64_t delivered = 0;
  for (const bool g : got) delivered += g;
  stats.delivered_fraction =
      static_cast<double>(delivered) / static_cast<double>(total);
  if (delivered < total) stats.required_tau_s = cap_s;
  stats.required_tau_s = std::min(stats.required_tau_s, cap_s);
  return stats;
}

}  // namespace

int main() {
  const auto options = exp::bench_options();
  const double duration_s = options.duration_s;
  const double t_down = std::max(5.0, 0.2 * duration_s);
  bench::banner("Failover: required startup delay vs outage duration "
                "(mu=20, Table-1 config 4)");
  std::printf("(outage starts at %.0f s of a %.0f s stream)\n\n", t_down,
              duration_s);

  const std::vector<int> path_counts{1, 2, 3};
  std::vector<double> outages{0.0, 2.0, 5.0, 10.0};
  // Keep the outage inside the stream on short smoke runs.
  outages.erase(std::remove_if(outages.begin(), outages.end(),
                               [&](double d) {
                                 return t_down + d >= duration_s;
                               }),
                outages.end());
  const double cap_s = duration_s + 60.0;

  exp::ExperimentPlan plan;
  plan.name = "fig_failover";
  plan.replications = static_cast<std::size_t>(options.runs);
  plan.seed = options.seed;
  for (const int k : path_counts) {
    for (const double d : outages) {
      SessionConfig config;
      config.path_configs.assign(static_cast<std::size_t>(k),
                                 table1_config(4));
      config.num_flows = static_cast<std::size_t>(k);
      // DMP_SCHED applies: rerun the failover study under any dispatch
      // policy (the default "pull" reproduces the original figure).
      config.scheduler = options.sched;
      config.mu_pps = 20.0;
      config.duration_s = duration_s;
      if (d > 0.0) {
        char spec[128];
        std::snprintf(spec, sizeof spec,
                      "%g link_down path0; %g link_up path0", t_down,
                      t_down + d);
        config.faults = spec;
      }
      char name[32];
      std::snprintf(name, sizeof name, "K%d_D%g", k, d);
      plan.settings.push_back({name, config});
    }
  }
  plan.metrics = [cap_s](const SessionResult& result, std::size_t,
                         std::size_t) {
    const auto stats =
        delay_stats(result.trace, result.packets_generated, cap_s);
    std::vector<std::pair<std::string, double>> metrics;
    metrics.emplace_back("required_tau_s", stats.required_tau_s);
    metrics.emplace_back("delivered_fraction", stats.delivered_fraction);
    metrics.emplace_back(
        "late_fraction_tau4",
        result.trace.late_fraction_playback_order(4.0,
                                                  result.packets_generated));
    metrics.emplace_back("fault_events",
                         static_cast<double>(result.fault_events_fired));
    return metrics;
  };

  const auto report = exp::ExperimentRunner(options.threads).run(plan);

  CsvWriter csv(bench_output_dir() + "/fig_failover.csv",
                {"k", "outage_s", "required_tau_s", "required_tau_hw",
                 "late_fraction_tau4", "delivered_fraction"});
  std::printf("%4s %10s %18s %16s %12s\n", "K", "outage(s)", "required tau",
              "f(tau=4)", "delivered");
  std::size_t idx = 0;
  for (const int k : path_counts) {
    for (const double d : outages) {
      const auto& setting = report.settings[idx++];
      const auto tau_ci = setting.find("required_tau_s")->ci();
      const auto late = setting.find("late_fraction_tau4")->ci().mean;
      const auto delivered = setting.find("delivered_fraction")->ci().mean;
      std::printf("%4d %10.0f %11.2f +/- %4.2f %16.4g %12.4g\n", k, d,
                  tau_ci.mean, tau_ci.half_width, late, delivered);
      csv.row({std::to_string(k), CsvWriter::num(d),
               CsvWriter::num(tau_ci.mean), CsvWriter::num(tau_ci.half_width),
               CsvWriter::num(late), CsvWriter::num(delivered)});
    }
    std::printf("\n");
  }

  std::printf("reading: K = 1 pays for the whole outage in startup delay "
              "(the RTO backoff rides across it); K >= 2 reclaims the dead "
              "path's share, so the required delay stays near its "
              "fault-free value.\n");
  std::printf("CSV: %s/fig_failover.csv\n", bench_output_dir().c_str());
  std::printf("JSON: %s\n", report.write_json().c_str());
  return 0;
}

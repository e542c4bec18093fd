// Shared driver for the Fig. 4 / Fig. 5 validation figures:
//   (a) out-of-order effect — scatter of the late fraction in arrival
//       order vs. playback order, tau in {4,6,8,10} s, one point per run;
//   (b) fraction of late packets vs. startup delay — simulation (mean and
//       95% CI over runs) against the analytical model.
//
// Replications run on the exp::ExperimentRunner worker pool (DMP_THREADS);
// results are consumed in replication order, so the printed table, the
// CSVs and the BENCH_<figure>.json report are identical at any thread
// count.
#pragma once

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/composed_chain.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "obs/divergence/divergence.hpp"

namespace dmp::bench {

inline void run_validation_figure(const ValidationSetting& setting,
                                  const std::string& figure_name) {
  const auto options = exp::bench_options();
  // Non-droptail runs get their own divergence-series identity
  // ("fig4_pie", ...) so per-qdisc artifacts from the same bench binary
  // never collide with the golden droptail series.
  const QdiscSpec qdisc_spec = QdiscSpec::parse(options.qdisc);
  const std::string qdisc_tag =
      qdisc_spec.droptail() ? "" : std::string("_") + qdisc_spec.kind_name();
  banner(figure_name + " — Setting " + setting.name +
         (setting.correlated ? " (correlated paths)" : " (independent paths)") +
         (qdisc_spec.droptail() ? "" : " [qdisc " + options.qdisc + "]"));
  std::printf("(%lld runs x %.0f s, mu = %.0f pkts/s, %zu threads)\n",
              static_cast<long long>(options.runs), options.duration_s,
              setting.mu_pps, exp::ExperimentRunner(options.threads).threads());

  const std::vector<double> scatter_taus{4.0, 6.0, 8.0, 10.0};
  const std::vector<double> curve_taus{3, 4, 5, 6, 7, 8, 9, 10, 11};

  CsvWriter scatter_csv(
      bench_output_dir() + "/" + figure_name + "a_out_of_order.csv",
      {"setting", "run", "tau_s", "late_playback_order", "late_arrival_order"});
  CsvWriter curve_csv(
      bench_output_dir() + "/" + figure_name + "b_late_vs_tau.csv",
      {"setting", "tau_s", "sim_mean", "sim_ci_half", "model"});

  // --- simulation replications (one trace serves every tau) ---
  auto plan = plan_for(figure_name, {setting}, options, options.duration_s);
  plan.metrics = [&curve_taus](const SessionResult& result, std::size_t,
                               std::size_t) {
    std::vector<std::pair<std::string, double>> m;
    for (double tau : curve_taus) {
      m.emplace_back("f_tau" + std::to_string(static_cast<int>(tau)),
                     result.trace.late_fraction_playback_order(
                         tau, result.packets_generated));
    }
    return m;
  };

  std::printf("\n(a) out-of-order effect (playback-order vs arrival-order "
              "late fractions)\n");
  std::printf("%4s %8s %14s %14s\n", "run", "tau", "playback", "arrival");
  std::vector<std::vector<double>> sim_f(curve_taus.size());
  const auto consume = [&](std::size_t, std::size_t rep,
                           const exp::ReplicationOutcome& outcome) {
    if (!outcome.ok) {
      std::printf("%4zu  FAILED: %s\n", rep, outcome.error.c_str());
      return;
    }
    const auto& result = outcome.result;
    if (result.hub && (result.hub->metrics() || result.hub->flight())) {
      const auto& obs = result.hub->config();
      std::printf("obs artifacts: %s/%s_*\n", obs.output_dir.c_str(),
                  obs.prefix.c_str());
    }
    for (double tau : scatter_taus) {
      const double fp = result.trace.late_fraction_playback_order(
          tau, result.packets_generated);
      const double fa = result.trace.late_fraction_arrival_order(
          tau, result.packets_generated);
      std::printf("%4zu %8.0f %14.6g %14.6g\n", rep, tau, fp, fa);
      scatter_csv.row({setting.name, std::to_string(rep), CsvWriter::num(tau),
                       CsvWriter::num(fp), CsvWriter::num(fa)});
    }
    for (std::size_t i = 0; i < curve_taus.size(); ++i) {
      sim_f[i].push_back(result.trace.late_fraction_playback_order(
          curve_taus[i], result.packets_generated));
    }
  };
  auto report = exp::ExperimentRunner(options.threads).run(plan, consume);

  // --- model curve (backlogged-probe parameters; see DESIGN.md) ---
  const auto model_base =
      model_params_for(setting, exp::probe_stream(options.seed), 1500.0,
                       options.qdisc);
  std::printf("\nmodel path parameters: ");
  for (const auto& flow : model_base.flows) {
    std::printf("(p=%.4f R=%.0fms TO=%.2f) ", flow.loss_rate,
                flow.rtt_s * 1e3, flow.to_ratio);
  }
  double sigma_a = 0.0;
  for (const auto& flow : model_base.flows) {
    sigma_a += TcpFlowChain(flow).achievable_throughput_pps();
  }
  std::printf("sigma_a/mu=%.2f\n", sigma_a / setting.mu_pps);

  std::printf("\n(b) fraction of late packets vs startup delay\n");
  std::printf("%6s %22s %14s %10s\n", "tau", "sim (95% CI)", "model",
              "fm/fs");
  // Below this the simulation cannot distinguish f from 0.
  const double sim_resolution =
      1.0 / (setting.mu_pps * options.duration_s *
             static_cast<double>(options.runs));
  const auto mc_seeds = exp::mc_stream(options.seed);
  // Divergence series: the paper's Section-5 match criterion as a
  // recorded tolerance — within the sim's 95% CI, within the sim
  // resolution floor, or within a decade of the simulated mean.
  obs::DivergenceSeries divergence;
  divergence.name = figure_name + qdisc_tag;
  divergence.metric = "late_fraction_playback";
  divergence.x_label = "tau_s";
  divergence.tolerance.abs = sim_resolution;
  divergence.tolerance.ratio = 10.0;
  divergence.tolerance.within_ci = true;
  for (std::size_t i = 0; i < curve_taus.size(); ++i) {
    ComposedParams params = model_base;
    params.tau_s = curve_taus[i];
    DmpModelMonteCarlo mc(params, mc_seeds.at(i));
    const auto model = mc.run(options.mc_max, options.mc_max / 10);
    const auto ci = confidence_interval(sim_f[i]);
    if (ci.mean > 0.0) {
      std::printf("%6.0f %12.5g +/- %-8.2g %14.6g %10.3g\n", curve_taus[i],
                  ci.mean, ci.half_width, model.late_fraction,
                  model.late_fraction / ci.mean);
    } else {
      std::printf("%6.0f %12s +/- %-8s %14.6g %10s\n", curve_taus[i],
                  "< sim res.", "", model.late_fraction,
                  model.late_fraction < 10.0 * sim_resolution ? "ok" : ">10x");
    }
    curve_csv.row({setting.name, CsvWriter::num(curve_taus[i]),
                   CsvWriter::num(ci.mean), CsvWriter::num(ci.half_width),
                   CsvWriter::num(model.late_fraction)});
    divergence.add(setting.name, curve_taus[i], model.late_fraction, ci.mean,
                   ci.half_width);
  }
  std::printf("\nmatch criterion (paper): model within sim CI, or "
              "0.1 < fm/fs < 10\n");
  const auto dstats = divergence.stats();
  std::printf("divergence: %zu point(s), %zu diverged, rms=%.3g "
              "max|r|=%.3g at %s tau=%g (tol: |r| <= %.3g, CI, or "
              "ratio <= 10)\n",
              dstats.count, dstats.diverged, dstats.rms_residual,
              dstats.max_abs_residual, dstats.worst_setting.c_str(),
              dstats.worst_x, sim_resolution);
  report.divergence.push_back(std::move(divergence));
  const std::string json = report.write_json();
  std::printf("CSV: %s/%s{a,b}_*.csv\nreport: %s (%.1f s wall)\n",
              bench_output_dir().c_str(), figure_name.c_str(), json.c_str(),
              report.wall_s);
}

}  // namespace dmp::bench

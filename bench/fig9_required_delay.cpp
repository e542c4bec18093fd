// Fig. 9: required startup delay so that the late fraction stays below
// 1e-4, homogeneous paths, TO = 4, sigma_a/mu = 1.6.
//   (a) ratio set by varying the RTT; mu in {25, 50, 100} pkts/s and
//       p in {0.004, 0.02, 0.04} (settings whose implied RTT exceeds
//       600 ms are omitted, as in the paper);
//   (b) ratio set by varying mu; R in {100, 200, 300} ms.
// One runner work item per (panel, p, rate) point.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exp/report.hpp"
#include "net/qdisc/queue_discipline.hpp"
#include "obs/divergence/divergence.hpp"
#include "param_space.hpp"

using namespace dmp;

int main() {
  const auto options = exp::bench_options();
  // Fig. 9 is analytic (no packet simulation), so a qdisc cannot change
  // its numbers — but a DMP_QDISC sweep driving all figures still gets a
  // per-qdisc artifact identity here so the sweep's fig9 JSONs never
  // overwrite the golden droptail one.
  const QdiscSpec qdisc_spec = QdiscSpec::parse(options.qdisc);
  const std::string qdisc_tag =
      qdisc_spec.droptail() ? "" : std::string("_") + qdisc_spec.kind_name();
  const double to = 4.0, ratio = 1.6;
  bench::banner("Fig. 9: required startup delay for f < 1e-4 "
                "(TO=4, sigma_a/mu=1.6)");

  CsvWriter csv(bench_output_dir() + "/fig9_required_delay.csv",
                {"panel", "loss_rate", "mu_pps", "rtt_ms", "required_tau_s",
                 "feasible"});

  struct Point {
    char panel;      // 'a' or 'b'
    double p;
    double mu;       // panel a input; panel b derived
    double rtt_s;    // panel a derived; panel b input
    double tau_max_s;
  };
  std::vector<Point> points;
  for (double mu : {25.0, 50.0, 100.0}) {
    for (double p : {0.004, 0.02, 0.04}) {
      points.push_back({'a', p, mu, bench::rtt_for_ratio(p, to, mu, ratio),
                        60.0});
    }
  }
  for (double rtt_ms : {100.0, 200.0, 300.0}) {
    for (double p : {0.004, 0.02, 0.04}) {
      // High-loss large-RTT settings need a higher tau ceiling.
      points.push_back({'b', p,
                        bench::mu_for_ratio(p, rtt_ms / 1e3, to, ratio),
                        rtt_ms / 1e3, 120.0});
    }
  }

  struct Row {
    bool omitted = false;
    RequiredDelayResult result{};
  };
  const auto mc_seeds = exp::mc_stream(options.seed);
  // With DMP_MODEL_SHARDS the parallelism moves inside each probe (the
  // sharded estimator runs its shards on DMP_THREADS workers), so the
  // outer sweep goes serial instead of oversubscribing.
  const std::size_t outer_threads =
      options.model_shards > 0 ? 1 : options.threads;
  const auto rows =
      exp::ExperimentRunner(outer_threads).map(points.size(), [&](std::size_t i) {
        const auto& point = points[i];
        Row row;
        if (point.panel == 'a' && point.rtt_s > 0.6) {
          row.omitted = true;
          return row;
        }
        ComposedParams params =
            bench::homogeneous_setup(point.p, point.rtt_s, to, point.mu);
        RequiredDelayOptions delay_options;
        delay_options.min_consumptions = options.mc_min;
        delay_options.max_consumptions = options.mc_max;
        delay_options.tau_max_s = point.tau_max_s;
        delay_options.seed = mc_seeds.at(i);
        delay_options.shards = options.model_shards;
        delay_options.threads = options.threads;
        row.result = required_startup_delay(params, delay_options);
        return row;
      });

  std::printf("\n(a) ratio fixed by varying RTT\n");
  std::printf("%8s %6s %10s %14s\n", "p", "mu", "RTT(ms)", "required tau");
  bool printed_b_header = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& point = points[i];
    if (point.panel == 'b' && !printed_b_header) {
      printed_b_header = true;
      std::printf("\n(b) ratio fixed by varying mu\n");
      std::printf("%8s %10s %8s %14s\n", "p", "RTT(ms)", "mu",
                  "required tau");
    }
    if (rows[i].omitted) {
      std::printf("%8.3f %6.0f %10.0f %14s\n", point.p, point.mu,
                  point.rtt_s * 1e3, "(omitted: RTT > 600 ms)");
      continue;
    }
    const auto& result = rows[i].result;
    if (point.panel == 'a') {
      std::printf("%8.3f %6.0f %10.0f %11.0f s%s\n", point.p, point.mu,
                  point.rtt_s * 1e3, result.tau_s,
                  result.feasible ? "" : "  (not reached)");
    } else {
      std::printf("%8.3f %10.0f %8.1f %11.0f s%s\n", point.p,
                  point.rtt_s * 1e3, point.mu, result.tau_s,
                  result.feasible ? "" : "  (not reached)");
    }
    csv.row({std::string(1, point.panel), CsvWriter::num(point.p),
             CsvWriter::num(point.mu), CsvWriter::num(point.rtt_s * 1e3),
             CsvWriter::num(result.tau_s), result.feasible ? "1" : "0"});
  }

  std::printf("\nexpected shape (paper): required tau ~ 10 s across panel "
              "(a) and most of (b); larger for R=300ms with p=0.04\n");

  // Divergence series: at the returned tau the late fraction must not
  // exceed the 1e-4 target — one-sided, since any undershoot is the
  // search doing its job.  Infeasible points (ceiling hit) are recorded
  // with their ceiling-tau estimate but judged one-sided all the same;
  // omitted points never enter the series.
  obs::DivergenceSeries divergence;
  divergence.name = "fig9" + qdisc_tag;
  divergence.metric = "late_fraction_at_tau";
  divergence.x_label = "tau_s";
  divergence.tolerance.one_sided = true;
  divergence.tolerance.abs = 0.0;
  divergence.tolerance.within_ci = false;
  const double target = RequiredDelayOptions{}.target_late_fraction;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (rows[i].omitted || !rows[i].result.feasible) continue;
    char label[64];
    std::snprintf(label, sizeof label, "%c/p%.3f/mu%.0f", points[i].panel,
                  points[i].p, points[i].mu);
    divergence.add(label, rows[i].result.tau_s, target,
                   rows[i].result.late_at_tau);
  }
  const auto dstats = divergence.stats();
  std::printf("divergence: %zu feasible point(s), %zu exceed the %.0e "
              "target at their returned tau\n",
              dstats.count, dstats.diverged, target);
  const std::string divergence_path =
      bench_output_dir() + "/DIVERGENCE_fig9" + qdisc_tag + ".json";
  if (obs::write_divergence_json({divergence}, divergence_path)) {
    std::printf("divergence: %s\n", divergence_path.c_str());
  }
  std::printf("CSV: %s/fig9_required_delay.csv\n", bench_output_dir().c_str());
  return 0;
}

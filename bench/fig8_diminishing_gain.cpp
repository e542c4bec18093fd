// Fig. 8: diminishing gain from increasing sigma_a/mu.
// p = 0.02, TO = 4, mu = 25 pkts/s; sigma_a/mu in {1.2..2.0} set by varying
// the RTT; fraction of late packets vs startup delay 2..30 s.  One runner
// work item per ratio (15 Monte-Carlo runs each).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "param_space.hpp"

using namespace dmp;

int main() {
  const auto options = exp::bench_options();
  const double p = 0.02, to = 4.0, mu = 25.0;
  bench::banner("Fig. 8: diminishing gain from sigma_a/mu "
                "(p=0.02, TO=4, mu=25)");

  CsvWriter csv(bench_output_dir() + "/fig8_diminishing_gain.csv",
                {"ratio", "rtt_ms", "tau_s", "late_fraction"});

  const std::vector<double> ratios{1.2, 1.4, 1.6, 1.8, 2.0};
  const std::vector<double> taus{2,  4,  6,  8,  10, 12, 14, 16,
                                 18, 20, 22, 24, 26, 28, 30};

  std::printf("%6s", "tau");
  for (double ratio : ratios) std::printf("   ratio=%.1f", ratio);
  std::printf("\n");

  struct Column {
    double rtt;
    std::vector<double> f;  // one per tau
  };
  // With DMP_MODEL_SHARDS the parallelism moves inside each estimate (the
  // sharded engine runs its shards on DMP_THREADS workers), so the outer
  // sweep goes serial instead of oversubscribing.
  const std::size_t outer_threads =
      options.model_shards > 0 ? 1 : options.threads;
  const auto columns =
      exp::ExperimentRunner(outer_threads).map(ratios.size(), [&](std::size_t r) {
        Column column;
        column.rtt = bench::rtt_for_ratio(p, to, mu, ratios[r]);
        const auto mc_seeds = exp::mc_stream(options.seed, r);
        for (std::size_t t = 0; t < taus.size(); ++t) {
          ComposedParams params =
              bench::homogeneous_setup(p, column.rtt, to, mu);
          params.tau_s = taus[t];
          if (options.model_shards > 0) {
            const DmpModelMonteCarlo mc(params, mc_seeds.at(t));
            const std::uint64_t per_shard = std::max<std::uint64_t>(
                1, options.mc_max / options.model_shards);
            column.f.push_back(
                mc.run_sharded(options.model_shards, per_shard,
                               DmpModelMonteCarlo::kAutoWarmup,
                               options.threads)
                    .late_fraction);
          } else {
            DmpModelMonteCarlo mc(params, mc_seeds.at(t));
            column.f.push_back(
                mc.run(options.mc_max, options.mc_max / 10).late_fraction);
          }
        }
        return column;
      });

  for (std::size_t r = 0; r < ratios.size(); ++r) {
    for (std::size_t t = 0; t < taus.size(); ++t) {
      csv.row({CsvWriter::num(ratios[r]), CsvWriter::num(columns[r].rtt * 1e3),
               CsvWriter::num(taus[t]), CsvWriter::num(columns[r].f[t])});
    }
  }
  for (std::size_t t = 0; t < taus.size(); ++t) {
    std::printf("%6.0f", taus[t]);
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      std::printf(" %11.3g", columns[r].f[t]);
    }
    std::printf("\n");
  }

  std::printf("\nexpected shape (paper): dramatic improvement from 1.2 to "
              "1.4, diminishing beyond\n");
  std::printf("CSV: %s/fig8_diminishing_gain.csv\n",
              bench_output_dir().c_str());
  return 0;
}

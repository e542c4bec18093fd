// Extension (paper Section 3: stored-video streaming "left as future
// work"): live vs stored DMP streaming on identical paths, in both the
// packet simulator and the model.  Stored streaming prefetches without the
// live-source cap, so its late fraction can only be lower.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "param_space.hpp"

using namespace dmp;

int main() {
  const auto options = exp::bench_options();
  bench::banner("Extension: live vs stored DMP streaming");

  CsvWriter csv(bench_output_dir() + "/ext_stored.csv",
                {"source", "tau_s", "f_live", "f_stored"});

  // --- packet simulator: Setting 2-2, live and stored as two settings of
  // one plan (same replication seed, so they see identical backgrounds) ---
  const bench::ValidationSetting setting{"2-2", 2, 2, 50.0, false};
  const double duration = std::min(options.duration_s, 1000.0);
  std::printf("\npacket simulator (Setting 2-2, %.0f s, mu=50):\n", duration);
  std::printf("%6s %14s %14s\n", "tau", "live", "stored");

  exp::ExperimentPlan plan;
  plan.name = "ext_stored";
  plan.seed = options.seed;
  plan.replications = 1;
  const auto live_config = bench::session_for(setting, duration);
  auto stored_config = live_config;
  stored_config.stored = true;
  plan.settings.push_back({"live", live_config});
  plan.settings.push_back({"stored", stored_config});
  // Both schemes on the same path draws: reuse setting 0's seed stream.
  plan.configure = [&plan](SessionConfig& config, std::size_t,
                           std::size_t rep) {
    config.seed = exp::replication_seed(plan.seed, 0, rep);
  };

  std::vector<SessionResult> results(2);
  const auto report = exp::ExperimentRunner(options.threads)
                          .run(plan, [&](std::size_t s, std::size_t,
                                         const exp::ReplicationOutcome& o) {
                            if (!o.ok) {
                              std::printf("%s FAILED: %s\n",
                                          plan.settings[s].name.c_str(),
                                          o.error.c_str());
                              return;
                            }
                            results[s] = o.result;
                          });
  for (double tau : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    const double fl = results[0].trace.late_fraction_playback_order(
        tau, results[0].packets_generated);
    const double fs = results[1].trace.late_fraction_playback_order(
        tau, results[1].packets_generated);
    std::printf("%6.0f %14.6g %14.6g\n", tau, fl, fs);
    csv.row({"sim", CsvWriter::num(tau), CsvWriter::num(fl),
             CsvWriter::num(fs)});
  }

  // --- model: matched sigma_a/mu = 1.3 paths ---
  const double p = 0.02, to = 4.0, mu = 25.0, ratio = 1.3;
  const double rtt = bench::rtt_for_ratio(p, to, mu, ratio);
  ComposedParams params = bench::homogeneous_setup(p, rtt, to, mu);
  const auto video_packets = static_cast<std::int64_t>(mu * 3000);
  const auto mc_seeds = exp::mc_stream(options.seed);
  std::printf("\nmodel (p=%.2f, TO=%.0f, sigma_a/mu=%.1f, 3000-s video):\n",
              p, to, ratio);
  std::printf("%6s %14s %14s\n", "tau", "live", "stored");
  const std::vector<double> model_taus{2.0, 4.0, 8.0, 16.0};
  for (std::size_t i = 0; i < model_taus.size(); ++i) {
    params.tau_s = model_taus[i];
    DmpModelMonteCarlo live_mc(params, mc_seeds.at(2 * i));
    const double fl =
        live_mc.run(options.mc_max, options.mc_max / 10).late_fraction;
    const auto fs = stored_video_late_fraction(params, video_packets, 24,
                                               mc_seeds.at(2 * i + 1));
    std::printf("%6.0f %14.6g %14.6g\n", model_taus[i], fl, fs.late_fraction);
    csv.row({"model", CsvWriter::num(model_taus[i]), CsvWriter::num(fl),
             CsvWriter::num(fs.late_fraction)});
  }
  std::printf("\nreading: at equal tau the stored stream is never later than "
              "the live one; the gap is the value of prefetching.\n");
  const std::string json = report.write_json();
  std::printf("CSV: %s/ext_stored.csv\nreport: %s (%.1f s wall)\n",
              bench_output_dir().c_str(), json.c_str(), report.wall_s);
  return 0;
}

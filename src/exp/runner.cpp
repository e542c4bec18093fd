#include "exp/runner.hpp"

#include <chrono>

namespace dmp::exp {

namespace {

// Default metric set: the quantities nearly every validation bench reports.
std::vector<std::pair<std::string, double>> default_metrics(
    const SessionResult& result) {
  std::vector<std::pair<std::string, double>> m;
  for (double tau : {4.0, 6.0, 8.0, 10.0}) {
    m.emplace_back("late_playback_tau" + std::to_string(static_cast<int>(tau)),
                   result.trace.late_fraction_playback_order(
                       tau, result.packets_generated));
  }
  for (std::size_t k = 0; k < result.paths.size(); ++k) {
    const std::string suffix = ".path" + std::to_string(k);
    m.emplace_back("loss_rate" + suffix, result.paths[k].loss_rate);
    m.emplace_back("rtt_s" + suffix, result.paths[k].rtt_s);
    m.emplace_back("share" + suffix, result.paths[k].share);
  }
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ExperimentReport ExperimentRunner::run(const ExperimentPlan& plan,
                                       Consume consume,
                                       Progress progress) const {
  const std::size_t reps = plan.replications == 0 ? 1 : plan.replications;
  const std::size_t n = plan.settings.size() * reps;

  ExperimentReport report;
  report.experiment = plan.name;
  report.root_seed = plan.seed;
  report.replications = reps;
  report.threads_used = threads();
  report.settings.resize(plan.settings.size());
  for (std::size_t s = 0; s < plan.settings.size(); ++s) {
    report.settings[s].name = plan.settings[s].name;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = 0;

  run_ordered(
      n,
      [&](std::size_t i) {
        const std::size_t s = i / reps;
        const std::size_t r = i % reps;
        SessionConfig config = plan.settings[s].config;
        config.seed = replication_seed(plan.seed, s, r);
        if (plan.configure) plan.configure(config, s, r);

        ReplicationOutcome outcome;
        outcome.seed = config.seed;
        const auto start = std::chrono::steady_clock::now();
        try {
          outcome.result = run_session(config);
          outcome.ok = true;
        } catch (const std::exception& e) {
          outcome.error = e.what();
        } catch (...) {
          outcome.error = "unknown exception";
        }
        outcome.wall_s = seconds_since(start);
        return outcome;
      },
      [&](std::size_t i, ReplicationOutcome outcome) {
        const std::size_t s = i / reps;
        const std::size_t r = i % reps;
        auto& setting = report.settings[s];
        setting.seeds.push_back(outcome.seed);
        setting.failures.push_back(outcome.error);
        setting.wall_s += outcome.wall_s;
        if (outcome.ok) {
          const auto metrics = plan.metrics
                                   ? plan.metrics(outcome.result, s, r)
                                   : default_metrics(outcome.result);
          for (const auto& [name, value] : metrics) {
            setting.add_metric(name, value);
          }
          // Quantile sketches merge here, on the consumer, which runs in
          // strict replication order regardless of DMP_THREADS — so the
          // merged percentiles (and their FP sums) are byte-identical at
          // any worker count.
          if (outcome.result.hub) {
            for (const auto& [name, sketch] :
                 outcome.result.hub->sketches()) {
              setting.merge_sketch(name, sketch);
            }
          }
        }
        if (consume) consume(s, r, outcome);
        ++done;
        if (progress) progress(done, n);
      });

  report.wall_s = seconds_since(t0);
  return report;
}

}  // namespace dmp::exp

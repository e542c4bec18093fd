#include "exp/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "exp/compare/slo.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace dmp::exp {

void SettingSummary::add_metric(const std::string& metric, double value) {
  for (auto& series : metrics) {
    if (series.name == metric) {
      series.samples.push_back(value);
      return;
    }
  }
  metrics.push_back({metric, {value}});
}

const MetricSeries* SettingSummary::find(const std::string& metric) const {
  for (const auto& series : metrics) {
    if (series.name == metric) return &series;
  }
  return nullptr;
}

void SettingSummary::merge_sketch(const std::string& sketch_name,
                                  const obs::QuantileSketch& s) {
  for (auto& merged : sketches) {
    if (merged.name == sketch_name) {
      merged.sketch.merge(s);
      return;
    }
  }
  sketches.push_back(MergedSketch{sketch_name, s});
}

const obs::QuantileSketch* SettingSummary::find_sketch(
    const std::string& sketch_name) const {
  for (const auto& merged : sketches) {
    if (merged.name == sketch_name) return &merged.sketch;
  }
  return nullptr;
}

std::string ExperimentReport::aggregate_json() const {
  std::string out;
  // Appends `prefix` and then `v` at 17 digits, which round-trips every
  // finite double and keeps aggregate_json() comparable byte-for-byte;
  // empty-series +-inf sentinels become null.
  const auto field = [&out](const char* prefix, double v) {
    out += prefix;
    append_json_number(out, v);
  };
  out += "{\"experiment\": ";
  append_json_string(out, experiment);
  out += ", \"root_seed\": " + std::to_string(root_seed);
  out += ", \"replications\": " + std::to_string(replications);
  out += ", \"settings\": [";
  for (std::size_t s = 0; s < settings.size(); ++s) {
    const auto& setting = settings[s];
    if (s) out += ", ";
    out += "{\"name\": ";
    append_json_string(out, setting.name);
    out += ", \"seeds\": [";
    for (std::size_t r = 0; r < setting.seeds.size(); ++r) {
      if (r) out += ", ";
      out += std::to_string(setting.seeds[r]);
    }
    out += "], \"failures\": [";
    bool first = true;
    for (std::size_t r = 0; r < setting.failures.size(); ++r) {
      if (setting.failures[r].empty()) continue;
      if (!first) out += ", ";
      first = false;
      out += "{\"replication\": " + std::to_string(r) + ", \"error\": ";
      append_json_string(out, setting.failures[r]);
      out += "}";
    }
    out += "], \"metrics\": [";
    for (std::size_t m = 0; m < setting.metrics.size(); ++m) {
      const auto& series = setting.metrics[m];
      const auto ci = series.ci();
      if (m) out += ", ";
      out += "{\"name\": ";
      append_json_string(out, series.name);
      field(", \"mean\": ", ci.mean);
      field(", \"ci_half\": ", ci.half_width);
      out += ", \"samples\": [";
      for (std::size_t i = 0; i < series.samples.size(); ++i) {
        field(i ? ", " : "", series.samples[i]);
      }
      out += "]}";
    }
    out += "], \"percentiles\": [";
    for (std::size_t p = 0; p < setting.sketches.size(); ++p) {
      const auto& merged = setting.sketches[p];
      if (p) out += ", ";
      out += "{\"name\": ";
      append_json_string(out, merged.name);
      const auto& sk = merged.sketch;
      out += ", \"count\": " + std::to_string(sk.count());
      if (sk.count() == 0) {
        out += ", \"min\": null, \"p50\": null, \"p95\": null"
               ", \"p99\": null, \"max\": null}";
        continue;
      }
      field(", \"min\": ", sk.min());
      field(", \"p50\": ", sk.quantile(0.50));
      field(", \"p95\": ", sk.quantile(0.95));
      field(", \"p99\": ", sk.quantile(0.99));
      field(", \"max\": ", sk.max());
      out += "}";
    }
    out += "]}";
  }
  out += "], \"divergence\": [";
  for (std::size_t d = 0; d < divergence.size(); ++d) {
    if (d) out += ", ";
    out += divergence[d].to_json();
  }
  out += "]}";
  return out;
}

std::string ExperimentReport::write_json() const {
  const std::string path = bench_output_dir() + "/BENCH_" + experiment + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  std::string timing = "{\"threads\": " + std::to_string(threads_used) +
                       ", \"wall_s\": ";
  append_json_number(timing, wall_s);
  timing += ", \"per_setting_wall_s\": [";
  for (std::size_t s = 0; s < settings.size(); ++s) {
    if (s) timing += ", ";
    append_json_number(timing, settings[s].wall_s);
  }
  timing += "]}";
  out << "{\"timing\": " << timing << ", \"report\": " << aggregate_json()
      << "}\n";
  if (!out) {
    std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
    return "";
  }
  out.close();  // the SLO hook re-reads the file; flush before judging it
  evaluate_slo_env(path);
  return path;
}

void evaluate_slo_env(const std::string& report_path) {
  const char* spec_path = std::getenv("DMP_SLO");
  if (spec_path == nullptr || spec_path[0] == '\0') return;
  try {
    const SloSpec spec = SloSpec::parse_file(spec_path);
    const JsonValue doc = parse_json_file(report_path);
    const SloReport verdict = evaluate_slo(spec, {&doc});
    std::printf("[slo] %s against %s:\n", spec_path, report_path.c_str());
    for (const auto& r : verdict.results) {
      std::printf("[slo]   %s\n", r.message.c_str());
    }
    if (!verdict.ok()) {
      std::fprintf(stderr, "[slo] %zu violation(s); failing the run\n",
                   verdict.violations);
      std::exit(3);
    }
  } catch (const std::exception& e) {
    // A spec that cannot be parsed must not pass silently either.
    std::fprintf(stderr, "[slo] error: %s\n", e.what());
    std::exit(3);
  }
}

}  // namespace dmp::exp

// divergence_report: render a run's model-vs-simulation divergence
// sections as a table, and optionally re-emit them as a standalone JSON
// artifact.
//
//   divergence_report <report.json> [--json=OUT] [--fail-on-divergence]
//
// Accepts any artifact carrying a divergence block: a BENCH_*.json
// experiment report ({"report": {"divergence": [...]}}) or a standalone
// DIVERGENCE_*.json document ({"divergence": [...]}).
//
// Exit status: 0 on success, 1 when --fail-on-divergence is given and any
// point diverged, 2 on unreadable/malformed input or a report with no
// divergence section.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace {

using dmp::JsonValue;

const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

double member_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : 0.0;
}

std::string member_text(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->text : std::string{};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: divergence_report <report.json> [--json=OUT] "
                 "[--fail-on-divergence]\n");
    return 2;
  }
  JsonValue doc;
  try {
    doc = dmp::parse_json_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "divergence_report: %s\n", e.what());
    return 2;
  }
  const JsonValue* divergence = doc.find("divergence");
  if (divergence == nullptr) {
    if (const JsonValue* report = doc.find("report")) {
      divergence = report->find("divergence");
    }
  }
  if (divergence == nullptr || !divergence->is_array()) {
    std::fprintf(stderr,
                 "divergence_report: %s has no divergence section (run the "
                 "figure bench from this revision?)\n",
                 argv[1]);
    return 2;
  }
  if (divergence->array.empty()) {
    std::fprintf(stderr, "divergence_report: %s: divergence section is empty\n",
                 argv[1]);
    return 2;
  }

  std::size_t total_diverged = 0;
  for (const auto& series : divergence->array) {
    std::printf("series %s  (%s vs model, x = %s)\n",
                member_text(series, "name").c_str(),
                member_text(series, "metric").c_str(),
                member_text(series, "x_label").c_str());
    std::printf("%-10s %10s %14s %14s %12s %12s  %s\n", "setting", "x",
                "predicted", "measured", "ci_half", "residual", "ok");
    if (const JsonValue* points = series.find("points")) {
      for (const auto& p : points->array) {
        const JsonValue* ok = p.find("ok");
        std::printf("%-10s %10.4g %14.6g %14.6g %12.4g %12.4g  %s\n",
                    member_text(p, "setting").c_str(), member_number(p, "x"),
                    member_number(p, "predicted"), member_number(p, "measured"),
                    member_number(p, "ci_half"), member_number(p, "residual"),
                    (ok != nullptr && ok->boolean) ? "yes" : "NO");
      }
    }
    if (const JsonValue* stats = series.find("stats")) {
      const auto diverged =
          static_cast<std::size_t>(member_number(*stats, "diverged"));
      total_diverged += diverged;
      std::printf("  stats: n=%g diverged=%zu mean=%.6g rms=%.6g max|r|=%.6g "
                  "worst=%s@%g\n\n",
                  member_number(*stats, "count"), diverged,
                  member_number(*stats, "mean_residual"),
                  member_number(*stats, "rms_residual"),
                  member_number(*stats, "max_abs_residual"),
                  member_text(*stats, "worst_setting").c_str(),
                  member_number(*stats, "worst_x"));
    }
  }

  if (const char* out_path = flag_value(argc, argv, "--json")) {
    std::ofstream out(out_path);
    JsonValue standalone;
    standalone.kind = JsonValue::Kind::kObject;
    standalone.object.emplace_back("divergence", *divergence);
    if (!out || !(out << standalone.to_json() << "\n")) {
      std::fprintf(stderr, "divergence_report: cannot write %s\n", out_path);
      return 2;
    }
    std::printf("wrote %s\n", out_path);
  }
  if (total_diverged > 0) {
    std::printf("%zu diverged point(s)\n", total_diverged);
    if (has_flag(argc, argv, "--fail-on-divergence")) return 1;
  }
  return 0;
}

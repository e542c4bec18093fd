// run_diff: structural comparison of two run/experiment artifacts.
//
//   run_diff <left> <right> [--abs-tol=X] [--rel-tol=X] [--ignore=PATH,...]
//            [--max-print=N] [--quiet]
//
// Inputs are JSON reports (BENCH_*.json, obs *_report.json,
// DIVERGENCE_*.json) or CSV tables (fig CSVs, telemetry series) — the
// format is sniffed from the first non-space byte, so a thread-invariance
// gate is one line:
//
//   run_diff t1/BENCH_fig4.json t8/BENCH_fig4.json --ignore=timing
//
// Every field is classified identical / within-tolerance / diverged /
// only-left / only-right / type-mismatch.  Byte-identical inputs report
// zero diffs.  --ignore drops dotted path prefixes (default tolerance is
// zero: any numeric difference diverges unless --abs-tol/--rel-tol allow
// it).
//
// Exit status: 0 clean (identical or within tolerance), 1 diverged,
// 2 unreadable/malformed input, an unknown or malformed flag or bad usage.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/compare/report_diff.hpp"
#include "flags.hpp"

namespace {

using dmp::exp::DiffClass;
using dmp::exp::DiffOptions;
using dmp::exp::DiffResult;
using dmp::JsonValue;

void usage() {
  std::fprintf(stderr,
               "usage: run_diff <left> <right> [--abs-tol=X] [--rel-tol=X]\n"
               "                [--ignore=PATH,...] [--max-print=N] [--quiet]\n"
               "  inputs: JSON reports or CSV tables (format sniffed)\n"
               "  exit:   0 clean, 1 diverged, 2 bad input\n");
}

// JSON document or CSV table, decided by the first non-space byte.
JsonValue load_artifact(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error{"cannot open " + path};
  char c = '\0';
  while (probe.get(c) && (c == ' ' || c == '\t' || c == '\n' || c == '\r')) {
  }
  if (!probe) throw std::runtime_error{path + " is empty"};
  if (c == '{' || c == '[') return dmp::parse_json_file(path);
  return dmp::exp::csv_file_to_json(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 2;
  }
  const dmp::tools::Flags flags(
      argc, argv, 3,
      {"--abs-tol=", "--rel-tol=", "--ignore=", "--max-print=", "--quiet"});
  DiffOptions options;
  options.abs_tol = flags.number("--abs-tol", options.abs_tol);
  options.rel_tol = flags.number("--rel-tol", options.rel_tol);
  if (const char* v = flags.text("--ignore")) {
    std::string prefix;
    for (const char* p = v;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!prefix.empty()) options.ignore.push_back(prefix);
        prefix.clear();
        if (*p == '\0') break;
      } else {
        prefix += *p;
      }
    }
  }
  const std::int64_t max_print = flags.integer("--max-print", 40);
  const bool quiet = flags.has("--quiet");

  JsonValue left, right;
  try {
    left = load_artifact(argv[1]);
    right = load_artifact(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_diff: error: %s\n", e.what());
    return 2;
  }

  const DiffResult result = dmp::exp::diff_reports(left, right, options);

  if (!quiet) {
    std::int64_t printed = 0;
    for (const auto& d : result.diffs) {
      if (printed++ >= max_print) {
        std::printf("... (%zu entries total; raise --max-print)\n",
                    result.diffs.size());
        break;
      }
      std::printf("%-13s %s: %s -> %s", diff_class_name(d.cls).data(),
                  d.path.c_str(), d.left.empty() ? "-" : d.left.c_str(),
                  d.right.empty() ? "-" : d.right.c_str());
      if (d.cls == DiffClass::kDiverged ||
          d.cls == DiffClass::kWithinTolerance) {
        std::printf("  (|delta| %.6g)", d.abs_delta);
      }
      std::printf("\n");
    }
  }
  std::printf("%zu field(s) compared: %zu identical, %zu within tolerance, "
              "%zu diverged\n",
              result.fields_compared, result.identical,
              result.within_tolerance, result.diverged());
  if (result.clean()) {
    std::printf("CLEAN: %s == %s%s\n", argv[1], argv[2],
                result.within_tolerance > 0 ? " (within tolerance)" : "");
    return 0;
  }
  std::printf("DIVERGED: %s != %s\n", argv[1], argv[2]);
  return 1;
}

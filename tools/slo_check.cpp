// slo_check: evaluate a declarative SLO spec against report artifacts.
//
//   slo_check <spec.slo> <report.json> [more-reports.json...]
//
// Each rule's dotted path is resolved against the given documents in
// order; the first document containing the field is judged.  A field
// found in no document is a violation, and a spec with no rules is an
// error: a gate must not silently pass by pointing at nothing.  This is
// the one SLO gate — benches write their reports, CI judges them here,
// one checked-in spec against several artifacts at once.
//
// Exit status: 0 all rules pass, 1 violations, 2 unreadable/malformed or
// empty spec, or an unreadable/malformed report.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/compare/slo.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: slo_check <spec.slo> <report.json> [more...]\n");
    return 2;
  }
  dmp::exp::SloSpec spec;
  try {
    spec = dmp::exp::SloSpec::parse_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slo_check: %s\n", e.what());
    return 2;
  }
  if (spec.empty()) {
    std::fprintf(stderr, "slo_check: %s has no rules\n", argv[1]);
    return 2;
  }
  std::vector<dmp::JsonValue> docs;
  docs.reserve(static_cast<std::size_t>(argc - 2));
  for (int i = 2; i < argc; ++i) {
    try {
      docs.push_back(dmp::parse_json_file(argv[i]));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "slo_check: %s\n", e.what());
      return 2;
    }
  }
  std::vector<const dmp::JsonValue*> doc_ptrs;
  doc_ptrs.reserve(docs.size());
  for (const auto& d : docs) doc_ptrs.push_back(&d);

  const auto report = dmp::exp::evaluate_slo(spec, doc_ptrs);
  std::printf("%s: %zu rule(s) against %zu document(s)\n", argv[1],
              spec.rules.size(), docs.size());
  for (const auto& r : report.results) {
    std::printf("  %s\n", r.message.c_str());
  }
  if (report.ok()) {
    std::printf("SLO OK\n");
    return 0;
  }
  std::fprintf(stderr, "SLO FAIL: %zu violation(s)\n", report.violations);
  return 1;
}

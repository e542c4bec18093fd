// Deterministic tests of the benchmark's statistics (stats.hpp): a fake
// clock drives every time, so the checks are exact and carry no timing
// threshold.  Run: .bench_build/perfbench/perfbench_stats_test (exit 0 =
// pass; each failed check prints its line).
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define CHECK(expr) check((expr), #expr, __LINE__)

template <class Fn>
bool throws(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

// A clock that returns the next scripted reading on every call.
struct FakeClock {
  std::vector<double> readings;
  std::size_t next = 0;
  double operator()() { return readings.at(next++); }
};

void test_percentile_nearest_rank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(perfbench::percentile(v, 50.0) == 50.0);
  CHECK(perfbench::percentile(v, 90.0) == 90.0);
  CHECK(perfbench::percentile(v, 100.0) == 100.0);
  CHECK(perfbench::percentile({7.0}, 90.0) == 7.0);
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({1.0, 2.0, 3.0, 4.0}) == 2.0);
  CHECK(throws([] { perfbench::percentile({}, 50.0); }));
  CHECK(throws([] { perfbench::percentile({1.0}, 0.0); }));
}

void test_mean() {
  CHECK(perfbench::mean({1.0, 2.0, 6.0}) == 3.0);
  CHECK(perfbench::mean({4.0}) == 4.0);
  CHECK(throws([] { perfbench::mean({}); }));
}

void test_reference_seconds() {
  // A host running the slice at twice the reference time ran the work
  // twice as slowly: 3 s there is 1.5 reference seconds.
  const double slow = 2.0 * perfbench::kReferenceSliceS;
  CHECK(perfbench::reference_s(3.0, slow) == 1.5);
  CHECK(perfbench::reference_s(3.0, perfbench::kReferenceSliceS) == 3.0);
  CHECK(perfbench::reference_s(0.0, slow) == 0.0);
  CHECK(throws([] { perfbench::reference_s(1.0, 0.0); }));
}

void test_percentile_support_rule() {
  // p90 needs ten samples beyond it: 100 samples is the smallest count.
  CHECK(perfbench::samples_beyond(100, 90.0) == 10);
  CHECK(perfbench::percentile_supported(100, 90.0));
  CHECK(!perfbench::percentile_supported(99, 90.0));
  CHECK(perfbench::samples_beyond(99, 90.0) == 9);
  CHECK(perfbench::percentile_supported(20, 50.0));
  CHECK(!perfbench::percentile_supported(19, 50.0));
  CHECK(perfbench::samples_beyond(0, 90.0) == 0);
}

void test_failed_fraction_base() {
  CHECK(perfbench::failed_fraction(0, 96) == 0.0);
  CHECK(perfbench::failed_fraction(3, 12) == 0.25);
  CHECK(perfbench::failed_fraction(5, 5) == 1.0);
  CHECK(throws([] { perfbench::failed_fraction(0, 0); }));
  CHECK(throws([] { perfbench::failed_fraction(4, 3); }));
}

void test_rates_divide_by_wall_time() {
  // Four workers each doing 1e6 items in the same 2 s of wall time: the
  // rate is 2e6/s of wall, whatever the calling thread's CPU time was.
  CHECK(perfbench::rate_per_wall_s(4e6, 2.0) == 2e6);
  CHECK(perfbench::rate_per_wall_s(1.0, 0.0) == 0.0);
}

void test_runner_stats() {
  // Two workers, batch [0, 10]: items [0,4], [0,6], [4,10].
  const std::vector<perfbench::ItemTiming> items{
      {0.0, 4.0}, {0.0, 6.0}, {4.0, 10.0}};
  const auto s = perfbench::runner_stats(items, 2, 0.0, 10.0);
  CHECK(s.makespan_s == 10.0);
  CHECK(s.busy_fraction == 16.0 / 20.0);
  CHECK(s.tail_idle_s == 6.0);
  // A calibration slice before an item keeps its worker busy too.
  const std::vector<perfbench::ItemTiming> sliced{{1.0, 4.0, 1.0}};
  CHECK(perfbench::runner_stats(sliced, 1, 0.0, 4.0).busy_fraction == 1.0);
  const auto empty = perfbench::runner_stats({}, 2, 0.0, 1.0);
  CHECK(empty.busy_fraction == 0.0);
}

void test_budget_closure_arithmetic() {
  const std::vector<perfbench::BudgetLine> lines{
      {"sched", 50.0, 2e6},    // 0.1 s
      {"link", 100.0, 1e6},    // 0.1 s
      {"tcp.ack", 200.0, 5e5}  // 0.1 s
  };
  CHECK(perfbench::budget_predicted_s(lines) > 0.3 - 1e-12);
  CHECK(perfbench::budget_predicted_s(lines) < 0.3 + 1e-12);
  const double closure = perfbench::budget_closure(lines, 0.4);
  CHECK(closure > 0.75 - 1e-12 && closure < 0.75 + 1e-12);
  CHECK(perfbench::budget_closure(lines, 0.0) == 0.0);
  CHECK(perfbench::budget_closure({}, 1.0) == 0.0);
}

void test_span_self_time() {
  // run [0,10] > session [1,7] > analysis [5,7]; probe [7,9].
  FakeClock clock{{0.0, 1.0, 5.0, 7.0, 7.0, 7.0, 9.0, 10.0}};
  perfbench::SpanLog log([&clock] { return clock(); });
  const auto run = log.begin("run");
  const auto session = log.begin("session", run);
  const auto analysis = log.begin("analysis", session);
  log.end(analysis);
  log.end(session);
  {
    perfbench::ScopedSpan probe(log, "probe", run);
  }
  log.end(run);
  CHECK(log.self_time_s("analysis") == 2.0);
  CHECK(log.self_time_s("session") == 4.0);
  CHECK(log.self_time_s("probe") == 2.0);
  CHECK(log.self_time_s("run") == 2.0);
  CHECK(log.self_time_s("model") == 0.0);
}

void test_open_spans_are_ignored() {
  FakeClock clock{{0.0, 1.0, 3.0}};
  perfbench::SpanLog log([&clock] { return clock(); });
  const auto a = log.begin("a");
  log.begin("b", a);  // never closed
  log.end(a);
  CHECK(log.self_time_s("a") == 3.0);
  CHECK(log.self_time_s("b") == 0.0);
}

}  // namespace

int main() {
  test_percentile_nearest_rank();
  test_mean();
  test_reference_seconds();
  test_percentile_support_rule();
  test_failed_fraction_base();
  test_rates_divide_by_wall_time();
  test_runner_stats();
  test_budget_closure_arithmetic();
  test_span_self_time();
  test_open_spans_are_ignored();
  if (failures == 0) std::printf("perfbench stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

// Comparison layer: the JSON codec (src/util/json) with a round trip of
// every artifact emitter through it, structural report diff, and the
// declarative SLO engine (src/exp/compare/).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/compare/json.hpp"
#include "exp/compare/report_diff.hpp"
#include "exp/compare/slo.hpp"
#include "exp/report.hpp"
#include "obs/divergence/divergence.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry/sketch.hpp"
#include "obs/telemetry/time_series.hpp"
#include "obs/telemetry/timeline.hpp"
#include "obs/trace_analyzer.hpp"

namespace {

using dmp::exp::DiffClass;
using dmp::exp::DiffOptions;
using dmp::JsonValue;
using dmp::exp::SloOp;
using dmp::exp::SloSpec;

const char* kReport = R"({
  "experiment": "fig4",
  "timing": {"wall_s": 1.25, "threads": 8},
  "settings": [
    {"name": "1-1", "metrics": [
      {"name": "f_tau4", "mean": 0.0125, "ci_half": 0.002}
    ]},
    {"name": "2-2", "metrics": [
      {"name": "f_tau4", "mean": 0.05, "ci_half": 0.01}
    ]}
  ],
  "divergence": [
    {"name": "fig4", "stats": {"count": 9, "diverged": 0}}
  ]
})";

// --- JSON parsing ---

TEST(JsonParse, RoundTripsAndPreservesNumberSpelling) {
  const JsonValue doc = dmp::parse_json(kReport);
  ASSERT_TRUE(doc.is_object());
  const JsonValue* wall = doc.find("timing")->find("wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->number, 1.25);
  EXPECT_EQ(wall->text, "1.25");  // source bytes, not re-rendered

  // Re-serializing and re-parsing is a fixed point.
  const std::string once = doc.to_json();
  EXPECT_EQ(dmp::parse_json(once).to_json(), once);
}

TEST(JsonParse, ScalarsAndEscapes) {
  const JsonValue doc =
      dmp::parse_json(R"({"s": "a\"b\n", "t": true, "f": false,
                              "z": null, "n": -1.5e3})");
  EXPECT_EQ(doc.find("s")->text, "a\"b\n");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_FALSE(doc.find("f")->boolean);
  EXPECT_TRUE(doc.find("z")->is_null());
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -1500.0);
}

TEST(JsonParse, ThrowsOnMalformedAndTrailingGarbage) {
  EXPECT_THROW(dmp::parse_json("{"), std::runtime_error);
  EXPECT_THROW(dmp::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(dmp::parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(dmp::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(dmp::parse_json(""), std::runtime_error);
}

TEST(JsonParse, FileErrorsThrow) {
  EXPECT_THROW(dmp::parse_json_file("no/such/file.json"),
               std::runtime_error);
  const std::string path = "compare_test_empty.json";
  std::ofstream(path).close();
  EXPECT_THROW(dmp::parse_json_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(JsonParse, ResolvePathKeysIndicesAndNames) {
  const JsonValue doc = dmp::parse_json(kReport);
  const JsonValue* by_key = dmp::exp::resolve_path(doc, "timing.threads");
  ASSERT_NE(by_key, nullptr);
  EXPECT_DOUBLE_EQ(by_key->number, 8.0);

  // All-digit segment = array index; other segments match "name" members.
  const JsonValue* by_index =
      dmp::exp::resolve_path(doc, "settings.1.metrics.f_tau4.mean");
  ASSERT_NE(by_index, nullptr);
  EXPECT_DOUBLE_EQ(by_index->number, 0.05);
  const JsonValue* by_name =
      dmp::exp::resolve_path(doc, "settings.2-2.metrics.f_tau4.mean");
  ASSERT_NE(by_name, nullptr);
  EXPECT_DOUBLE_EQ(by_name->number, 0.05);
  EXPECT_NE(dmp::exp::resolve_path(doc, "divergence.fig4.stats.diverged"),
            nullptr);

  EXPECT_EQ(dmp::exp::resolve_path(doc, "settings.9-9.metrics"), nullptr);
  EXPECT_EQ(dmp::exp::resolve_path(doc, "timing.threads.deeper"), nullptr);
  EXPECT_EQ(dmp::exp::resolve_path(doc, "settings.7"), nullptr);
}

TEST(JsonParse, CsvAdapter) {
  std::istringstream in("setting,tau_s,model\n1-1,4,0.0125\nx y,6,n/a\n");
  const JsonValue table = dmp::exp::csv_to_json(in);
  const JsonValue* columns = table.find("columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(columns->array.size(), 3u);
  const JsonValue* rows = table.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_TRUE(rows->array[0].find("tau_s")->is_number());
  EXPECT_EQ(rows->array[0].find("tau_s")->text, "4");
  EXPECT_EQ(rows->array[1].find("model")->text, "n/a");  // stays a string

  std::istringstream bad("a,b\n1\n");
  EXPECT_THROW(dmp::exp::csv_to_json(bad), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(dmp::exp::csv_to_json(empty), std::runtime_error);
}

// --- every emitter round-trips through the one parser ---

// Bytes every emitter's strings must survive: quote, backslash, tab, CR
// and a bare control byte.
const std::string kTricky = std::string("q\"b\\s\tt\rr") + '\x01' + "end";
const double kThird = 1.0 / 3.0;
// Ascending, so an exact-mode sketch serializes them in this order.
const std::vector<double> kSamples = {-2.5, 1e-300, 0.1, kThird,
                                      6.02214076e23};

// 17-digit spellings must reload bit-for-bit, not merely close.
void expect_bit_equal(double expected, const JsonValue* v) {
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_number());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v->number),
            std::bit_cast<std::uint64_t>(expected))
      << v->text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double sum_of_samples() {
  double sum = 0.0;
  for (double v : kSamples) sum += v;
  return sum;
}

struct Emitter {
  const char* name;
  bool jsonl;  // one document per line
  std::function<std::string()> emit;
  std::function<void(const std::vector<JsonValue>&)> check;
};

void PrintTo(const Emitter& emitter, std::ostream* os) { *os << emitter.name; }

std::vector<Emitter> emitters() {
  using dmp::SimTime;
  using dmp::obs::EventField;
  using dmp::obs::FlightEvent;
  using dmp::obs::FlightEventKind;
  using dmp::obs::QuantileSketch;
  return {
      {"RunReport", false,
       [] {
         dmp::obs::RunReport report;
         report.set_text("note", kTricky);
         report.set_text(kTricky, "key");
         report.set_scalar("third", kThird);
         report.set_series("s", {1.5, INFINITY});
         return report.to_json(nullptr);
       },
       [](const std::vector<JsonValue>& docs) {
         const JsonValue* meta = docs[0].find("meta");
         ASSERT_NE(meta, nullptr);
         EXPECT_EQ(meta->find("note")->text, kTricky);
         ASSERT_NE(meta->find(kTricky), nullptr);
         EXPECT_EQ(meta->find(kTricky)->text, "key");
         EXPECT_EQ(meta->find("third")->text, "0.333333333333");
         EXPECT_TRUE(docs[0].find("series")->find("s")->array[1].is_null());
       }},
      {"EventLog", true,
       [] {
         dmp::obs::EventLog log;
         log.record(1.5, dmp::obs::Severity::kWarn, kTricky,
                    {EventField::num(kTricky, kThird),
                     EventField::text("note", kTricky),
                     EventField::num("v", static_cast<double>(NAN))});
         std::ostringstream out;
         log.to_jsonl(out);
         return out.str();
       },
       [](const std::vector<JsonValue>& docs) {
         ASSERT_EQ(docs.size(), 1u);
         EXPECT_EQ(docs[0].find("type")->text, kTricky);
         ASSERT_NE(docs[0].find(kTricky), nullptr);
         EXPECT_EQ(docs[0].find(kTricky)->text, "0.333333333333");
         EXPECT_EQ(docs[0].find("note")->text, kTricky);
         EXPECT_TRUE(docs[0].find("v")->is_null());
       }},
      {"FlightRecorder", true,
       [] {
         dmp::obs::FlightRecorder recorder;
         recorder.set_meta(kThird, (std::int64_t{1} << 53) + 1, 1);
         FlightEvent send;
         send.t_ns = (std::int64_t{1} << 53) + 3;
         send.kind = FlightEventKind::kTcpSend;
         send.packet = 0;
         send.path = 1;
         send.seq = 0;
         send.attempt = 1;
         send.cwnd = kThird;
         send.ssthresh = INFINITY;
         recorder.record(send);
         std::ostringstream out;
         recorder.to_jsonl(out);
         return out.str();
       },
       [](const std::vector<JsonValue>& docs) {
         ASSERT_EQ(docs.size(), 2u);
         EXPECT_EQ(docs[0].find("mu_pps")->text, "0.333333333333");
         EXPECT_EQ(docs[0].find("epoch_ns")->as_int64(),
                   (std::int64_t{1} << 53) + 1);
         EXPECT_EQ(docs[1].find("t_ns")->as_int64(),
                   (std::int64_t{1} << 53) + 3);
         EXPECT_EQ(docs[1].find("cwnd")->text, "0.333333333333");
         EXPECT_TRUE(docs[1].find("ssthresh")->is_null());
       }},
      {"TimeSeries", true,
       [] {
         dmp::obs::TimeSeries series(1.0);
         series.channel(kTricky)->add(SimTime::seconds(0.5), kThird);
         const std::string path =
             ::testing::TempDir() + "json_round_trip_series.jsonl";
         EXPECT_TRUE(series.write_jsonl(path));
         return slurp(path);
       },
       [](const std::vector<JsonValue>& docs) {
         ASSERT_EQ(docs.size(), 1u);
         EXPECT_EQ(docs[0].find("channel")->text, kTricky);
         EXPECT_EQ(docs[0].find("mean")->text, "0.333333333333");
       }},
      {"SketchExact", false,
       [] {
         QuantileSketch sketch;
         for (double v : kSamples) sketch.add(v);
         return sketch.to_json();
       },
       [](const std::vector<JsonValue>& docs) {
         const JsonValue* exact = docs[0].find("exact");
         ASSERT_NE(exact, nullptr);
         ASSERT_EQ(exact->array.size(), kSamples.size());
         for (std::size_t i = 0; i < kSamples.size(); ++i) {
           expect_bit_equal(kSamples[i], &exact->array[i]);
         }
         expect_bit_equal(sum_of_samples(), docs[0].find("sum"));
       }},
      {"SketchBuckets", false,
       [] {
         QuantileSketch sketch(QuantileSketch::kDefaultAlpha, 2);
         for (double v : kSamples) sketch.add(v);
         return sketch.to_json();
       },
       [](const std::vector<JsonValue>& docs) {
         EXPECT_EQ(docs[0].find("exact"), nullptr);
         expect_bit_equal(QuantileSketch::kDefaultAlpha,
                          docs[0].find("alpha"));
         expect_bit_equal(sum_of_samples(), docs[0].find("sum"));
         expect_bit_equal(kSamples.front(), docs[0].find("min"));
         expect_bit_equal(kSamples.back(), docs[0].find("max"));
         EXPECT_EQ(QuantileSketch::from_json(docs[0]).count(),
                   kSamples.size());
       }},
      {"DivergenceSeries", false,
       [] {
         dmp::obs::DivergenceSeries series;
         series.name = kTricky;
         series.metric = kTricky;
         series.x_label = "tau_s";
         series.add(kTricky, kThird, 0.1, 0.2, 0.01);
         return series.to_json();
       },
       [](const std::vector<JsonValue>& docs) {
         EXPECT_EQ(docs[0].find("name")->text, kTricky);
         EXPECT_EQ(docs[0].find("metric")->text, kTricky);
         const JsonValue& point = docs[0].find("points")->array.at(0);
         EXPECT_EQ(point.find("setting")->text, kTricky);
         expect_bit_equal(kThird, point.find("x"));
         expect_bit_equal(0.1, point.find("predicted"));
         expect_bit_equal(0.2 - 0.1, point.find("residual"));
         EXPECT_EQ(docs[0].find("stats")->find("worst_setting")->text,
                   kTricky);
       }},
      {"ExperimentReport", false,
       [] {
         dmp::exp::ExperimentReport report;
         report.experiment = kTricky;
         dmp::exp::SettingSummary setting;
         setting.name = kTricky;
         setting.seeds = {1};
         setting.failures = {kTricky};
         setting.add_metric(kTricky, kThird);
         report.settings.push_back(setting);
         return report.aggregate_json();
       },
       [](const std::vector<JsonValue>& docs) {
         EXPECT_EQ(docs[0].find("experiment")->text, kTricky);
         const JsonValue& setting = docs[0].find("settings")->array.at(0);
         EXPECT_EQ(setting.find("name")->text, kTricky);
         EXPECT_EQ(setting.find("failures")->array.at(0).find("error")->text,
                   kTricky);
         const JsonValue& metric = setting.find("metrics")->array.at(0);
         EXPECT_EQ(metric.find("name")->text, kTricky);
         expect_bit_equal(kThird, &metric.find("samples")->array.at(0));
       }},
      {"ChromeTrace", false,
       [] {
         dmp::obs::TimeSeries series(1.0);
         series.channel(kTricky)->add(SimTime::seconds(0.5), 2.0);
         const std::string csv =
             ::testing::TempDir() + "json_round_trip_telemetry.csv";
         EXPECT_TRUE(series.write_csv(csv));
         dmp::obs::FlightRecorder recorder;
         recorder.set_meta(50.0, 0, 1);
         FlightEvent e;
         e.packet = 0;
         e.path = 0;
         e.t_ns = 1000;
         e.kind = FlightEventKind::kGenerate;
         recorder.record(e);
         e.t_ns = 5000;
         e.kind = FlightEventKind::kArrive;
         recorder.record(e);
         dmp::obs::TimelineOptions options;
         options.telemetry_csv = csv;
         return dmp::obs::chrome_trace_json(dmp::obs::TraceAnalyzer(recorder),
                                            options);
       },
       [](const std::vector<JsonValue>& docs) {
         const auto& events = docs[0].find("traceEvents")->array;
         const auto counter =
             std::find_if(events.begin(), events.end(), [](const auto& ev) {
               return ev.find("ph")->text == "C";
             });
         ASSERT_NE(counter, events.end());
         EXPECT_EQ(counter->find("name")->text, kTricky);
       }},
  };
}

class JsonRoundTrip : public ::testing::TestWithParam<Emitter> {};

TEST_P(JsonRoundTrip, ParsesAndPreservesStringsAndNumbers) {
  const Emitter& emitter = GetParam();
  const std::string text = emitter.emit();
  // Every control byte is escaped; raw '\n' only separates lines/sections.
  const auto raw = std::find_if(text.begin(), text.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20 && c != '\n';
  });
  EXPECT_EQ(raw, text.end()) << "raw control byte at offset "
                             << (raw - text.begin());
  std::vector<JsonValue> docs;
  if (emitter.jsonl) {
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) docs.push_back(dmp::parse_json(line));
    }
  } else {
    docs.push_back(dmp::parse_json(text));
  }
  ASSERT_FALSE(docs.empty());
  emitter.check(docs);
}

INSTANTIATE_TEST_SUITE_P(
    Emitters, JsonRoundTrip, ::testing::ValuesIn(emitters()),
    [](const ::testing::TestParamInfo<Emitter>& param) {
      return std::string(param.param.name);
    });

// --- structural diff ---

TEST(ReportDiff, IdenticalDocumentsProduceZeroDiffs) {
  const JsonValue left = dmp::parse_json(kReport);
  const JsonValue right = dmp::parse_json(kReport);
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.diffs.size(), 0u);
  EXPECT_EQ(result.diverged(), 0u);
  EXPECT_GT(result.fields_compared, 0u);
  EXPECT_EQ(result.identical, result.fields_compared);
}

TEST(ReportDiff, NumericDivergenceAndTolerance) {
  const JsonValue left = dmp::parse_json(R"({"a": 1.0, "b": 2.0})");
  const JsonValue right = dmp::parse_json(R"({"a": 1.0, "b": 2.5})");
  const auto strict = dmp::exp::diff_reports(left, right);
  EXPECT_FALSE(strict.clean());
  ASSERT_EQ(strict.diffs.size(), 1u);
  EXPECT_EQ(strict.diffs[0].path, "b");
  EXPECT_EQ(strict.diffs[0].cls, DiffClass::kDiverged);
  EXPECT_DOUBLE_EQ(strict.diffs[0].abs_delta, 0.5);

  DiffOptions tolerant;
  tolerant.abs_tol = 0.5;
  const auto result = dmp::exp::diff_reports(left, right, tolerant);
  EXPECT_TRUE(result.clean());  // within tolerance does not break cleanliness
  EXPECT_EQ(result.within_tolerance, 1u);
}

TEST(ReportDiff, SameValueDifferentSpellingIsIdentical) {
  // 2.0 vs 2.00 — equal doubles, different bytes.
  const JsonValue left = dmp::parse_json(R"({"a": 2.0})");
  const JsonValue right = dmp::parse_json(R"({"a": 2.00})");
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.identical, 1u);
}

TEST(ReportDiff, StructuralClasses) {
  const JsonValue left =
      dmp::parse_json(R"({"only_l": 1, "both": 2, "kind": 3})");
  const JsonValue right =
      dmp::parse_json(R"({"both": 2, "kind": "3", "only_r": 4})");
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_FALSE(result.clean());
  std::size_t only_left = 0, only_right = 0, mismatch = 0;
  for (const auto& d : result.diffs) {
    only_left += d.cls == DiffClass::kOnlyLeft;
    only_right += d.cls == DiffClass::kOnlyRight;
    mismatch += d.cls == DiffClass::kTypeMismatch;
  }
  EXPECT_EQ(only_left, 1u);
  EXPECT_EQ(only_right, 1u);
  EXPECT_EQ(mismatch, 1u);
}

TEST(ReportDiff, IgnorePrefixAndNamedArrayPaths) {
  const JsonValue left = dmp::parse_json(kReport);
  JsonValue right = dmp::parse_json(kReport);
  // Perturb timing (to be ignored) and one named setting's metric.
  right.object[1].second.object[0].second.number = 9.0;
  right.object[1].second.object[0].second.text = "9.0";
  JsonValue& mean = right.object[2]
                        .second.array[1]  // settings[1] = "2-2"
                        .object[1]
                        .second.array[0]  // metrics[0] = f_tau4
                        .object[1]
                        .second;  // mean
  mean.number = 0.06;
  mean.text = "0.06";

  DiffOptions options;
  options.ignore = {"timing"};
  const auto result = dmp::exp::diff_reports(left, right, options);
  ASSERT_EQ(result.diffs.size(), 1u);
  EXPECT_EQ(result.diffs[0].path, "settings.2-2.metrics.f_tau4.mean");
  EXPECT_EQ(result.diffs[0].cls, DiffClass::kDiverged);
}

// --- SLO engine ---

TEST(Slo, ParsesRulesCommentsAndBlanks) {
  const SloSpec spec = SloSpec::parse(
      "# gate\n"
      "\n"
      "report.experiment == 'fig4'\n"
      "timing.threads >= 1\n"
      "divergence.fig4.stats.diverged == 0\n"
      "flag != true\n");
  ASSERT_EQ(spec.rules.size(), 4u);
  EXPECT_EQ(spec.rules[0].op, SloOp::kEq);
  EXPECT_EQ(spec.rules[0].value_kind, dmp::exp::SloRule::ValueKind::kString);
  EXPECT_EQ(spec.rules[0].text, "fig4");
  EXPECT_EQ(spec.rules[1].op, SloOp::kGe);
  EXPECT_EQ(spec.rules[3].value_kind, dmp::exp::SloRule::ValueKind::kBool);
  EXPECT_EQ(spec.rules[0].line, 3);
}

TEST(Slo, ParseOrThrow) {
  EXPECT_THROW(SloSpec::parse("a.b ~= 3\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b <\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b < notanumber\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("< 3\n"), std::invalid_argument);
  // Ordering comparisons only make sense for numbers.
  EXPECT_THROW(SloSpec::parse("a.b < 'str'\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b >= true\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse_file("no/such/spec.slo"),
               std::invalid_argument);
  // The offending line number is named.
  try {
    SloSpec::parse("ok == 1\nbroken ~ 2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(Slo, EvaluatesAgainstDocumentsInOrder) {
  const JsonValue report = dmp::parse_json(kReport);
  const JsonValue extra =
      dmp::parse_json(R"({"bonus": {"value": 41}})");
  const SloSpec spec = SloSpec::parse(
      "experiment == 'fig4'\n"
      "timing.wall_s < 100\n"
      "settings.2-2.metrics.f_tau4.mean <= 0.05\n"
      "divergence.fig4.stats.diverged == 0\n"
      "bonus.value > 40\n");  // only in the second document
  const auto result = dmp::exp::evaluate_slo(spec, {&report, &extra});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.results.size(), 5u);
  for (const auto& r : result.results) EXPECT_TRUE(r.passed) << r.message;
}

TEST(Slo, ViolationsAndMissingFields) {
  const JsonValue report = dmp::parse_json(kReport);
  const SloSpec spec = SloSpec::parse(
      "timing.threads == 9\n"       // wrong value
      "experiment == 'fig9'\n"      // wrong string
      "no.such.field < 1\n");       // missing = violation, not skip
  const auto result = dmp::exp::evaluate_slo(spec, {&report});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.violations, 3u);
  EXPECT_EQ(result.results[2].actual, "<missing>");
}

TEST(Slo, EmptySpecPassesTrivially) {
  const JsonValue report = dmp::parse_json(kReport);
  const SloSpec spec = SloSpec::parse("# nothing but comments\n\n");
  EXPECT_TRUE(spec.empty());
  EXPECT_TRUE(dmp::exp::evaluate_slo(spec, {&report}).ok());
}

}  // namespace

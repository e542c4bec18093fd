// Chrome trace-event (Perfetto) timeline export: schema validity of the
// emitted JSON, span/instant/counter structure, the per-packet span cap,
// and byte-level determinism.  The JSON is checked with a small
// recursive-descent parser so a malformed document fails loudly instead of
// "loading" by substring luck.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/background.hpp"
#include "obs/telemetry/timeline.hpp"
#include "obs/trace_analyzer.hpp"
#include "stream/session.hpp"

namespace {

using dmp::obs::chrome_trace_json;
using dmp::obs::TimelineOptions;
using dmp::obs::TraceAnalyzer;

// --- minimal strict JSON parser (only what the exporter emits) ----------

struct JVal {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::map<std::string, JVal> obj;

  const JVal* get(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  JVal parse() {
    JVal v = value();
    ws();
    if (i_ != s_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() const {
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++i_;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  JVal value() {
    ws();
    const char c = peek();
    JVal v;
    if (c == '{') {
      v.kind = JVal::Kind::kObj;
      expect('{');
      ws();
      if (peek() == '}') {
        ++i_;
        return v;
      }
      while (true) {
        ws();
        std::string key = string_body();
        ws();
        expect(':');
        v.obj.emplace(std::move(key), value());
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = JVal::Kind::kArr;
      expect('[');
      ws();
      if (peek() == ']') {
        ++i_;
        return v;
      }
      while (true) {
        v.arr.push_back(value());
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JVal::Kind::kStr;
      v.str = string_body();
      return v;
    }
    if (consume_literal("null")) return v;
    if (consume_literal("true")) {
      v.kind = JVal::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JVal::Kind::kBool;
      return v;
    }
    // Number: delegate to strtod but require progress and a sane charset
    // (bare inf/nan must NOT parse — that is the point of a strict check).
    if (c != '-' && (c < '0' || c > '9')) fail("unexpected token");
    std::size_t j = i_;
    while (j < s_.size() &&
           (s_[j] == '-' || s_[j] == '+' || s_[j] == '.' || s_[j] == 'e' ||
            s_[j] == 'E' || (s_[j] >= '0' && s_[j] <= '9'))) {
      ++j;
    }
    const std::string chunk{s_.substr(i_, j - i_)};
    char* end = nullptr;
    v.kind = JVal::Kind::kNum;
    v.number = std::strtod(chunk.c_str(), &end);
    if (end != chunk.c_str() + chunk.size()) fail("bad number");
    i_ = j;
    return v;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++i_;
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek();
        ++i_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case '/': out += '/'; break;
          default: fail("unsupported escape");
        }
        continue;
      }
      out += c;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

// --- one short traced + telemetered session, shared across tests --------

// ctest runs every test of this file in its own process, possibly in
// parallel, so each process writes its artifacts into a directory named
// after the test that first asked for it.
const std::string& artifact_dir() {
  static const std::string dir = [] {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "timeline_test_" + info->test_suite_name() +
           "." + info->name();
  }();
  return dir;
}

const dmp::SessionResult& traced_session() {
  static const dmp::SessionResult result = [] {
    dmp::SessionConfig config;
    config.path_configs = {dmp::table1_config(1), dmp::table1_config(1)};
    config.mu_pps = 20.0;
    config.duration_s = 10.0;
    config.warmup_s = 5.0;
    config.drain_s = 5.0;
    config.seed = 42;
    // A short outage on path 1 so the export has fault instants to emit.
    config.faults = "3 link_down path1; 5 link_up path1";
    config.obs.flight_recorder = true;
    config.obs.output_dir = artifact_dir();
    config.obs.prefix = "timeline_test";
    config.telemetry.enabled = true;
    config.telemetry.write_artifacts = true;
    return dmp::run_session(config);
  }();
  return result;
}

int count_ph(const JVal& root, const std::string& ph) {
  int n = 0;
  for (const JVal& ev : root.get("traceEvents")->arr) {
    if (ev.get("ph")->str == ph) ++n;
  }
  return n;
}

TEST(Timeline, ChromeTraceIsSchemaValid) {
  const auto& result = traced_session();
  ASSERT_NE(result.hub, nullptr);
  ASSERT_NE(result.hub->flight(), nullptr);
  ASSERT_GT(result.packets_generated, 0);
  const TraceAnalyzer analyzer{*result.hub->flight()};

  TimelineOptions options;
  options.telemetry_csv = result.hub->config().telemetry_csv_path();
  const std::string json = chrome_trace_json(analyzer, options);

  JVal root;
  ASSERT_NO_THROW(root = JsonParser{json}.parse()) << json.substr(0, 200);
  ASSERT_EQ(root.kind, JVal::Kind::kObj);
  const JVal* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JVal::Kind::kArr);
  ASSERT_FALSE(events->arr.empty());

  std::map<long long, int> span_balance;  // async begin/end per id
  std::set<std::string> counter_names;
  int spans = 0;
  int instants = 0;
  int fault_instants = 0;
  for (const JVal& ev : events->arr) {
    ASSERT_EQ(ev.kind, JVal::Kind::kObj);
    const JVal* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, JVal::Kind::kStr);
    const std::string& kind = ph->str;
    ASSERT_TRUE(kind == "M" || kind == "b" || kind == "e" || kind == "X" ||
                kind == "i" || kind == "C")
        << "unknown ph: " << kind;
    ASSERT_NE(ev.get("pid"), nullptr);
    ASSERT_EQ(ev.get("pid")->kind, JVal::Kind::kNum);
    ASSERT_NE(ev.get("name"), nullptr);
    if (kind != "C") {
      ASSERT_NE(ev.get("tid"), nullptr);
      ASSERT_EQ(ev.get("tid")->kind, JVal::Kind::kNum);
    }
    if (kind != "M") {
      ASSERT_NE(ev.get("ts"), nullptr);
      ASSERT_EQ(ev.get("ts")->kind, JVal::Kind::kNum);
    }
    if (kind == "b" || kind == "e") {
      const JVal* id = ev.get("id");
      ASSERT_NE(id, nullptr);
      span_balance[static_cast<long long>(id->number)] +=
          kind == "b" ? 1 : -1;
      if (kind == "b") ++spans;
    }
    if (kind == "X") {
      const JVal* dur = ev.get("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
    if (kind == "i") {
      ++instants;
      if (ev.get("name")->str.rfind("fault_start", 0) == 0) ++fault_instants;
    }
    if (kind == "C") {
      const JVal* args = ev.get("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->get("value"), nullptr);
      ASSERT_EQ(args->get("value")->kind, JVal::Kind::kNum);
      counter_names.insert(ev.get("name")->str);
    }
  }

  EXPECT_GT(spans, 0);
  for (const auto& [id, balance] : span_balance) {
    EXPECT_EQ(balance, 0) << "unbalanced async span for packet " << id;
  }
  EXPECT_GE(fault_instants, 1) << "injected fault left no instant";
  // Every telemetry channel becomes a counter track; spot-check the CBR
  // generation channel that any session records.
  EXPECT_TRUE(counter_names.count("server.generated") == 1)
      << "counters seen: " << counter_names.size();
  EXPECT_GE(instants, fault_instants);
}

TEST(Timeline, MaxPacketsCapsSpansButKeepsInstants) {
  const auto& result = traced_session();
  const TraceAnalyzer analyzer{*result.hub->flight()};

  TimelineOptions capped;
  capped.max_packets = 3;
  const JVal root = JsonParser{chrome_trace_json(analyzer, capped)}.parse();
  EXPECT_EQ(count_ph(root, "b"), 3);
  EXPECT_EQ(count_ph(root, "e"), 3);

  TimelineOptions none;
  none.max_packets = 0;
  const JVal bare = JsonParser{chrome_trace_json(analyzer, none)}.parse();
  EXPECT_EQ(count_ph(bare, "b"), 0);
  EXPECT_EQ(count_ph(bare, "X"), 0);
  // Instants (drops, RTOs, faults) are the run's story; the cap must not
  // silence them.
  EXPECT_GE(count_ph(bare, "i"), 1);
}

TEST(Timeline, ExportIsDeterministic) {
  const auto& result = traced_session();
  const TraceAnalyzer analyzer{*result.hub->flight()};
  TimelineOptions options;
  options.telemetry_csv = result.hub->config().telemetry_csv_path();
  EXPECT_EQ(chrome_trace_json(analyzer, options),
            chrome_trace_json(analyzer, options));
}

TEST(Timeline, WriteChromeTraceRoundTrips) {
  const auto& result = traced_session();
  const TraceAnalyzer analyzer{*result.hub->flight()};
  const std::string path = artifact_dir() + "/timeline_out.json";
  ASSERT_TRUE(dmp::obs::write_chrome_trace(analyzer, path));

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string json{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  EXPECT_EQ(json, chrome_trace_json(analyzer));
  EXPECT_NO_THROW(JsonParser{json}.parse());
}

// The telemetry CSV behind --telemetry is read strictly: a short row or a
// non-numeric time or mean names its line instead of vanishing or reading
// as 0.
TEST(Timeline, MalformedTelemetryCsvThrowsWithItsLine) {
  const dmp::obs::FlightRecorder recorder;
  const TraceAnalyzer analyzer{recorder};
  const std::string header =
      "window_start_s,channel,count,sum,mean,min,max,last\n";
  const std::string good = "0,link.path0.drops,2,2,1,1,1,1\n";
  const auto export_with = [&](const std::string& body) {
    const std::string path = ::testing::TempDir() + "malformed_telemetry.csv";
    std::ofstream(path) << header << body;
    TimelineOptions options;
    options.telemetry_csv = path;
    return chrome_trace_json(analyzer, options);
  };
  EXPECT_NO_THROW(export_with(good + good));
  for (const auto& [body, line] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {good + "1,link.path0.drops,2,2\n", "line 3"},
           {good + good + "2,link.path0.drops,2,2,x,1,1,1\n", "line 4"},
           {"0.5s,link.path0.drops,2,2,1,1,1,1\n", "line 2"},
           {good + "1,link.path0.drops,2,2,,1,1,1\n", "line 3"}}) {
    try {
      export_with(body);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace

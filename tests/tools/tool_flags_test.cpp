// The offline tools read `--name=value` flags strictly: a malformed value
// exits 2 and names the flag, where atof/atoll used to read it as 0 or a
// prefix, and so does a flag the command does not read, where a typo used
// to read as an absent flag.  slo_check refuses a spec with no rules.
// Runs the built run_diff, trace_query, divergence_report and slo_check
// binaries.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/flight_recorder.hpp"

namespace dmp {
namespace {

struct Outcome {
  int status = -1;
  std::string output;  // stdout and stderr
};

Outcome run(const std::string& command) {
  Outcome out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 256> buf{};
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out.output += buf.data();
  }
  const int status = pclose(pipe);
  out.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string write(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

// A two-event trace: packet 0 generated at 0 and arriving at 1 ms.
std::string small_trace() {
  obs::FlightRecorder recorder;
  recorder.set_meta(100.0, 0, 1);
  obs::FlightEvent e;
  e.packet = 0;
  e.path = 0;
  recorder.record(e);
  e.t_ns = 1'000'000;
  e.kind = obs::FlightEventKind::kArrive;
  recorder.record(e);
  const std::string path = ::testing::TempDir() + "tool_flags_trace.jsonl";
  EXPECT_TRUE(recorder.write_jsonl(path));
  return path;
}

void expect_rejected(const std::string& command, const std::string& flag) {
  const Outcome out = run(command);
  EXPECT_EQ(out.status, 2) << command << "\n" << out.output;
  EXPECT_NE(out.output.find(flag), std::string::npos)
      << command << "\n" << out.output;
}

TEST(ToolFlags, RunDiffRejectsMalformedValues) {
  const std::string left = write("tool_flags_left.json", "{\"a\": 1}\n");
  const std::string right = write("tool_flags_right.json", "{\"a\": 1}\n");
  const std::string base =
      std::string(TOOL_RUN_DIFF) + " " + left + " " + right + " ";
  EXPECT_EQ(run(base + "--abs-tol=1e-3 --max-print=5 --quiet").status, 0);
  expect_rejected(base + "--abs-tol=1e-3x", "--abs-tol");
  expect_rejected(base + "--rel-tol=abc", "--rel-tol");
  expect_rejected(base + "--rel-tol=", "--rel-tol");
  expect_rejected(base + "--max-print=z", "--max-print");
}

TEST(ToolFlags, TraceQueryRejectsMalformedValues) {
  const std::string trace = small_trace();
  const std::string tool = std::string(TOOL_TRACE_QUERY) + " ";
  EXPECT_EQ(run(tool + "causes " + trace + " --tau=2.5 --limit=3").status, 0);
  EXPECT_EQ(run(tool + "packet " + trace + " 0").status, 0);
  expect_rejected(tool + "causes " + trace + " --tau=abc", "--tau");
  expect_rejected(tool + "summary " + trace + " --tau=4s", "--tau");
  expect_rejected(tool + "causes " + trace + " --limit=3x", "--limit");
  expect_rejected(tool + "timeline " + trace + " --max-packets=z",
                  "--max-packets");
  expect_rejected(tool + "packet " + trace + " 12x", "packet");
  expect_rejected(tool + "percentiles " + trace + " --q=0.5,x", "--q");
  expect_rejected(tool + "percentiles " + trace + " --q=0.5,,0.9", "--q");
}

TEST(ToolFlags, RunDiffRejectsUnknownFlags) {
  // Files of its own: ctest runs each case in its own process, at once.
  const std::string left = write("tool_flags_unknown_left.json",
                                 "{\"a\": 1}\n");
  const std::string right = write("tool_flags_unknown_right.json",
                                  "{\"a\": 1}\n");
  const std::string base =
      std::string(TOOL_RUN_DIFF) + " " + left + " " + right + " ";
  expect_rejected(base + "--quiett", "--quiett");
  expect_rejected(base + "--abs_tol=1e-3", "--abs_tol");
  expect_rejected(base + "--quiet=1", "--quiet=1");   // bare flag
  expect_rejected(base + "--ignore timing", "--ignore");  // missing '='
}

TEST(ToolFlags, TraceQueryRejectsFlagsTheCommandDoesNotRead) {
  const std::string trace = small_trace();
  const std::string tool = std::string(TOOL_TRACE_QUERY) + " ";
  const Outcome summary = run(tool + "summary " + trace + " --tau=2");
  EXPECT_EQ(summary.status, 0) << summary.output;
  EXPECT_NE(summary.output.find("tau            2.000 s"), std::string::npos)
      << summary.output;
  expect_rejected(tool + "summary " + trace + " --tua=2", "--tua");
  expect_rejected(tool + "summary " + trace + " --limit=3", "--limit");
  expect_rejected(tool + "paths " + trace + " --tau=2", "--tau");
  expect_rejected(tool + "timeline " + trace + " --max-packet=5",
                  "--max-packet");
  expect_rejected(tool + "percentiles " + trace + " --qs=0.5", "--qs");
  EXPECT_EQ(run(tool + "bogus " + trace).status, 1);
}

// One series with one diverged point.
std::string diverged_series() {
  return write("tool_flags_divergence.json",
               "{\"divergence\": [{\"name\": \"s\", \"metric\": \"m\", "
               "\"x_label\": \"x\", \"points\": [{\"setting\": \"a\", "
               "\"x\": 1, \"predicted\": 0.1, \"measured\": 0.5, "
               "\"ci_half\": 0, \"residual\": 0.4, \"ok\": false}], "
               "\"stats\": {\"count\": 1, \"diverged\": 1}}]}\n");
}

TEST(ToolFlags, DivergenceReportRejectsUnknownFlags) {
  const std::string tool =
      std::string(TOOL_DIVERGENCE_REPORT) + " " + diverged_series() + " ";
  EXPECT_EQ(run(tool).status, 0);
  EXPECT_EQ(run(tool + "--fail-on-divergence").status, 1);
  // A misspelled gate flag must not turn the gate off.
  expect_rejected(tool + "--fail-on-divergense", "--fail-on-divergense");
  expect_rejected(tool + "--fail-on-divergence=1", "--fail-on-divergence=1");
  expect_rejected(tool + "--jsn=out.json", "--jsn");
  const std::string out = ::testing::TempDir() + "tool_flags_standalone.json";
  EXPECT_EQ(run(tool + "--json=" + out).status, 0);
  EXPECT_EQ(run(std::string(TOOL_DIVERGENCE_REPORT) + " " + out).status, 0);
}

TEST(ToolGates, SloCheckRefusesSpecWithoutRules) {
  const std::string report = write("tool_gates_report.json", "{\"a\": 1}\n");
  const std::string tool = std::string(TOOL_SLO_CHECK) + " ";
  const std::string passing = write("tool_gates_passing.slo", "a == 1\n");
  EXPECT_EQ(run(tool + passing + " " + report).status, 0);
  const std::string failing = write("tool_gates_failing.slo", "a == 2\n");
  EXPECT_EQ(run(tool + failing + " " + report).status, 1);
  for (const char* text : {"", "# nothing but comments\n\n"}) {
    const std::string spec = write("tool_gates_empty.slo", text);
    const Outcome out = run(tool + spec + " " + report);
    EXPECT_EQ(out.status, 2) << out.output;
    EXPECT_NE(out.output.find(spec), std::string::npos) << out.output;
    EXPECT_EQ(out.output.find("SLO OK"), std::string::npos) << out.output;
  }
}

}  // namespace
}  // namespace dmp

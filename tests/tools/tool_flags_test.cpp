// The offline tools read `--name=value` flags strictly: a malformed value
// exits 2 and names the flag, where atof/atoll used to read it as 0 or a
// prefix.  Runs the built run_diff and trace_query binaries.
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
      std::string(DMP_RUN_DIFF) + " " + left + " " + right + " ";
  EXPECT_EQ(run(base + "--abs-tol=1e-3 --max-print=5 --quiet").status, 0);
  expect_rejected(base + "--abs-tol=1e-3x", "--abs-tol");
  expect_rejected(base + "--rel-tol=abc", "--rel-tol");
  expect_rejected(base + "--rel-tol=", "--rel-tol");
  expect_rejected(base + "--max-print=z", "--max-print");
}

TEST(ToolFlags, TraceQueryRejectsMalformedValues) {
  const std::string trace = small_trace();
  const std::string tool = std::string(DMP_TRACE_QUERY) + " ";
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

}  // namespace
}  // namespace dmp

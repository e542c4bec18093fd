#include "obs/telemetry/telemetry.hpp"

#include <cstdio>
#include <filesystem>

#include "util/json.hpp"

namespace dmp::obs {

SessionTelemetry::SessionTelemetry(TelemetryConfig config)
    : config_(std::move(config)), series_(config_.window_s) {}

QuantileSketch* SessionTelemetry::sketch(const std::string& name) {
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(name, QuantileSketch{config_.sketch_alpha}).first;
  }
  return &it->second;
}

const QuantileSketch* SessionTelemetry::find_sketch(
    const std::string& name) const {
  const auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : &it->second;
}

int SessionTelemetry::write_artifacts() {
  if (!config_.write_artifacts) return 0;
  std::error_code ec;
  std::filesystem::create_directories(config_.output_dir, ec);
  int failures = 0;
  if (!series_.write_csv(config_.telemetry_csv_path())) ++failures;
  // One sketch per line: the sketch's own JSON with a leading name member
  // (read back by read_sketches_jsonl).
  std::FILE* f = std::fopen(config_.sketches_path().c_str(), "wb");
  if (f == nullptr) return failures + 1;
  bool ok = true;
  for (const auto& [name, sketch] : sketches_) {
    std::string line = "{\"name\":";
    append_json_string(line, name);
    line += ',';
    line.append(sketch.to_json(), 1);
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) ++failures;
  return failures;
}

}  // namespace dmp::obs

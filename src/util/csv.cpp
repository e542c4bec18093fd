#include "util/csv.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "util/env.hpp"

namespace dmp {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& columns)
    : path_(path), out_(path), width_(columns.size()) {
  if (!out_) throw std::runtime_error{"cannot open CSV output: " + path};
  row(columns);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (cells.size() != width_) {
    throw std::invalid_argument{"CSV row width mismatch in " + path_};
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << cells[i];
  }
  out_ << '\n';
  if (!out_.flush() && !write_failed_) {
    write_failed_ = true;
    std::fprintf(stderr, "warning: CSV write failed: %s\n", path_.c_str());
  }
}

std::vector<std::string> split_csv_row(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> cells;
  for (std::size_t start = 0;;) {
    const std::size_t comma = line.find(',', start);
    cells.emplace_back(line.substr(start, comma - start));
    if (comma == std::string_view::npos) return cells;
    start = comma + 1;
  }
}

std::string CsvWriter::num(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 12);
  if (ec != std::errc{}) return "nan";
  return std::string(buf, ptr);
}

std::string CsvWriter::num(std::int64_t v) { return std::to_string(v); }

std::string bench_output_dir() {
  const std::string dir = env_string("DMP_OUT_DIR", "bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace dmp

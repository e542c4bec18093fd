// Minimal CSV writer for benchmark outputs.  Every bench binary both prints
// human-readable rows and drops a machine-readable CSV next to the build.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace dmp {

class CsvWriter {
 public:
  // Opens `path` for writing and emits the header row.  Throws on failure.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns);

  // Appends one row; the number of cells must match the header width.
  // Write errors after a successful open (disk full, file deleted) are
  // reported once on stderr and latch `ok()` false instead of throwing —
  // a broken artifact must not abort the run that produced it.
  void row(const std::vector<std::string>& cells);

  // False once any row failed to reach the file.
  bool ok() const { return !write_failed_; }

  // Convenience: formats doubles with enough digits to round-trip.
  static std::string num(double v);
  static std::string num(std::int64_t v);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t width_;
  bool write_failed_ = false;
};

// Splits one CSV line (as CsvWriter writes it: no quoting) at every comma.
// Empty cells are kept, a trailing comma's included, and a line-ending
// '\r' is dropped.
std::vector<std::string> split_csv_row(std::string_view line);

// Resolves the output directory for bench CSVs: $DMP_OUT_DIR or "bench_out".
// Creates the directory if needed.
std::string bench_output_dir();

}  // namespace dmp

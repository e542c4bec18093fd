#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/env.hpp"

namespace dmp {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/dmp_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "x"});
    csv.row({CsvWriter::num(2.5), CsvWriter::num(std::int64_t{7})});
  }
  EXPECT_EQ(read_all(path), "a,b\n1,x\n2.5,7\n");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = "/tmp/dmp_csv_test2.csv";
  CsvWriter csv(path, {"a", "b", "c"});
  EXPECT_THROW(csv.row({"1", "2"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

TEST(Csv, NumRoundTripsDoubles) {
  EXPECT_EQ(CsvWriter::num(0.5), "0.5");
  const double v = 0.00012345;
  EXPECT_NEAR(std::stod(CsvWriter::num(v)), v, 1e-15);
}

TEST(Csv, SplitKeepsEmptyCellsAndDropsTheLineEndingCr) {
  using Cells = std::vector<std::string>;
  EXPECT_EQ(split_csv_row("a,b,c"), (Cells{"a", "b", "c"}));
  EXPECT_EQ(split_csv_row(""), (Cells{""}));
  EXPECT_EQ(split_csv_row(",x,"), (Cells{"", "x", ""}));
  EXPECT_EQ(split_csv_row("a,b\r"), (Cells{"a", "b"}));
  EXPECT_EQ(split_csv_row("a\rb,c"), (Cells{"a\rb", "c"}));
}

TEST(Env, ParsesStrings) {
  ::setenv("DMP_TEST_STR", "hello", 1);
  EXPECT_EQ(env_string("DMP_TEST_STR", "d"), "hello");
  ::unsetenv("DMP_TEST_STR");
  EXPECT_EQ(env_string("DMP_TEST_STR", "d"), "d");
}

}  // namespace
}  // namespace dmp

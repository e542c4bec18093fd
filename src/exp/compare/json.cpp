#include "exp/compare/json.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace dmp::exp {

namespace {

// One CSV cell becomes a number exactly when the whole cell parses as one.
JsonValue cell_value(const std::string& cell) {
  JsonValue v;
  if (!cell.empty()) {
    char* end = nullptr;
    const double d = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      v.kind = JsonValue::Kind::kNumber;
      v.number = d;
      v.text = cell;
      return v;
    }
  }
  v.kind = JsonValue::Kind::kString;
  v.text = cell;
  return v;
}

}  // namespace

JsonValue csv_to_json(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error{"csv: empty file"};
  }
  const auto columns = split_csv_row(line);
  JsonValue doc;
  doc.kind = JsonValue::Kind::kObject;
  JsonValue cols;
  cols.kind = JsonValue::Kind::kArray;
  for (const auto& c : columns) {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.text = c;
    cols.array.push_back(std::move(v));
  }
  JsonValue rows;
  rows.kind = JsonValue::Kind::kArray;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_csv_row(line);
    if (cells.size() != columns.size()) {
      throw std::runtime_error{"csv: row " + std::to_string(line_no) + " has " +
                               std::to_string(cells.size()) + " cells, header " +
                               std::to_string(columns.size())};
    }
    JsonValue row;
    row.kind = JsonValue::Kind::kObject;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      row.object.emplace_back(columns[i], cell_value(cells[i]));
    }
    rows.array.push_back(std::move(row));
  }
  doc.object.emplace_back("columns", std::move(cols));
  doc.object.emplace_back("rows", std::move(rows));
  return doc;
}

JsonValue csv_file_to_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error{"cannot open " + path};
  try {
    return csv_to_json(in);
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

const JsonValue* resolve_path(const JsonValue& root, const std::string& path) {
  const JsonValue* at = &root;
  std::size_t start = 0;
  while (start <= path.size()) {
    const auto dot = path.find('.', start);
    const std::string seg = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (seg.empty()) return nullptr;
    if (at->is_object()) {
      at = at->find(seg);
      if (at == nullptr) return nullptr;
    } else if (at->is_array()) {
      bool digits = true;
      for (char c : seg) {
        if (!std::isdigit(static_cast<unsigned char>(c))) digits = false;
      }
      if (digits) {
        const std::size_t idx = std::strtoull(seg.c_str(), nullptr, 10);
        if (idx >= at->array.size()) return nullptr;
        at = &at->array[idx];
      } else {
        const JsonValue* hit = nullptr;
        for (const auto& elem : at->array) {
          const JsonValue* name = elem.find("name");
          if (name != nullptr && name->kind == JsonValue::Kind::kString &&
              name->text == seg) {
            hit = &elem;
            break;
          }
        }
        if (hit == nullptr) return nullptr;
        at = hit;
      }
    } else {
      return nullptr;
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return at;
}

}  // namespace dmp::exp

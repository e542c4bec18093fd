// CSV adaptation and path lookup for the comparison tools.
//
// The JSON document model and parser live in util/json.hpp (one codec for
// every artifact).  CSV artifacts (fig CSVs, telemetry series) are adapted
// into the same tree by csv_to_json() — header row becomes column names,
// each data row an object — so one structural differ covers every artifact
// the benches produce.
#pragma once

#include <iosfwd>
#include <string>

#include "util/json.hpp"

namespace dmp::exp {

// Adapts a CSV table into {"columns": [...], "rows": [{col: cell}...]}.
// Cells that parse fully as numbers become JSON numbers (keeping their
// spelling), everything else stays a string.  Throws std::runtime_error on
// an empty file or a row with the wrong arity.
JsonValue csv_to_json(std::istream& in);
JsonValue csv_file_to_json(const std::string& path);

// Resolves a dotted path against a document: each segment selects an
// object key; against an array, an all-digit segment is an index and any
// other segment matches the element whose "name" member equals it (the
// shape of settings/metrics/divergence lists).  Returns nullptr when any
// hop fails.
const JsonValue* resolve_path(const JsonValue& root, const std::string& path);

}  // namespace dmp::exp

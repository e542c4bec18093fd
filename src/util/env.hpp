// Environment-variable lookup for the bench output directory (DMP_OUT_DIR);
// typed knobs go through the strict parser in src/exp/options.cpp.
#pragma once

#include <string>

namespace dmp {

std::string env_string(const char* name, const std::string& fallback);

}  // namespace dmp

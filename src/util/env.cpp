#include "util/env.hpp"

#include <cstdlib>

namespace dmp {

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string{v};
}

}  // namespace dmp

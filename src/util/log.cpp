#include "util/log.hpp"

#include <cstdio>

namespace scalpel {

void log_warn(const std::string& msg) {
  std::fprintf(stderr, "[scalpel warn] %s\n", msg.c_str());
}

}  // namespace scalpel

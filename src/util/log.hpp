#pragma once

#include <string>

namespace scalpel {

/// Writes one "[scalpel warn] <msg>" line to stderr. The exporters call it
/// when an output file cannot be opened. Thread-safe: the line goes out in
/// one stdio call, which holds the stream's lock.
void log_warn(const std::string& msg);

}  // namespace scalpel

#pragma once

/// \file json.hpp
/// The two JSON scalars the driver writes: escaped strings and numbers
/// with every digit kept (non-finite values become null).

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

[[nodiscard]] inline std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench

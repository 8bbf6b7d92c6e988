#include "support/text.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

namespace dts {
namespace {

/// The characters `std::istream >> std::string` skips in the C locale.
constexpr bool is_field_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

void append_double(std::string& out, double value) {
  // "-2.2250738585072014e-308" is 24 characters, the longest %.17g text.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value,
                                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[20];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

std::optional<double> parse_double(std::string_view token) noexcept {
  double value = 0.0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_uint(std::string_view token) noexcept {
  std::uint64_t value = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

void split_fields(std::string_view line,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_field_space(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !is_field_space(line[i])) ++i;
    if (i > begin) fields.push_back(line.substr(begin, i - begin));
  }
}

void split_on(std::string_view line, char separator,
              std::vector<std::string_view>& tokens) {
  tokens.clear();
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(line.find(separator, begin), line.size());
    tokens.push_back(line.substr(begin, end - begin));
    if (end == line.size()) return;
    begin = end + 1;
  }
}

}  // namespace dts

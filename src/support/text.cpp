#include "support/text.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <iterator>
#include <system_error>

#include "support/contract.hpp"

namespace dts {
namespace {

/// The characters `std::istream >> std::string` skips in the C locale.
constexpr bool is_field_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

__extension__ using Uint128 = unsigned __int128;

/// %.17g prints 17 significant digits: a digit string in [10^16, 10^17).
constexpr std::uint64_t kDigitsLow = 10'000'000'000'000'000ULL;
constexpr std::uint64_t kDigitsHigh = 100'000'000'000'000'000ULL;

/// Widest up-scale: m < 2^53 times 5^32 < 2^75 still fits 128 bits, which
/// keeps magnitudes down to ~1e-16 on the fast path.
constexpr int kMaxUpScale = 32;
/// Widest down-scale: 10^22 takes the largest fast-path value, m·2^74
/// < 2^127 (~1.7e38), down to 17 digits.
constexpr int kMaxDownScale = 22;
constexpr int kMaxShiftUp = 74;

template <int N>
constexpr std::array<Uint128, N + 1> powers_of(unsigned base) {
  std::array<Uint128, N + 1> powers{};
  powers[0] = 1;
  for (std::size_t i = 1; i < powers.size(); ++i) {
    powers[i] = powers[i - 1] * base;
  }
  return powers;
}
constexpr auto kPow5 = powers_of<kMaxUpScale>(5);
constexpr auto kPow10 = powers_of<kMaxDownScale>(10);

/// m·2^q·10^k as floor + remainder / divisor, all exact.
struct Scaled {
  Uint128 floor = 0;
  Uint128 remainder = 0;
  Uint128 divisor = 1;
};

/// False when the scale leaves the range the 128-bit arithmetic covers.
bool scale(std::uint64_t m, int q, int k, Scaled& out) noexcept {
  if (k >= 0) {
    // m·2^q·10^k = m·5^k·2^(q+k): one multiply, then a shift.
    if (k > kMaxUpScale) return false;
    const Uint128 product = m * kPow5[static_cast<std::size_t>(k)];
    const int shift = -(q + k);
    if (shift <= 0) {  // an integer already
      out = {product << -shift, 0, 1};
      return true;
    }
    if (shift >= 128) return false;
    const Uint128 floor = product >> shift;
    out = {floor, product - (floor << shift), Uint128{1} << shift};
    return true;
  }
  // Large values are integers (q >= 0): divide m·2^q by 10^-k.
  if (-k > kMaxDownScale || q < 0 || q > kMaxShiftUp) return false;
  const Uint128 divisor = kPow10[static_cast<std::size_t>(-k)];
  const Uint128 numerator = Uint128{m} << q;
  const Uint128 floor = numerator / divisor;
  out = {floor, numerator - floor * divisor, divisor};
  return true;
}

/// "00" to "99": two decimal digits per lookup.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (std::size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes `value` < 10^8 as exactly eight digits.
void write_8_digits(char* p, std::uint64_t value) noexcept {
  const std::size_t high = value / 10000;
  const std::size_t low = value % 10000;
  std::memcpy(p, &kDigitPairs[2 * (high / 100)], 2);
  std::memcpy(p + 2, &kDigitPairs[2 * (high % 100)], 2);
  std::memcpy(p + 4, &kDigitPairs[2 * (low / 100)], 2);
  std::memcpy(p + 6, &kDigitPairs[2 * (low % 100)], 2);
}

/// The general path: std::to_chars in %.17g form, for any double.
char* format_17g(char* first, char* last, double value) noexcept {
  return std::to_chars(first, last, value, std::chars_format::general, 17)
      .ptr;
}

/// Room format_17g_exact needs: it copies in fixed-size blocks that may
/// run past the text's end.
constexpr std::size_t kFastPathBuffer = 48;

/// The exact integer fast path of append_double: writes the %.17g text of
/// a finite, normal, non-zero `value` with magnitude in about
/// [1e-16, 1.7e38] to `buffer` (kFastPathBuffer chars) and returns its
/// end, or returns nullptr for every other value.
char* format_17g_exact(char* buffer, double value) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased_exponent == 0 || biased_exponent == 0x7FF) return nullptr;
  // |value| = m·2^q with 2^52 <= m < 2^53.
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int q = biased_exponent - 1075;

  char* p = buffer;
  if ((bits >> 63) != 0) *p++ = '-';

  // Integers below 10^17 have at most 17 digits: %.17g prints them whole.
  if (q <= 4 && q > -53) {
    const bool integral =
        q >= 0 || (m & ((std::uint64_t{1} << -q) - 1)) == 0;
    const std::uint64_t whole = q >= 0 ? m << q : m >> -q;
    if (integral && whole < kDigitsHigh) {
      return std::to_chars(p, p + 20, whole).ptr;
    }
  }

  // X, the decimal exponent, is the one whose scale puts the *unrounded*
  // digits in [10^16, 10^17); floor((q + 52)·log10 2) is within one of it.
  int exponent = ((q + 52) * 78913) >> 18;
  Scaled scaled;
  for (;;) {
    if (!scale(m, q, 16 - exponent, scaled)) return nullptr;
    if (scaled.floor >= kDigitsHigh) {
      ++exponent;
    } else if (scaled.floor < kDigitsLow) {
      --exponent;
    } else {
      break;
    }
  }
  // Round half to even on the exact remainder; 10^17 carries into X + 1.
  auto digits = static_cast<std::uint64_t>(scaled.floor);
  const Uint128 twice_remainder = 2 * scaled.remainder;
  if (twice_remainder > scaled.divisor ||
      (twice_remainder == scaled.divisor && (digits & 1) != 0)) {
    ++digits;
  }
  if (digits == kDigitsHigh) {
    digits = kDigitsLow;
    ++exponent;
  }

  char text[kFastPathBuffer] = {};
  text[0] = static_cast<char>('0' + digits / kDigitsLow);
  const std::uint64_t tail = digits % kDigitsLow;
  write_8_digits(text + 1, tail / 100'000'000);
  write_8_digits(text + 9, tail % 100'000'000);
  int length = 17;  // significant digits left once trailing zeros go
  while (text[length - 1] == '0') --length;

  if (exponent >= 0 && exponent < 17) {  // %f style, d...d[.ddd]
    const int whole = exponent + 1;
    std::memcpy(p, text, 17);
    if (length <= whole) return p + whole;
    p[whole] = '.';
    std::memcpy(p + whole + 1, text + whole, 16);
    return p + length + 1;
  }
  if (exponent < 0 && exponent >= -4) {  // %f style, 0.[000]ddd
    std::memcpy(p, "0.000", 5);
    std::memcpy(p + 1 - exponent, text, 17);
    return p + 1 - exponent + length;
  }
  // %e style: d[.ddd]e±XX, at least two exponent digits.
  p[0] = text[0];
  p[1] = '.';
  std::memcpy(p + 2, text + 1, 16);
  p += length > 1 ? length + 1 : 1;
  *p++ = 'e';
  *p++ = exponent < 0 ? '-' : '+';
  const int magnitude = exponent < 0 ? -exponent : exponent;
  std::memcpy(p, &kDigitPairs[2 * static_cast<std::size_t>(magnitude)], 2);
  return p + 2;
}

}  // namespace

void append_double(std::string& out, double value) {
  // "-2.2250738585072014e-308" is 24 characters, the longest %.17g text.
  char buffer[kFastPathBuffer];
  char* end = format_17g_exact(buffer, value);
  if (end == nullptr) {
    end = format_17g(buffer, std::end(buffer), value);
  } else {
    DTS_AUDIT_ONLY(char reference[32];
                   const char* const reference_end =
                       format_17g(reference, std::end(reference), value);)
    DTS_AUDIT(std::string_view(buffer, end) ==
                  std::string_view(reference, reference_end),
              "the %.17g fast path disagrees with std::to_chars");
  }
  out.append(buffer, end);
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

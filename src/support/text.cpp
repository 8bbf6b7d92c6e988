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

/// Widest up-scale: m < 2^53 times 5^27 < 2^63 keeps the product below
/// 2^116 and the shift to 17 digits below 64, which keeps magnitudes down
/// to ~1e-11 on the fast path.
constexpr int kMaxUpScale = 27;
/// Widest down-scale: 10^22 takes the largest fast-path value, m·2^74
/// < 2^127 (~1.7e38), down to 17 digits.
constexpr int kMaxDownScale = 22;
constexpr int kMaxShiftUp = 74;

template <typename T, int N>
constexpr std::array<T, N + 1> powers_of(unsigned base) {
  std::array<T, N + 1> powers{};
  powers[0] = 1;
  for (std::size_t i = 1; i < powers.size(); ++i) {
    powers[i] = powers[i - 1] * base;
  }
  return powers;
}
constexpr auto kPow5 = powers_of<std::uint64_t, kMaxUpScale>(5);
constexpr auto kPow10 = powers_of<Uint128, kMaxDownScale>(10);

/// floor(m·2^q·10^k) and how the rest, in [0, 1), compares with one half.
struct Scaled {
  std::uint64_t floor = 0;
  bool above_half = false;
  bool half = false;
  bool exact = true;  ///< the rest is zero
};

/// False when the scale leaves the range the 128-bit arithmetic covers or
/// the floor leaves 64 bits.
bool scale(std::uint64_t m, int q, int k, Scaled& out) noexcept {
  if (k >= 0) {
    // m·2^q·10^k = m·5^k·2^(q+k): one multiply, then a shift below 64.
    if (k > kMaxUpScale) return false;
    const Uint128 product = Uint128{m} * kPow5[static_cast<std::size_t>(k)];
    const int shift = -(q + k);
    if (shift <= 0) {  // an integer already
      const Uint128 floor = product << -shift;
      if (floor >> 64 != 0) return false;
      out = {static_cast<std::uint64_t>(floor), false, false, true};
      return true;
    }
    const auto low = static_cast<std::uint64_t>(product);
    const auto high = static_cast<std::uint64_t>(product >> 64);
    if (shift >= 64 || high >> shift != 0) return false;
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    const std::uint64_t rest = low & (2 * half - 1);
    out = {(low >> shift) | (high << 1 << (63 - shift)), rest > half,
           rest == half, rest == 0};
    return true;
  }
  // Large values are integers (q >= 0): divide m·2^q by 10^-k.
  if (-k > kMaxDownScale || q < 0 || q > kMaxShiftUp) return false;
  const Uint128 divisor = kPow10[static_cast<std::size_t>(-k)];
  const Uint128 numerator = Uint128{m} << q;
  const Uint128 floor = numerator / divisor;
  if (floor >> 64 != 0) return false;
  const Uint128 twice_rest = 2 * (numerator - floor * divisor);
  out = {static_cast<std::uint64_t>(floor), twice_rest > divisor,
         twice_rest == divisor, twice_rest == 0};
  return true;
}

/// The eight decimal digits of `value` < 10^8 as byte values 0-9, the
/// most significant in the lowest byte (first in memory on a
/// little-endian host): lane-wise division in one register, the 4-digit
/// halves by 100 in 32-bit lanes, then the 2-digit quarters by 10 in
/// 16-bit lanes.
std::uint64_t digit_bytes(std::uint64_t value) noexcept {
  std::uint64_t x = (value / 10000) | ((value % 10000) << 32);
  std::uint64_t y = ((x * 10486) >> 20) & 0x0000007F0000007FULL;
  x = y | ((x - y * 100) << 16);
  y = ((x * 103) >> 10) & 0x000F000F000F000FULL;
  return y | ((x - y * 10) << 8);
}

/// The general path: std::to_chars in %.17g form, for any double.
char* format_17g(char* first, char* last, double value) noexcept {
  return std::to_chars(first, last, value, std::chars_format::general, 17)
      .ptr;
}

/// The exact integer fast path of write_double: writes the %.17g text of
/// zero or of a finite normal `value` with magnitude in about
/// [1e-11, 1.7e38] at `p` and returns its end, or returns nullptr for
/// every other value (and on big-endian hosts). Its fixed-size stores stay
/// within p + kNumberTextRoom.
/// Inlined into write_double: a call per number costs ~3% of it.
[[gnu::always_inline]] inline char* format_17g_exact(char* p,
                                                     double value) noexcept {
  if constexpr (std::endian::native != std::endian::little) return nullptr;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if ((bits >> 63) != 0) *p++ = '-';
  if ((bits << 1) == 0) {  // +0.0 or -0.0
    *p = '0';
    return p + 1;
  }
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased_exponent == 0 || biased_exponent == 0x7FF) return nullptr;
  // |value| = m·2^q with 2^52 <= m < 2^53.
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int q = biased_exponent - 1075;

  // Integers below 10^17 have at most 17 digits: %.17g prints them whole.
  if (q <= 4 && q > -53) {
    const bool integral =
        q >= 0 || (m & ((std::uint64_t{1} << -q) - 1)) == 0;
    const std::uint64_t whole = q >= 0 ? m << q : m >> -q;
    if (integral && whole < kDigitsHigh) {
      return std::to_chars(p, p + 17, whole).ptr;
    }
  }

  // X, the decimal exponent, is the one whose scale puts the *unrounded*
  // digits in [10^16, 10^17). E = floor((q + 52)·log10 2) is X or X - 1,
  // so one scale by 10^(16 - E) gives 17 or 18 digits, below 2·10^17.
  int exponent = ((q + 52) * 78913) >> 18;
  Scaled scaled;
  if (!scale(m, q, 16 - exponent, scaled) || scaled.floor < kDigitsLow) {
    return nullptr;
  }
  std::uint64_t digits = scaled.floor;
  // Rounding half to even, without branches on the rounding state.
  const auto bit = [](bool b) { return static_cast<std::uint64_t>(b); };
  std::uint64_t round_up = 0;
  if (digits >= kDigitsHigh) {
    // 18 digits: X = E + 1. The dropped digit and the rest behind it
    // decide the rounding.
    const std::uint64_t dropped = digits % 10;
    digits /= 10;
    ++exponent;
    const std::uint64_t five_rounds_up = bit(!scaled.exact) | (digits & 1);
    round_up = bit(dropped > 5) | (bit(dropped == 5) & five_rounds_up);
  } else {
    round_up = bit(scaled.above_half) | (bit(scaled.half) & digits);
  }
  digits += round_up;
  if (digits == kDigitsHigh) {  // 10^17 carries into X + 1
    digits = kDigitsLow;
    ++exponent;
  }

  // The leading digit, then the other sixteen as text in one 128-bit
  // value that each form below stores whole.
  const std::uint64_t first_nine = digits / 100'000'000;
  const std::uint64_t first = digits / kDigitsLow;
  const auto lead = static_cast<char>('0' + first);
  const std::uint64_t high = digit_bytes(first_nine - first * 100'000'000);
  const std::uint64_t low = digit_bytes(digits - first_nine * 100'000'000);
  constexpr std::uint64_t kZeros = 0x3030303030303030ULL;  // eight '0's
  const Uint128 text = (Uint128{low + kZeros} << 64) | (high + kZeros);
  // Significant digits left once trailing zeros go.
  int length = 1;
  if (low != 0) {
    length = 17 - std::countl_zero(low) / 8;
  } else if (high != 0) {
    length = 9 - std::countl_zero(high) / 8;
  }

  if (exponent >= 0 && exponent < 17) {  // %f style, d...d[.ddd]
    const int whole = exponent + 1;
    *p = lead;
    std::memcpy(p + 1, &text, 16);
    if (length <= whole) return p + whole;
    // The '.' goes after digit `whole`: the digits behind it move one
    // place up.
    char fraction[16];
    std::memcpy(fraction, p + whole, 16);
    std::memcpy(p + whole + 1, fraction, 16);
    p[whole] = '.';
    return p + length + 1;
  }
  if (exponent < 0 && exponent >= -4) {  // %f style, 0.[000]ddd
    std::memcpy(p, "0.000", 5);
    p += 1 - exponent;
    *p = lead;
    std::memcpy(p + 1, &text, 16);
    return p + length;
  }
  // %e style: d[.ddd]e±XX, at least two exponent digits (|X| < 100 here).
  p[0] = lead;
  p[1] = '.';
  std::memcpy(p + 2, &text, 16);
  p += length > 1 ? length + 1 : 1;
  const int magnitude = exponent < 0 ? -exponent : exponent;
  p[0] = 'e';
  p[1] = exponent < 0 ? '-' : '+';
  p[2] = static_cast<char>('0' + magnitude / 10);
  p[3] = static_cast<char>('0' + magnitude % 10);
  return p + 4;
}

}  // namespace

char* write_double(char* cursor, double value) noexcept {
  char* const end = format_17g_exact(cursor, value);
  if (end == nullptr) {
    return format_17g(cursor, cursor + kNumberTextRoom, value);
  }
  DTS_AUDIT_ONLY(char reference[kNumberTextRoom];
                 const char* const reference_end =
                     format_17g(reference, std::end(reference), value);)
  DTS_AUDIT(std::string_view(cursor, end) ==
                std::string_view(reference, reference_end),
            "the %.17g fast path disagrees with std::to_chars");
  return end;
}

char* write_uint(char* cursor, std::uint64_t value) noexcept {
  return std::to_chars(cursor, cursor + kNumberTextRoom, value).ptr;
}

void append_double(std::string& out, double value) {
  char buffer[kNumberTextRoom];
  out.append(buffer, write_double(buffer, value));
}

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[kNumberTextRoom];
  out.append(buffer, write_uint(buffer, value));
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

#pragma once

/// \file text.hpp
/// Round-trip number text: the one home for how numbers are written to and
/// read from dts text formats (dts-trace files, the dts1 wire protocol).
///
/// Neither direction depends on the global or a stream's locale or
/// touches an iostream, and both are exact: append_double emits the text
/// printf("%.17g") would, byte for byte, and parse_double (std::from_chars)
/// reads it back to the identical bit pattern. The `%.17g` goldens and
/// every trace or response ever written stay valid inputs.
///
/// write_double, which append_double wraps, has two paths. The fast path
/// computes the 17 digits with integer arithmetic. Zero and integers
/// below 1e17 print directly. Any other finite normal magnitude in about
/// [1e-11, 1.7e38] is scaled once to floor(|value|·10^k) and how the rest
/// compares with one half: a 64x64-bit multiply by 5^k and a shift below
/// 64 for k >= 0, a 128-bit division by 10^-k above 1e17. The decimal
/// exponent is estimated from the binary one and is exact or one too low;
/// when it is low the scale yields 18 digits and the last one joins the
/// rounding state. Digits round half to even and go straight into the
/// caller's text. Every other value (subnormals, inf, nan, magnitudes
/// outside that range) takes the fallback, std::to_chars(general, 17).
/// Builds with DTS_AUDIT check every fast-path string against the
/// fallback.
///
/// Parsing is full-token: a token parses only when every character is
/// consumed, so trailing garbage ("1.5x"), hex soup ("0x10") and empty
/// tokens are rejections the caller turns into its own diagnostic.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dts {

/// Room the cursor writers need past the cursor. The longest text is 24
/// chars ("-2.2250738585072014e-308"); the fast path's fixed-size stores
/// reach 34.
inline constexpr std::size_t kNumberTextRoom = 34;

/// Writes `value` at `cursor` exactly as printf("%.17g") formats it in the
/// C locale (17 significant digits: every finite double round-trips) and
/// returns the end of the text. [cursor, cursor + kNumberTextRoom) must be
/// writable; chars past the returned end are left unspecified.
[[nodiscard]] char* write_double(char* cursor, double value) noexcept;

/// Writes `value` in decimal at `cursor`, with room as for write_double,
/// and returns the end of the text.
[[nodiscard]] char* write_uint(char* cursor, std::uint64_t value) noexcept;

/// Appends `value` as write_double writes it.
void append_double(std::string& out, double value);

/// Appends `value` in decimal.
void append_uint(std::string& out, std::uint64_t value);

/// Parses a whole token as a double (from_chars grammar: no leading '+',
/// no hex prefix; "inf" and "nan" parse, out-of-range magnitudes such as
/// "1e400" do not). std::nullopt unless the entire token is consumed.
[[nodiscard]] std::optional<double> parse_double(
    std::string_view token) noexcept;

/// Parses a whole token as an unsigned decimal. Signs, overflow past
/// 2^64 - 1 and partial tokens are std::nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(
    std::string_view token) noexcept;

/// Replaces `fields` with the whitespace-separated fields of `line` —
/// the tokens repeated `>> std::string` extraction yields in the C
/// locale, so spaces, tabs, vertical tabs, form feeds and carriage
/// returns, single or in runs, separate exactly as they always did.
/// The views alias `line`.
void split_fields(std::string_view line,
                  std::vector<std::string_view>& fields);

/// Replaces `tokens` with the pieces of `line` between single `separator`
/// characters, empty pieces included ("a  b" -> "a", "", "b"); strict
/// formats reject the empty ones. The views alias `line`.
void split_on(std::string_view line, char separator,
              std::vector<std::string_view>& tokens);

}  // namespace dts

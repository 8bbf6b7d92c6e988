#pragma once

/// \file text.hpp
/// Round-trip number text: the one home for how numbers are written to and
/// read from dts text formats (dts-trace files, the dts1 wire protocol).
///
/// Writing goes through std::to_chars and reading through std::from_chars,
/// so neither depends on the global or a stream's locale, neither touches
/// an iostream, and both are exact: append_double emits the text
/// printf("%.17g") would, byte for byte, and parse_double reads it back
/// to the identical bit pattern. The `%.17g` goldens and every
/// trace or response ever written stay valid inputs.
///
/// Parsing is full-token: a token parses only when every character is
/// consumed, so trailing garbage ("1.5x"), hex soup ("0x10") and empty
/// tokens are rejections the caller turns into its own diagnostic.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dts {

/// Appends `value` exactly as printf("%.17g") formats it in the C locale
/// (17 significant digits: every finite double round-trips).
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

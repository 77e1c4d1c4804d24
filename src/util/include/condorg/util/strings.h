// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace condorg::util {

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts, std::string_view delim);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII case-insensitive equality (ClassAd identifiers are case-insensitive).
bool iequals(std::string_view a, std::string_view b);

/// Lowercase an ASCII string.
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// The one formatter for numbers that are read back (payload fields,
/// ClassAd reals, stable-storage records): the shortest text that parses to
/// exactly `value`, from std::to_chars: "0.1", "1e+15", "5e-324", "-0",
/// "inf". append_double writes it onto `out`.
void append_double(std::string& out, double value);
std::string format_double(double value);

/// Inverse of format_double (std::from_chars, so subnormals such as 5e-324
/// read back, where std::stod throws). `fallback` when `text` does not start
/// with a number or the number overflows.
double parse_double(std::string_view text, double fallback = 0.0);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Render seconds of simulated time as "1d 02:03:04".
std::string format_duration(double seconds);

/// Render a byte count as "12.3 MB".
std::string format_bytes(double bytes);

}  // namespace condorg::util

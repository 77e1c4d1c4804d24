#include "condorg/util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace condorg::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

void append_double(std::string& out, double value) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308"
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

double parse_double(std::string_view text, double fallback) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end == text.data()) return fallback;
  return value;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_duration(double seconds) {
  if (!std::isfinite(seconds)) return "inf";
  const bool negative = seconds < 0;
  if (negative) seconds = -seconds;
  const auto total = static_cast<long long>(seconds + 0.5);
  const long long days = total / 86400;
  const long long hours = (total % 86400) / 3600;
  const long long minutes = (total % 3600) / 60;
  const long long secs = total % 60;
  std::string out = negative ? "-" : "";
  if (days > 0) out += format("%lldd ", days);
  out += format("%02lld:%02lld:%02lld", hours, minutes, secs);
  return out;
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  return format("%.1f %s", bytes, kUnits[unit]);
}

}  // namespace condorg::util

#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ff {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_nonempty(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (auto& piece : split(text, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      return out;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

bool is_integer(std::string_view text) {
  if (text.empty()) return false;
  size_t i = (text[0] == '-') ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

void append_double(std::string& out, double value) {
  if (std::isnan(value)) {  // JSON has no NaN; callers rely on this
    out += "null";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buf[64];
  char* const buf_end = buf + sizeof(buf);
  // Integral values in the safe range print as "N.0" rather than "1e+01"
  // (to_chars with a precision is defined as printf: this is "%.1f").
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    out.append(buf,
               std::to_chars(buf, buf_end, value, std::chars_format::fixed, 1).ptr);
    return;
  }
  // The shortest "%.Pg" (P in 1..17) that parses back to `value`. The
  // shortest round-trip scientific form has S significant digits, so no
  // P < S can round-trip; %.Sg rounds the exact value instead of choosing
  // among round-trip candidates, so it can miss, and %.17g never does.
  // Count S on the scientific form: the plain shortest form prints doubles
  // >= 2^53 in full fixed notation, trailing non-significant digits and all.
  const char* const sci_end =
      std::to_chars(buf, buf_end, value, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != sci_end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  char* text_end = buf;
  for (int prec = digits; prec <= 17; ++prec) {
    text_end =
        std::to_chars(buf, buf_end, value, std::chars_format::general, prec).ptr;
    double parsed = 0.0;
    std::from_chars(buf, text_end, parsed);  // correctly rounded, like strtod
    if (parsed == value) break;
  }
  const std::string_view text(buf, static_cast<size_t>(text_end - buf));
  out += text;
  // Ensure the representation re-parses as floating point, not integer.
  if (text.find_first_of(".eE") == std::string_view::npos &&
      text.find_first_of("0123456789") != std::string_view::npos) {
    out += ".0";
  }
}

std::string format_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string pad_left(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string pad_right(std::string_view text, size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string format_duration(double seconds) {
  if (seconds < 0) return "-" + format_duration(-seconds);
  if (seconds < 60.0) return format_fixed(seconds, 1) + "s";
  auto total = static_cast<long long>(seconds + 0.5);
  long long h = total / 3600;
  long long m = (total % 3600) / 60;
  long long s = total % 60;
  char buf[64];
  if (h > 0) {
    std::snprintf(buf, sizeof(buf), "%lldh%02lldm%02llds", h, m, s);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldm%02llds", m, s);
  }
  return buf;
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  return format_fixed(bytes, bytes < 10 ? 2 : 1) + " " + kUnits[unit];
}

}  // namespace ff

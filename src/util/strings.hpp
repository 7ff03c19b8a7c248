#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ff {

/// Split `text` on `sep`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> split(std::string_view text, char sep);

/// Split on `sep` but drop empty fields. " a  b " on ' ' -> {"a","b"}.
std::vector<std::string> split_nonempty(std::string_view text, char sep);

/// Join `parts` with `sep` between each pair.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Replace every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

std::string to_lower(std::string_view text);
std::string to_upper(std::string_view text);

/// True if `text` parses fully as a decimal integer (optional leading '-').
bool is_integer(std::string_view text);

/// Render a double the way JSON expects: shortest round-trippable form,
/// always with a '.' or exponent so it re-parses as floating point.
std::string format_double(double value);
/// format_double, appended to `out` without a temporary string.
void append_double(std::string& out, double value);

/// "%.3f"-style fixed formatting without the iostream dance.
std::string format_fixed(double value, int precision);

/// Left-pad with spaces to `width` (no-op if already wider).
std::string pad_left(std::string_view text, size_t width);
/// Right-pad with spaces to `width`.
std::string pad_right(std::string_view text, size_t width);

/// Render seconds as "1h02m03s" / "4m05s" / "6.0s" for human-facing reports.
std::string format_duration(double seconds);

/// Render a byte count as "1.5 GB" / "512 MB" etc. (powers of 1024).
std::string format_bytes(double bytes);

}  // namespace ff

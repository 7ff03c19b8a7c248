#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

namespace ff {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Split, SingleFieldWhenNoSeparator) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInputGivesOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Split, TrailingSeparatorGivesTrailingEmpty) {
  EXPECT_EQ(split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(SplitNonempty, DropsEmptyFields) {
  EXPECT_EQ(split_nonempty(" a  b ", ' '), (std::vector<std::string>{"a", "b"}));
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Join, EmptyVectorGivesEmptyString) {
  EXPECT_EQ(join({}, ","), "");
}

TEST(Trim, RemovesBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(ReplaceAll, ReplacesEveryOccurrence) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");   // empty pattern is a no-op
}

TEST(CaseConversion, Basics) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(to_upper("MiXeD"), "MIXED");
}

TEST(IsInteger, AcceptsSignedDecimals) {
  EXPECT_TRUE(is_integer("0"));
  EXPECT_TRUE(is_integer("-42"));
  EXPECT_FALSE(is_integer(""));
  EXPECT_FALSE(is_integer("-"));
  EXPECT_FALSE(is_integer("1.5"));
  EXPECT_FALSE(is_integer("12a"));
}

TEST(FormatDouble, RoundTripsExactly) {
  for (double value : {0.1, 1.0 / 3.0, 12345.6789, -2.5e-8, 1e20}) {
    const std::string text = format_double(value);
    EXPECT_EQ(std::stod(text), value) << text;
  }
}

TEST(FormatDouble, IntegralValuesKeepFloatMarker) {
  EXPECT_EQ(format_double(3.0), "3.0");
  EXPECT_EQ(format_double(-10.0), "-10.0");
}

/// The definition format_double's output is held to: try "%.Pg" for
/// P = 1..17 and keep the first that sscanf parses back to the same double.
/// Slow (up to 17 snprintf + sscanf pairs per value), so it lives only here.
std::string printf_search_reference(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buf[64];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  std::string out(buf);
  if (out.find_first_of(".eE") == std::string::npos &&
      out.find_first_of("0123456789") != std::string::npos) {
    out += ".0";
  }
  return out;
}

double from_bits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(FormatDouble, MatchesPrintfSearchReference) {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_mismatches;
  auto check_one = [&](double value) {
    ++checked;
    const std::string expected = printf_search_reference(value);
    const std::string actual = format_double(value);
    if (actual == expected || ++mismatches > 10) return;
    char bits[32];
    uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(raw));
    std::snprintf(bits, sizeof(bits), "0x%016llx",
                  static_cast<unsigned long long>(raw));
    first_mismatches +=
        std::string("\n  ") + bits + ": got " + actual + ", want " + expected;
  };
  auto check = [&](double value) {  // both signs, so -0.0 too
    check_one(value);
    check_one(-value);
  };

  // Seeded random bit patterns: both signs, every exponent, NaN payloads.
  std::mt19937_64 rng(20211018);
  for (int i = 0; i < 100000; ++i) check_one(from_bits(rng()));
  // Every power of two and both neighbours, subnormals included.
  for (int exp = -1074; exp <= 1023; ++exp) {
    const double power = std::ldexp(1.0, exp);
    check(power);
    check(std::nextafter(power, 0.0));
    check(std::nextafter(power, std::numeric_limits<double>::infinity()));
  }
  // Signed zero, NaN, the infinities and the extremes.
  for (const double v : {0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min()}) {
    check(v);
  }
  // The "%.1f" boundary at 1e15, and %g's switch to exponent form below
  // 1e-4 and at 10^P (P = 16, 17), each with its neighbours.
  for (const double edge : {1e15, 1e15 - 1, 1e15 + 1, 1e15 - 0.5, 1e-5, 1e-4,
                            1e16, 1e17, 9.999999999999999e15,
                            9.999999999999999e16, 0.000099999, 0.00010001}) {
    check(edge);
    check(std::nextafter(edge, 0.0));
    check(std::nextafter(edge, std::numeric_limits<double>::infinity()));
  }
  // Integral values above 2^53, where doubles skip integers: a 53-bit
  // significand times 2^k, k >= 1.
  for (int i = 0; i < 5000; ++i) {
    const uint64_t significand = (rng() >> 11) | (uint64_t{1} << 52);
    check(std::ldexp(static_cast<double>(significand),
                     1 + static_cast<int>(rng() % 200)));
  }
  // Shapes the journal writes: virtual times with fractional seconds.
  for (int i = 0; i < 5000; ++i) {
    check(static_cast<double>(rng() % 10000000) / 1000.0 +
          std::ldexp(static_cast<double>(rng() >> 11), -53));
  }

  EXPECT_GT(checked, 130000u);
  EXPECT_EQ(mismatches, 0u) << first_mismatches;

  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_double(1e20), "1e+20");
  EXPECT_EQ(format_double(-2.5e-8), "-2.5e-08");
  EXPECT_EQ(format_double(-0.0), "-0.0");
  EXPECT_EQ(format_double(1234567890123456.0), "1234567890123456.0");
  EXPECT_EQ(format_double(std::ldexp(1.0, 53)), "9007199254740992.0");
  EXPECT_EQ(format_double(5e-324), "5e-324");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-1e999");
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 4), "abcde");  // no truncation
}

TEST(FormatDuration, Ranges) {
  EXPECT_EQ(format_duration(5.25), "5.2s");
  EXPECT_EQ(format_duration(65), "1m05s");
  EXPECT_EQ(format_duration(3723), "1h02m03s");
  EXPECT_EQ(format_duration(-65), "-1m05s");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024 * 1024), "1.50 GB");
}

}  // namespace
}  // namespace ff

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ff {

/// A self-contained JSON value (this repo deliberately has no third-party
/// dependencies). Strict RFC 8259 parsing with line/column diagnostics,
/// compact and pretty serialization, and dotted-path lookups used by the
/// Skel model layer ("machine.nodes", "sweeps[0].name").
///
/// Numbers are stored as int64 when the literal is integral (no '.', 'e'),
/// otherwise as double; `as_double()` accepts both, `as_int()` accepts a
/// double only when it is exactly integral.
class Json {
 public:
  using Array = std::vector<Json>;
  // std::map keeps key order deterministic, which the generators rely on to
  // make emitted artifacts byte-stable across runs.
  using Object = std::map<std::string, Json>;

  enum class Type { Null, Bool, Int, Double, String, Array_, Object_ };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned v) : value_(static_cast<int64_t>(v)) {}
  Json(long v) : value_(static_cast<int64_t>(v)) {}
  Json(long long v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned long v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned long long v) : value_(static_cast<int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json array(std::initializer_list<Json> items) {
    return Json(Array(items));
  }
  static Json object() { return Json(Object{}); }
  static Json object(std::initializer_list<std::pair<const std::string, Json>> kv) {
    return Json(Object(kv));
  }

  /// Parse a complete JSON document; trailing non-whitespace is an error.
  static Json parse(std::string_view text);
  /// Parse the file at `path` (throws IoError / ParseError).
  static Json parse_file(const std::string& path);

  Type type() const noexcept { return static_cast<Type>(value_.index()); }
  bool is_null() const noexcept { return type() == Type::Null; }
  bool is_bool() const noexcept { return type() == Type::Bool; }
  bool is_int() const noexcept { return type() == Type::Int; }
  bool is_double() const noexcept { return type() == Type::Double; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type() == Type::String; }
  bool is_array() const noexcept { return type() == Type::Array_; }
  bool is_object() const noexcept { return type() == Type::Object_; }

  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object access. const form throws NotFoundError on a missing key;
  /// mutable form inserts (and converts a Null value to an Object first,
  /// so `j["a"]["b"] = 1` works on a default-constructed Json).
  const Json& operator[](std::string_view key) const;
  Json& operator[](std::string_view key);

  /// Array access with bounds checking.
  const Json& operator[](size_t index) const;
  Json& operator[](size_t index);

  bool contains(std::string_view key) const;

  /// Typed getter with default for optional object fields.
  bool get_or(std::string_view key, bool fallback) const;
  int64_t get_or(std::string_view key, int64_t fallback) const;
  int64_t get_or(std::string_view key, int fallback) const {
    return get_or(key, static_cast<int64_t>(fallback));
  }
  double get_or(std::string_view key, double fallback) const;
  std::string get_or(std::string_view key, const std::string& fallback) const;
  std::string get_or(std::string_view key, const char* fallback) const {
    return get_or(key, std::string(fallback));
  }

  /// Dotted-path lookup: "machine.queues[1].name". Returns nullptr when any
  /// step is missing (no throw) — the template engine uses this for
  /// `{{#if}}` checks.
  const Json* find_path(std::string_view path) const;
  /// Same, but throws NotFoundError with the failing path segment.
  const Json& at_path(std::string_view path) const;

  /// Append to an array value (converts Null to empty Array first).
  void push_back(Json value);

  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Compact single-line serialization.
  std::string dump() const;
  /// Pretty serialization with `indent` spaces per level.
  std::string pretty(int indent = 2) const;
  /// Write pretty form to a file (throws IoError).
  void write_file(const std::string& path, int indent = 2) const;

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  /// Human-readable type name ("object", "int", ...), for error messages.
  static std::string_view type_name(Type t) noexcept;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array, Object>
      value_;
};

/// Append `s` to `out` as a quoted JSON string literal, escaped exactly as
/// Json::dump() escapes strings and keys.
void append_json_string(std::string& out, std::string_view s);

}  // namespace ff

#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace ff {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON: " + message, line_, column_);
  }

  bool at_end() const { return pos_ >= text_.size(); }

  char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char c) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    advance();
  }

  void skip_whitespace() {
    while (!at_end()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    skip_whitespace();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': parse_literal("true"); return Json(true);
      case 'f': parse_literal("false"); return Json(false);
      case 'n': parse_literal("null"); return Json(nullptr);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_literal(std::string_view literal) {
    for (char expected : literal) {
      if (at_end() || peek() != expected) fail("invalid literal");
      advance();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_whitespace();
      char c = advance();
      if (c == '}') return Json(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      char c = advance();
      if (c == ']') return Json(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = advance();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00..\uDFFF.
      if (at_end() || peek() != '\\') fail("unpaired surrogate");
      advance();
      if (at_end() || peek() != 'u') fail("unpaired surrogate");
      advance();
      unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unexpected low surrogate");
    }
    // Encode as UTF-8.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const size_t start = pos_;
    bool is_floating = false;
    if (peek() == '-') advance();
    if (peek() == '0') {
      advance();
    } else if (peek() >= '1' && peek() <= '9') {
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') advance();
    } else {
      fail("invalid number");
    }
    if (!at_end() && text_[pos_] == '.') {
      is_floating = true;
      advance();
      if (at_end() || !(peek() >= '0' && peek() <= '9')) fail("digits required after '.'");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') advance();
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_floating = true;
      advance();
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) advance();
      if (at_end() || !(peek() >= '0' && peek() <= '9')) fail("digits required in exponent");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') advance();
    }
    const std::string literal(text_.substr(start, pos_ - start));
    if (!is_floating) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(literal.c_str(), &end, 10);
      if (errno == 0 && end == literal.c_str() + literal.size()) {
        return Json(static_cast<int64_t>(v));
      }
      // Integer overflow: fall back to double like most JSON libraries.
    }
    return Json(std::strtod(literal.c_str(), nullptr));
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t column_ = 1;
};

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return parse(text);
  } catch (const ParseError& e) {
    throw ParseError(std::string(e.what()) + " (in file " + path + ")");
  }
}

std::string_view Json::type_name(Type t) noexcept {
  switch (t) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Int: return "int";
    case Type::Double: return "double";
    case Type::String: return "string";
    case Type::Array_: return "array";
    case Type::Object_: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void type_fail(std::string_view wanted, Json::Type got) {
  throw Error("JSON: expected " + std::string(wanted) + ", got " +
              std::string(Json::type_name(got)));
}
}  // namespace

bool Json::as_bool() const {
  if (auto* b = std::get_if<bool>(&value_)) return *b;
  type_fail("bool", type());
}

int64_t Json::as_int() const {
  if (auto* i = std::get_if<int64_t>(&value_)) return *i;
  if (auto* d = std::get_if<double>(&value_)) {
    if (*d == std::floor(*d) && std::abs(*d) < 9.2e18) return static_cast<int64_t>(*d);
    throw Error("JSON: number is not integral: " + format_double(*d));
  }
  type_fail("int", type());
}

double Json::as_double() const {
  if (auto* d = std::get_if<double>(&value_)) return *d;
  if (auto* i = std::get_if<int64_t>(&value_)) return static_cast<double>(*i);
  type_fail("number", type());
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  type_fail("string", type());
}

const Json::Array& Json::as_array() const {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  type_fail("array", type());
}

Json::Array& Json::as_array() {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  type_fail("array", type());
}

const Json::Object& Json::as_object() const {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  type_fail("object", type());
}

Json::Object& Json::as_object() {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  type_fail("object", type());
}

const Json& Json::operator[](std::string_view key) const {
  const Object& object = as_object();
  auto it = object.find(std::string(key));
  if (it == object.end()) throw NotFoundError("JSON: missing key '" + std::string(key) + "'");
  return it->second;
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = Object{};
  return as_object()[std::string(key)];
}

const Json& Json::operator[](size_t index) const {
  const Array& array = as_array();
  if (index >= array.size()) {
    throw NotFoundError("JSON: array index " + std::to_string(index) +
                        " out of range (size " + std::to_string(array.size()) + ")");
  }
  return array[index];
}

Json& Json::operator[](size_t index) {
  Array& array = as_array();
  if (index >= array.size()) {
    throw NotFoundError("JSON: array index " + std::to_string(index) +
                        " out of range (size " + std::to_string(array.size()) + ")");
  }
  return array[index];
}

bool Json::contains(std::string_view key) const {
  if (!is_object()) return false;
  return as_object().count(std::string(key)) > 0;
}

bool Json::get_or(std::string_view key, bool fallback) const {
  return contains(key) ? (*this)[key].as_bool() : fallback;
}
int64_t Json::get_or(std::string_view key, int64_t fallback) const {
  return contains(key) ? (*this)[key].as_int() : fallback;
}
double Json::get_or(std::string_view key, double fallback) const {
  return contains(key) ? (*this)[key].as_double() : fallback;
}
std::string Json::get_or(std::string_view key, const std::string& fallback) const {
  return contains(key) ? (*this)[key].as_string() : fallback;
}

const Json* Json::find_path(std::string_view path) const {
  const Json* node = this;
  size_t pos = 0;
  while (pos < path.size()) {
    size_t dot = path.find('.', pos);
    std::string_view segment =
        path.substr(pos, dot == std::string_view::npos ? std::string_view::npos
                                                       : dot - pos);
    pos = (dot == std::string_view::npos) ? path.size() : dot + 1;
    // Each segment may carry [index] suffixes: "queues[1]" or "m[0][2]".
    size_t bracket = segment.find('[');
    std::string_view key = segment.substr(0, bracket);
    if (!key.empty()) {
      if (!node->is_object()) return nullptr;
      const Object& object = node->as_object();
      auto it = object.find(std::string(key));
      if (it == object.end()) return nullptr;
      node = &it->second;
    }
    while (bracket != std::string_view::npos) {
      size_t close = segment.find(']', bracket);
      if (close == std::string_view::npos) return nullptr;
      std::string_view index_text = segment.substr(bracket + 1, close - bracket - 1);
      if (!is_integer(index_text)) return nullptr;
      const auto index = static_cast<size_t>(std::stoll(std::string(index_text)));
      if (!node->is_array() || index >= node->as_array().size()) return nullptr;
      node = &node->as_array()[index];
      bracket = segment.find('[', close);
    }
  }
  return node;
}

const Json& Json::at_path(std::string_view path) const {
  const Json* node = find_path(path);
  if (!node) throw NotFoundError("JSON: no value at path '" + std::string(path) + "'");
  return *node;
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(value));
}

size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  if (is_null()) return 0;
  return 1;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad = pretty ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ') : "";
  const std::string close_pad = pretty ? std::string(static_cast<size_t>(indent * depth), ' ') : "";
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::Int: out += std::to_string(std::get<int64_t>(value_)); break;
    case Type::Double: append_double(out, std::get<double>(value_)); break;
    case Type::String: append_json_string(out, std::get<std::string>(value_)); break;
    case Type::Array_: {
      const Array& array = std::get<Array>(value_);
      if (array.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        array[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Type::Object_: {
      const Object& object = std::get<Object>(value_);
      if (object.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out += ',';
        first = false;
        if (pretty) {
          out += '\n';
          out += pad;
        }
        append_json_string(out, key);
        out += pretty ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::pretty(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  out += '\n';
  return out;
}

void Json::write_file(const std::string& path, int indent) const {
  // Atomic tmp+rename: a crash mid-write never leaves a truncated document
  // (manifests and status files are re-read by campaign resumption).
  ff::write_file_atomic(path, pretty(indent));
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) return as_double() == other.as_double();
  return value_ == other.value_;
}

}  // namespace ff

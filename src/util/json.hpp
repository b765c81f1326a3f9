// Minimal recursive-descent JSON parser (RFC 8259 subset, no surrogate
// escapes), the string escaper, and the one writer every JSON artifact goes
// through. Parser consumers: the Chrome-trace exporter round-trip test, the
// cosim_stat report tool, and the BENCH_*.json regression check — all
// read-side tooling, none performance-critical.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace nisc::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// One parsed JSON value. Numbers are stored as double (plus the raw text
/// for exact integer retrieval).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; returns nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Object member access; throws RuntimeError when absent.
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;
  friend class JsonWriter;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // String value or Number raw text
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws RuntimeError with offset context on malformed input.
JsonValue parse_json(std::string_view text);

/// Reads and parses a JSON file. Throws RuntimeError on I/O or parse error.
JsonValue parse_json_file(const std::string& path);

/// Escapes a string for embedding in a JSON string literal (no quotes
/// added): quotes, backslashes and every control character below 0x20.
std::string json_escape(std::string_view s);

/// Writes one compact JSON document (no whitespace). The writer places
/// every comma and colon and escapes every key and string, so no caller
/// spells JSON punctuation itself. Integers are exact; a double is its
/// shortest round-trip form, and a non-finite one is `null`. Misuse (a
/// mismatched end_*, a key outside an object, a value without its key, a
/// second top-level value, str() on an unfinished document) throws
/// LogicError.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('{'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close('['); }
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  /// Without this overload a string literal would convert to bool.
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  /// Every other integer type, widened; `char` is excluded so a character
  /// cannot silently print as its code.
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonWriter& value(T v) {
    using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>;
    return value(static_cast<Wide>(v));
  }
  /// Re-emits a parsed value; integer literals are copied exactly.
  JsonWriter& value(const JsonValue& v);
  JsonWriter& null();
  /// An already-rendered JSON value, inserted verbatim.
  JsonWriter& raw(std::string_view fragment);

  /// The finished document.
  const std::string& str() const;

 private:
  void begin_value();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  template <typename T>
  JsonWriter& number(T v);

  std::string out_;
  std::string open_;    ///< '{' or '[' per open container, innermost last
  bool first_ = true;   ///< the innermost container has no element yet
  bool keyed_ = false;  ///< a key was written and awaits its value
};

}  // namespace nisc::util

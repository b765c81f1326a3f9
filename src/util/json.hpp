// Minimal recursive-descent JSON parser (RFC 8259 subset, no surrogate
// escapes) and the string escaper every JSON emitter shares. Parser
// consumers: the Chrome-trace exporter round-trip test, the cosim_stat
// report tool, and the BENCH_*.json regression check — all read-side
// tooling, none performance-critical.
#pragma once

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

}  // namespace nisc::util

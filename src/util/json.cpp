#include "util/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace nisc::util {

namespace {

[[noreturn]] void parse_fail(std::size_t pos, const std::string& what) {
  throw RuntimeError("json: " + what + " at offset " + std::to_string(pos));
}

}  // namespace

bool JsonValue::as_bool() const {
  require(kind_ == Kind::Bool, "json: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  require(kind_ == Kind::Number, "json: not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  require(kind_ == Kind::Number, "json: not a number");
  return static_cast<std::int64_t>(std::strtoll(string_.c_str(), nullptr, 10));
}

std::uint64_t JsonValue::as_uint() const {
  require(kind_ == Kind::Number, "json: not a number");
  return static_cast<std::uint64_t>(std::strtoull(string_.c_str(), nullptr, 10));
}

const std::string& JsonValue::as_string() const {
  require(kind_ == Kind::String, "json: not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  require(kind_ == Kind::Array, "json: not an array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  require(kind_ == Kind::Object, "json: not an object");
  return *object_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  require(v != nullptr, "json: missing key \"" + std::string(key) + "\"");
  return *v;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) parse_fail(pos_, "trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) parse_fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) parse_fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        JsonValue v;
        if (!consume_literal("true")) parse_fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        JsonValue v;
        if (!consume_literal("false")) parse_fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        JsonValue v;
        if (!consume_literal("null")) parse_fail(pos_, "bad literal");
        return v;
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) parse_fail(pos_, "unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        parse_fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) parse_fail(pos_, "unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) parse_fail(pos_, "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else parse_fail(pos_, "bad \\u escape");
          }
          // ASCII only (enough for our own emitters); others become '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: parse_fail(pos_, "bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) parse_fail(pos_, "expected a value");
    JsonValue v;
    v.kind_ = JsonValue::Kind::Number;
    v.string_ = std::string(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number_ = std::strtod(v.string_.c_str(), &end);
    if (end != v.string_.c_str() + v.string_.size()) parse_fail(start, "malformed number");
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::Array;
    v.array_ = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_->push_back(parse_value());
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') parse_fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::Object;
    v.object_ = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*v.object_)[std::move(key)] = parse_value();
      skip_ws();
      char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') parse_fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuntimeError("json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_json(buf.str());
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace nisc::util

// Minimal recursive-descent JSON reader for the documents obs::Report emits
// (BENCH_<experiment>.json, schema pds-bench-report/1), and per line for
// tracer NDJSON (trace_reader.h). Report JSON nests objects and arrays, so
// this parses a full value tree. Object member order is preserved —
// pdsreport re-renders tables in emission order. Intentionally not a
// general-purpose JSON library: no surrogate pairs, UTF-8 passed through.
#pragma once

#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pds::tools {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string contents, or the raw number token
  std::vector<JsonValue> items;                            // array
  std::vector<std::pair<std::string, JsonValue>> members;  // object

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // Renders the value the way a table cell would show it: strings verbatim,
  // numbers as their raw token, booleans as true/false.
  [[nodiscard]] std::string display() const {
    switch (type) {
      case Type::kString:
        return text;
      case Type::kNumber:
        return text;
      case Type::kBool:
        return boolean ? "true" : "false";
      default:
        return "null";
    }
  }
};

namespace report_detail {

inline constexpr int kMaxDepth = 32;

inline void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

inline bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

inline bool parse_string(const std::string& s, std::size_t& i,
                         std::string& out, std::string* error) {
  if (i >= s.size() || s[i] != '"') return fail(error, "expected string");
  ++i;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) return fail(error, "truncated escape");
      const char esc = s[i++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'r': c = '\r'; break;
        case 'u': {
          if (i + 4 > s.size()) return fail(error, "truncated \\u escape");
          c = static_cast<char>(
              std::strtol(s.substr(i, 4).c_str(), nullptr, 16));
          i += 4;
          break;
        }
        default:
          c = esc;
      }
    }
    out.push_back(c);
  }
  if (i >= s.size()) return fail(error, "unterminated string");
  ++i;  // closing quote
  return true;
}

bool parse_value(const std::string& s, std::size_t& i, JsonValue& out,
                 int depth, std::string* error);

inline bool parse_object(const std::string& s, std::size_t& i, JsonValue& out,
                         int depth, std::string* error) {
  out.type = JsonValue::Type::kObject;
  ++i;  // '{'
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    skip_ws(s, i);
    std::string key;
    if (!parse_string(s, i, key, error)) return false;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return fail(error, "expected ':'");
    ++i;
    JsonValue value;
    if (!parse_value(s, i, value, depth + 1, error)) return false;
    out.members.emplace_back(std::move(key), std::move(value));
    skip_ws(s, i);
    if (i >= s.size()) return fail(error, "unterminated object");
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == '}') {
      ++i;
      return true;
    }
    return fail(error, "expected ',' or '}'");
  }
}

inline bool parse_array(const std::string& s, std::size_t& i, JsonValue& out,
                        int depth, std::string* error) {
  out.type = JsonValue::Type::kArray;
  ++i;  // '['
  skip_ws(s, i);
  if (i < s.size() && s[i] == ']') {
    ++i;
    return true;
  }
  while (true) {
    JsonValue value;
    if (!parse_value(s, i, value, depth + 1, error)) return false;
    out.items.push_back(std::move(value));
    skip_ws(s, i);
    if (i >= s.size()) return fail(error, "unterminated array");
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] == ']') {
      ++i;
      return true;
    }
    return fail(error, "expected ',' or ']'");
  }
}

inline bool parse_value(const std::string& s, std::size_t& i, JsonValue& out,
                        int depth, std::string* error) {
  if (depth > kMaxDepth) return fail(error, "nesting too deep");
  skip_ws(s, i);
  if (i >= s.size()) return fail(error, "unexpected end of input");
  const char c = s[i];
  if (c == '{') return parse_object(s, i, out, depth, error);
  if (c == '[') return parse_array(s, i, out, depth, error);
  if (c == '"') {
    out.type = JsonValue::Type::kString;
    return parse_string(s, i, out.text, error);
  }
  if (s.compare(i, 4, "true") == 0) {
    out.type = JsonValue::Type::kBool;
    out.boolean = true;
    i += 4;
    return true;
  }
  if (s.compare(i, 5, "false") == 0) {
    out.type = JsonValue::Type::kBool;
    out.boolean = false;
    i += 5;
    return true;
  }
  if (s.compare(i, 4, "null") == 0) {
    out.type = JsonValue::Type::kNull;
    i += 4;
    return true;
  }
  // Number token.
  const std::size_t start = i;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.' ||
          s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
    ++i;
  }
  if (i == start) return fail(error, "unexpected character");
  out.type = JsonValue::Type::kNumber;
  out.text = s.substr(start, i - start);
  out.number = std::atof(out.text.c_str());
  return true;
}

}  // namespace report_detail

// Parses a full JSON document; nullopt (with `error` set, if given) on
// malformed input or trailing garbage.
inline std::optional<JsonValue> parse_json(const std::string& text,
                                           std::string* error = nullptr) {
  JsonValue root;
  std::size_t i = 0;
  if (!report_detail::parse_value(text, i, root, 0, error)) {
    return std::nullopt;
  }
  report_detail::skip_ws(text, i);
  if (i != text.size()) {
    report_detail::fail(error, "trailing characters after document");
    return std::nullopt;
  }
  return root;
}

}  // namespace pds::tools

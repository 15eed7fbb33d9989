// NDJSON trace reader for the format obs::Tracer emits: one flat JSON object
// per line, args values limited to numbers and strings. Each line goes
// through report_reader.h's parse_json. Used by `pdscli trace` and
// tools/trace_check.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <istream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tools/report_reader.h"

namespace pds::tools {

struct ParsedEvent {
  std::int64_t t_us = 0;
  std::uint32_t node = 0;
  char ph = 'i';
  std::string sub;
  std::string ev;
  // Raw value text, unescaped for strings ("3", "1.5", "probability").
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] const std::string* arg(const std::string& key) const {
    for (const auto& [k, v] : args) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] double num(const std::string& key, double dflt = 0.0) const {
    const std::string* v = arg(key);
    return v == nullptr ? dflt : std::atof(v->c_str());
  }
};

// Parses one tracer NDJSON line; nullopt for a non-object line, a missing
// `sub`/`ev`, or a `ph` that is not one character.
inline std::optional<ParsedEvent> parse_trace_line(const std::string& line) {
  const std::optional<JsonValue> doc = parse_json(line);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  ParsedEvent event;
  for (const auto& [key, value] : doc->members) {
    if (key == "t") {
      event.t_us = std::atoll(value.display().c_str());
    } else if (key == "node") {
      event.node =
          static_cast<std::uint32_t>(std::atoll(value.display().c_str()));
    } else if (key == "ph") {
      const std::string ph = value.display();
      if (ph.size() != 1) return std::nullopt;
      event.ph = ph[0];
    } else if (key == "sub") {
      event.sub = value.display();
    } else if (key == "ev") {
      event.ev = value.display();
    } else if (key == "args") {
      if (!value.is_object()) return std::nullopt;
      for (const auto& [arg_key, arg_value] : value.members) {
        event.args.emplace_back(arg_key, arg_value.display());
      }
    }  // Unknown top-level keys are ignored (forward compatibility).
  }
  if (event.sub.empty() || event.ev.empty()) return std::nullopt;
  return event;
}

// Reads a whole NDJSON stream; stops and returns nullopt-free events read so
// far via `out`, reporting the first bad line number (1-based) in `bad_line`
// (0 = clean).
inline std::vector<ParsedEvent> read_trace(std::istream& is,
                                           std::size_t& bad_line) {
  std::vector<ParsedEvent> out;
  bad_line = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto event = parse_trace_line(line);
    if (!event.has_value()) {
      bad_line = line_no;
      break;
    }
    out.push_back(std::move(*event));
  }
  return out;
}

}  // namespace pds::tools

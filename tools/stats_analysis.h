// Reader + summarizer for pds-timeseries/1 NDJSON files (DESIGN.md §15).
//
// Shared between `pdscli stats` and the bench binaries so the numbers a
// bench folds into its report's "stats" section are computed by exactly the
// code path a user sees on the command line — the same round-trip discipline
// bench_common.h's CausalCapture established for causal traces. Column
// names are not catalogued here: the collector in Scenario::attach_sampler
// defines them, and a reader that needs one looks it up with
// series_column(); bench_common.h's add_stats_point fails on a gap.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "tools/report_reader.h"

namespace pds::tools {

struct SeriesColumn {
  std::string name;
  std::string kind;  // "sim" | "wall"
};

struct SeriesRow {
  std::int64_t t_us = 0;
  std::vector<double> v;
};

struct ProfileEntry {
  std::string path;
  int depth = 0;
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

struct ParsedSeries {
  std::int64_t interval_us = 0;
  std::vector<SeriesColumn> columns;
  std::vector<SeriesRow> rows;
  std::vector<ProfileEntry> profile;  // optional trailing profile line
};

// Parses a pds-timeseries/1 NDJSON document: a header line, zero or more row
// lines, and at most one trailing `{"profile":[...]}` line. nullopt (with
// `error` set when given) on any malformed or out-of-schema line.
inline std::optional<ParsedSeries> parse_timeseries(const std::string& text,
                                                    std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr && error->empty()) *error = message;
    return std::nullopt;
  };
  ParsedSeries out;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string parse_error;
    const std::optional<JsonValue> root = parse_json(line, &parse_error);
    if (!root.has_value() || !root->is_object()) {
      return fail("bad NDJSON line: " + parse_error);
    }
    if (!saw_header) {
      const JsonValue* schema = root->find("schema");
      if (schema == nullptr || schema->text != obs::kTimeSeriesSchema) {
        return fail(std::string("header schema must be ") +
                    obs::kTimeSeriesSchema);
      }
      const JsonValue* interval = root->find("interval_us");
      const JsonValue* columns = root->find("columns");
      if (interval == nullptr || !interval->is_number() ||
          interval->number <= 0) {
        return fail("header missing positive interval_us");
      }
      if (columns == nullptr || !columns->is_array()) {
        return fail("header missing columns array");
      }
      out.interval_us = static_cast<std::int64_t>(interval->number);
      for (const JsonValue& c : columns->items) {
        const JsonValue* name = c.find("name");
        const JsonValue* kind = c.find("kind");
        if (name == nullptr || kind == nullptr ||
            (kind->text != "sim" && kind->text != "wall")) {
          return fail("bad column entry");
        }
        out.columns.push_back(SeriesColumn{name->text, kind->text});
      }
      saw_header = true;
      continue;
    }
    if (const JsonValue* profile = root->find("profile")) {
      if (!profile->is_array()) return fail("profile must be an array");
      for (const JsonValue& e : profile->items) {
        const JsonValue* path = e.find("path");
        const JsonValue* ns = e.find("ns");
        const JsonValue* calls = e.find("calls");
        if (path == nullptr || ns == nullptr || calls == nullptr) {
          return fail("bad profile entry");
        }
        ProfileEntry entry;
        entry.path = path->text;
        entry.depth = static_cast<int>(
            std::count(entry.path.begin(), entry.path.end(), '/'));
        entry.ns = static_cast<std::int64_t>(ns->number);
        entry.calls = static_cast<std::uint64_t>(calls->number);
        out.profile.push_back(std::move(entry));
      }
      continue;
    }
    const JsonValue* t_us = root->find("t_us");
    const JsonValue* v = root->find("v");
    if (t_us == nullptr || !t_us->is_number() || v == nullptr ||
        !v->is_array()) {
      return fail("row needs t_us and v");
    }
    if (v->items.size() != out.columns.size()) {
      return fail("row width does not match header columns");
    }
    SeriesRow row;
    row.t_us = static_cast<std::int64_t>(t_us->number);
    row.v.reserve(v->items.size());
    for (const JsonValue& x : v->items) {
      if (!x.is_number()) return fail("row values must be numbers");
      row.v.push_back(x.number);
    }
    out.rows.push_back(std::move(row));
  }
  if (!saw_header) return fail("empty series (no header line)");
  return out;
}

inline std::optional<ParsedSeries> read_timeseries(const std::string& path,
                                                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr && error->empty()) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_timeseries(buf.str(), error);
}

// Per-column summary: peak, time-to-peak, mean, tail percentiles, last value.
struct SeriesSummary {
  std::string name;
  std::string kind;
  double peak = 0.0;
  std::int64_t t_peak_us = 0;  // first row at which the peak was seen
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double last = 0.0;
};

// Linear-interpolated percentile over a sorted copy (p in [0, 100]).
inline double series_percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline std::vector<SeriesSummary> summarize_series(const ParsedSeries& s) {
  std::vector<SeriesSummary> out;
  for (std::size_t c = 0; c < s.columns.size(); ++c) {
    SeriesSummary sum;
    sum.name = s.columns[c].name;
    sum.kind = s.columns[c].kind;
    std::vector<double> values;
    values.reserve(s.rows.size());
    double total = 0.0;
    for (const SeriesRow& row : s.rows) {
      const double v = row.v[c];
      values.push_back(v);
      total += v;
      if (v > sum.peak || values.size() == 1) {
        sum.peak = v;
        sum.t_peak_us = row.t_us;
      }
    }
    if (!values.empty()) {
      sum.mean = total / static_cast<double>(values.size());
      sum.p50 = series_percentile(values, 50.0);
      sum.p95 = series_percentile(values, 95.0);
      sum.p99 = series_percentile(values, 99.0);
      sum.last = values.back();
    }
    out.push_back(std::move(sum));
  }
  return out;
}

// Column index by name; -1 when absent.
inline int series_column(const ParsedSeries& s, const std::string& name) {
  for (std::size_t i = 0; i < s.columns.size(); ++i) {
    if (s.columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// Channel utilization per interval, derived from the cumulative airtime
// column: util[i] = (air_us[i] - air_us[i-1]) / interval — the average
// number of concurrent transmissions over the interval. Empty when the
// airtime column is missing: `pdscli stats` then reports no utilization (a
// legal pds-stats-report/1), while benches reject such a capture up front
// (bench_common.h's stats_point_gap).
inline std::vector<double> channel_utilization(const ParsedSeries& s) {
  std::vector<double> out;
  const int col = series_column(s, "radio.air_us");
  if (col < 0 || s.interval_us <= 0) return out;
  double prev = 0.0;
  for (const SeriesRow& row : s.rows) {
    const double cur = row.v[static_cast<std::size_t>(col)];
    out.push_back((cur - prev) / static_cast<double>(s.interval_us));
    prev = cur;
  }
  return out;
}

}  // namespace pds::tools

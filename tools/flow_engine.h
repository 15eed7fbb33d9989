// pdsflow rule engine (DESIGN.md §17): flow-sensitive static analysis over
// the per-function statement trees that tools/flow_analysis.h parses, with
// def-use taint tracking, the layering scan and the analyze() entry point.
// pdsflow and its tests include this header.
//
// Three rule families:
//
//   wire-taint       — values originating from ByteReader/varint getters
//                      (get_u8 ... get_varint, get_string) are tainted
//                      until compared against a bound; tainted values
//                      must not reach resize/reserve/assign-count, new[]
//                      extents, index expressions or loop bounds.
//                      Interprocedural via per-function summaries: taint
//                      through locals, arguments and return values.
//   decode-atomicity — a function that can throw DecodeError must not
//                      mutate member state (`x_`, `this->x`, references
//                      bound to members, container mutators) before a later
//                      potential-throw point; copy-then-swap passes.
//   layering         — the include graph must follow the architecture DAG
//                      (common < util < obs < sim < net < core < workload
//                      < tools < bench/tests/examples); grandfathered edges
//                      live in a checked-in baseline file.
//
// Scope: wire-taint and decode-atomicity run only over files under src/
// (tests construct malformed inputs on purpose); layering covers the whole
// tree. Suppress with a pdsflow:allow comment naming rule ids in
// parentheses on or above the line, or the pdsflow:allow-file form
// file-wide — audited exactly like pdslint's tags (lint_common.h).
// PDS_ENSURE aborts rather than throwing,
// so it counts as validation for taint but never as a throw point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "tools/flow_analysis.h"
#include "tools/lint_common.h"

namespace pds::flow {

using lint::Finding;
using lint::LexedFile;
using lint::LintSummary;
using lint::Severity;
using lint::Suppressions;

// One input to analyze(); `path` is the repo-relative display path and
// decides rule scoping (src/ vs the rest).
struct SourceFile {
  std::string path;
  std::string content;
};

// One waived finding: matches on (rule, file, fingerprint), never on line
// numbers, so unrelated edits don't invalidate the baseline.
struct BaselineEntry {
  std::string rule;
  std::string file;
  std::string fingerprint;
};

struct FlowOptions {
  std::vector<BaselineEntry> baseline;
};

struct FlowResult {
  std::vector<Finding> findings;
  LintSummary summary;
};

// ---------------------------------------------------------------------------
// Baseline file format: `<rule> <file> <fingerprint>` per line, `#` comments.

inline std::vector<BaselineEntry> parse_baseline(std::string_view text) {
  std::vector<BaselineEntry> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    // split on runs of spaces/tabs
    std::vector<std::string> fields;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      std::size_t b = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i > b) fields.emplace_back(line.substr(b, i - b));
    }
    if (fields.empty() || fields[0][0] == '#') {
      if (pos > text.size()) break;
      continue;
    }
    if (fields.size() == 3) out.push_back({fields[0], fields[1], fields[2]});
    if (pos > text.size()) break;
  }
  return out;
}

// Regenerates the baseline from findings: every finding that is not waived
// by an inline allow comment (baselined ones included, so the output is a
// full replacement for the checked-in file). Byte-deterministic.
inline std::string render_baseline(const std::vector<Finding>& findings) {
  std::vector<std::string> lines;
  for (const Finding& f : findings) {
    if (f.suppressed && !f.baselined) continue;  // inline-suppressed
    if (f.fingerprint.empty()) continue;
    lines.push_back(f.rule + " " + f.file + " " + f.fingerprint);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::string out =
      "# pdsflow baseline — waived findings, one per line:\n"
      "#   <rule> <file> <fingerprint>\n"
      "# Regenerate with: pdsflow --write-baseline=tools/pdsflow_baseline.txt\n";
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layering: the architecture DAG. A file may include headers of its own
// layer or lower ranks; an include pointing at a strictly higher rank is a
// back-edge. Paths are matched on their first component (after stripping a
// leading `src/`), so `src/net/codec.cc`, `tools/pdsflow.cc` and
// `tests/foo.cc` all resolve; includes without a known first component
// (same-directory, system, third-party) are exempt.

struct LayerSpec {
  const char* dir;
  int rank;
};

inline constexpr LayerSpec kLayers[] = {
    {"common", 0}, {"util", 1},     {"obs", 2},   {"sim", 3},
    {"net", 4},    {"core", 5},     {"workload", 6}, {"tools", 7},
    {"bench", 8},  {"tests", 8},    {"examples", 8},
};

inline int layer_rank(std::string_view first_component) {
  for (const LayerSpec& l : kLayers) {
    if (first_component == l.dir) return l.rank;
  }
  return -1;
}

inline std::string_view first_path_component(std::string_view path) {
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : path.substr(0, slash);
}

// Layer rank of a repo-relative file path, or -1 when it lives outside the
// layered tree.
inline int file_layer_rank(std::string_view path) {
  if (path.rfind("src/", 0) == 0) path.remove_prefix(4);
  return layer_rank(first_path_component(path));
}

namespace flow_detail {

// ---------------------------------------------------------------------------
// Taint lattice. A value is tainted when it derives from wire bytes (`src`)
// and/or from one of the enclosing function's parameters (`params`, a
// bitmask used to build interprocedural summaries). Comparing a variable
// against anything in an if-condition or PDS_ENSURE argument sanitizes it
// (drops it from the environment); loop conditions do NOT sanitize — a
// tainted loop bound is the sink itself.

struct Taint {
  bool src = false;
  std::uint64_t params = 0;

  [[nodiscard]] bool any() const { return src || params != 0; }
  void join(const Taint& o) {
    src = src || o.src;
    params |= o.params;
  }
};

// Per-function interprocedural summary, keyed by unqualified name (same-name
// functions merge conservatively).
struct Summary {
  Taint returns;                  // taint of the returned value
  std::uint64_t sink_params = 0;  // params that reach a size/index sink
  bool may_throw = false;         // can throw DecodeError
};

using SummaryMap = std::map<std::string, Summary>;

// ByteReader/varint getters: method calls returning wire-derived values.
// All of them throw DecodeError on underrun, so a call is also a potential
// throw point for decode-atomicity.
inline bool is_source_method(const std::string& s) {
  static const std::set<std::string> kSources = {
      "get_u8",  "get_u16",    "get_u32",       "get_u64",   "get_i64",
      "get_f64", "get_varint", "get_varint_i64", "get_string"};
  return kSources.count(s) != 0;
}

// Calls whose result is bounded regardless of argument taint.
inline bool is_sanitizer_call(const std::string& s) {
  return s == "min" || s == "clamp";
}

// Validation macros: arguments count as bounds-checked afterwards. These
// abort on failure (common/assert.h), so they are never throw points.
inline bool is_ensure_macro(const std::string& s) {
  return s == "PDS_ENSURE" || s == "PDS_ASSERT" || s == "assert";
}

// Container-mutating method names for the atomicity rule.
inline bool is_mutator_method(const std::string& s) {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "pop_back", "insert", "erase",
      "clear",     "resize",       "reserve",  "assign", "emplace",
      "swap",      "set_word"};
  return kMut.count(s) != 0;
}

inline bool is_member_name(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

// Taint environment for one walk: variable taints plus the set of local
// references/iterators known to alias member state.
struct Env {
  std::map<std::string, Taint> vars;
  std::set<std::string> member_refs;

  void join(const Env& o) {
    for (const auto& [k, v] : o.vars) vars[k].join(v);
    member_refs.insert(o.member_refs.begin(), o.member_refs.end());
  }
};

// Mutation/throw event stream for decode-atomicity, in statement order.
struct Event {
  bool is_throw = false;
  std::string name;  // mutated member (empty for throws)
  int line = 1;
  int order = 0;
  std::vector<int> loops;  // enclosing loop ids
};

struct EvalResult {
  Taint taint;
  std::string who;  // representative tainted identifier, for messages
};

// Analysis context for one function in one file.
struct FnCtx {
  const std::vector<Token>* toks = nullptr;
  const Function* fn = nullptr;
  SummaryMap* summaries = nullptr;
  const std::string* file = nullptr;
  const Suppressions* sup = nullptr;
  std::vector<Finding>* out = nullptr;  // null during summary-only passes
  Summary self;
  std::vector<Event> events;
  int order_counter = 0;
  int next_loop_id = 0;
  std::vector<int> loop_stack;
  int try_depth = 0;
};

inline void add_flow_finding(FnCtx& ctx, const char* rule, int line,
                             std::string message, std::string fingerprint) {
  if (ctx.out == nullptr) return;
  const lint::RuleSpec* spec = lint::find_flow_rule(rule);
  Finding f;
  f.rule = rule;
  f.severity = spec != nullptr ? spec->severity : Severity::kError;
  f.file = *ctx.file;
  f.line = line;
  f.message = std::move(message);
  f.suppressed = lint::suppressed_at(*ctx.sup, f.rule, line);
  f.fingerprint = std::move(fingerprint);
  ctx.out->push_back(std::move(f));
}

// Evaluates the taint of the expression tokens in [b, e). Flat scan:
// identifiers pull their environment taint, `.get_*()` calls contribute
// `src`, calls to summarized functions contribute their return taint, and
// std::min/clamp mask the taint of their arguments.
inline EvalResult eval_expr(const FnCtx& ctx, const Env& env, std::size_t b,
                            std::size_t e) {
  const auto& toks = *ctx.toks;
  EvalResult r;
  std::size_t i = b;
  while (i < e) {
    const Token& t = toks[i];
    if (is_punct(t, ".") || is_punct(t, "->")) {
      // Member access / method call: the base identifier was already
      // evaluated; skip the member name (but credit source getters).
      if (i + 1 < e && toks[i + 1].kind == TokKind::kIdent) {
        if (i + 2 < e && is_punct(toks[i + 2], "(") &&
            is_source_method(toks[i + 1].text)) {
          r.taint.src = true;
          if (r.who.empty()) r.who = toks[i + 1].text + "()";
        }
        i += 2;
        continue;
      }
      ++i;
      continue;
    }
    if (t.kind == TokKind::kIdent) {
      // Explicit template arguments (`std::min<std::size_t>(...)`) sit
      // between the callee name and the call parens; skip them when
      // deciding whether this identifier is a call.
      std::size_t paren = i + 1;
      if (is_sanitizer_call(t.text) && paren < e &&
          is_punct(toks[paren], "<")) {
        int depth = 0;
        while (paren < e) {
          if (is_punct(toks[paren], "<")) ++depth;
          if (is_punct(toks[paren], ">") && --depth == 0) {
            ++paren;
            break;
          }
          ++paren;
        }
      }
      const bool call = paren < e && is_punct(toks[paren], "(");
      if (call && is_sanitizer_call(t.text)) {
        i = match_balanced(toks, paren, e) + 1;  // bounded result
        continue;
      }
      if (call) {
        const auto it = ctx.summaries->find(t.text);
        if (it != ctx.summaries->end() && it->second.returns.src) {
          r.taint.src = true;
          if (r.who.empty()) r.who = t.text + "()";
        }
        // Param passthrough and unknown calls both resolve to "result
        // carries the arguments' taint", which the flat scan of the
        // argument tokens below provides.
        ++i;
        continue;
      }
      const auto v = env.vars.find(t.text);
      if (v != env.vars.end() && v->second.any()) {
        r.taint.join(v->second);
        if (r.who.empty()) r.who = t.text;
      }
      ++i;
      continue;
    }
    ++i;
    continue;
  }
  return r;
}

inline bool range_has_comparison(const std::vector<Token>& toks,
                                 std::size_t b, std::size_t e) {
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "<" || p == ">") return true;
    if ((p == "=" || p == "!") && i + 1 < e && is_punct(toks[i + 1], "=")) {
      return true;
    }
  }
  return false;
}

// Drops every identifier in [b, e) from the taint environment — the
// comparison/ENSURE semantics of sanitization.
inline void sanitize_range(const FnCtx& ctx, Env& env, std::size_t b,
                           std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind == TokKind::kIdent) env.vars.erase(toks[i].text);
  }
}

// Splits the balanced call at `open` (a `(`) into top-level argument
// ranges; returns the index of the closing paren.
inline std::size_t split_args(const std::vector<Token>& toks,
                              std::size_t open, std::size_t end,
                              std::vector<std::pair<std::size_t, std::size_t>>&
                                  args) {
  const std::size_t close = match_balanced(toks, open, end);
  std::size_t arg_start = open + 1;
  int d = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "(" || p == "{" || p == "[") ++d;
    if (p == ")" || p == "}" || p == "]") --d;
    if (p == "," && d == 0) {
      args.emplace_back(arg_start, i);
      arg_start = i + 1;
    }
  }
  if (close > arg_start) args.emplace_back(arg_start, close);
  return close;
}

// ---------------------------------------------------------------------------
// Sink scan: resize/reserve/assign-count, new[] extents, index expressions,
// and calls passing tainted values into summarized sink parameters.

inline void scan_sinks(FnCtx& ctx, Env& env, std::size_t b, std::size_t e) {
  const auto& toks = *ctx.toks;
  std::set<std::size_t> claimed_brackets;  // new[] extents, not subscripts
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    // `.resize(n)` / `.reserve(n)` / `.assign(n, v)`
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(")) {
      const std::string& m = toks[i + 1].text;
      if (m == "resize" || m == "reserve" || m == "assign") {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        split_args(toks, i + 2, e, args);
        if (!args.empty()) {
          const EvalResult a = eval_expr(ctx, env, args[0].first,
                                         args[0].second);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", toks[i + 1].line,
                "wire-tainted value '" + a.who + "' reaches ." + m +
                    "() in '" + ctx.fn->display +
                    "' without a bounds check — validate it against "
                    "remaining() or a cap first (allocation bomb)",
                "taint:" + ctx.fn->name + ":" + m + ":" + a.who);
          }
          ctx.self.sink_params |= a.taint.params;
        }
      }
    }
    // `new T[n]`
    if (is_ident(t, "new")) {
      for (std::size_t k = i + 1; k < e && k < i + 8; ++k) {
        if (toks[k].kind == TokKind::kPunct &&
            (toks[k].text == "(" || toks[k].text == ";" ||
             toks[k].text == ",")) {
          break;
        }
        if (is_punct(toks[k], "[")) {
          const std::size_t close = match_balanced(toks, k, e);
          claimed_brackets.insert(k);
          const EvalResult a = eval_expr(ctx, env, k + 1, close);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", toks[k].line,
                "wire-tainted value '" + a.who + "' sizes a new[] in '" +
                    ctx.fn->display +
                    "' without a bounds check (allocation bomb)",
                "taint:" + ctx.fn->name + ":new[]:" + a.who);
          }
          ctx.self.sink_params |= a.taint.params;
          break;
        }
      }
    }
    // subscript `expr[i]`
    if (is_punct(t, "[") && i > b && claimed_brackets.count(i) == 0 &&
        (toks[i - 1].kind == TokKind::kIdent || is_punct(toks[i - 1], "]") ||
         is_punct(toks[i - 1], ")"))) {
      const std::size_t close = match_balanced(toks, i, e);
      const EvalResult a = eval_expr(ctx, env, i + 1, close);
      if (a.taint.src) {
        add_flow_finding(
            ctx, "wire-taint", t.line,
            "wire-tainted value '" + a.who + "' used as an index in '" +
                ctx.fn->display + "' without a bounds check (OOB access)",
            "taint:" + ctx.fn->name + ":index:" + a.who);
      }
      ctx.self.sink_params |= a.taint.params;
    }
    // call passing tainted args into summarized sink parameters
    if (t.kind == TokKind::kIdent && i + 1 < e && is_punct(toks[i + 1], "(") &&
        (i == b || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      const auto it = ctx.summaries->find(t.text);
      if (it != ctx.summaries->end() && it->second.sink_params != 0) {
        std::vector<std::pair<std::size_t, std::size_t>> args;
        split_args(toks, i + 1, e, args);
        for (std::size_t k = 0; k < args.size() && k < 64; ++k) {
          if ((it->second.sink_params & (1ULL << k)) == 0) continue;
          const EvalResult a =
              eval_expr(ctx, env, args[k].first, args[k].second);
          if (a.taint.src) {
            add_flow_finding(
                ctx, "wire-taint", t.line,
                "wire-tainted value '" + a.who + "' passed to '" + t.text +
                    "()' (parameter " + std::to_string(k) +
                    "), which uses it as a size or index without a bounds "
                    "check",
                "taint:" + ctx.fn->name + ":call-" + t.text + ":" + a.who);
          }
          ctx.self.sink_params |= a.taint.params;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Throw-point and mutation event scans (decode-atomicity).

inline void record_event(FnCtx& ctx, bool is_throw, std::string name,
                         int line) {
  Event ev;
  ev.is_throw = is_throw;
  ev.name = std::move(name);
  ev.line = line;
  ev.order = ctx.order_counter++;
  ev.loops = ctx.loop_stack;
  ctx.events.push_back(std::move(ev));
}

// Source-method calls and calls to may-throw functions inside [b, e) are
// potential DecodeError throw points.
inline void scan_throw_points(FnCtx& ctx, std::size_t b, std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    bool throws = false;
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(") &&
        is_source_method(toks[i + 1].text)) {
      throws = true;
    }
    if (t.kind == TokKind::kIdent && i + 1 < e && is_punct(toks[i + 1], "(") &&
        (i == b || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      const auto it = ctx.summaries->find(t.text);
      if (it != ctx.summaries->end() && it->second.may_throw) throws = true;
    }
    if (throws && ctx.try_depth == 0) {
      ctx.self.may_throw = true;
      record_event(ctx, true, std::string(), t.line);
    }
  }
}

// Walks back a `.`/`->`/`[...]` access chain ending just before `at` and
// returns the base identifier index, or `npos`.
inline std::size_t chain_base(const std::vector<Token>& toks, std::size_t at,
                              std::size_t b) {
  std::size_t i = at;
  while (i > b) {
    const Token& t = toks[i - 1];
    if (t.kind == TokKind::kIdent) {
      if (i - 1 == b || (!is_punct(toks[i - 2], ".") &&
                         !is_punct(toks[i - 2], "->"))) {
        return i - 1;
      }
      i -= 2;  // skip the member name and its accessor
      continue;
    }
    if (is_punct(t, "]")) {
      // skip back over the balanced [...]
      int d = 0;
      std::size_t k = i - 1;
      while (k > b) {
        if (is_punct(toks[k], "]")) ++d;
        if (is_punct(toks[k], "[")) {
          if (--d == 0) break;
        }
        --k;
      }
      i = k;
      continue;
    }
    if (is_punct(t, ")")) return std::string::npos;  // call result; ignore
    return std::string::npos;
  }
  return std::string::npos;
}

inline bool aliases_member(const Env& env, const std::string& name) {
  return is_member_name(name) || name == "this" ||
         env.member_refs.count(name) != 0;
}

// Mutating method calls (`x_.push_back(...)`) and member increments.
inline void scan_mutations(FnCtx& ctx, const Env& env, std::size_t b,
                           std::size_t e) {
  const auto& toks = *ctx.toks;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < e &&
        toks[i + 1].kind == TokKind::kIdent && is_punct(toks[i + 2], "(") &&
        is_mutator_method(toks[i + 1].text)) {
      const std::size_t base = chain_base(toks, i, b);
      if (base != std::string::npos && aliases_member(env, toks[base].text)) {
        record_event(ctx, false, toks[base].text, toks[i + 1].line);
      }
    }
    // ++x_ / x_++ / --x_ / x_--
    if (t.kind == TokKind::kIdent && aliases_member(env, t.text)) {
      const bool pre =
          i >= b + 2 &&
          ((is_punct(toks[i - 1], "+") && is_punct(toks[i - 2], "+")) ||
           (is_punct(toks[i - 1], "-") && is_punct(toks[i - 2], "-")));
      const bool post =
          i + 2 < e &&
          ((is_punct(toks[i + 1], "+") && is_punct(toks[i + 2], "+")) ||
           (is_punct(toks[i + 1], "-") && is_punct(toks[i + 2], "-")));
      if (pre || post) record_event(ctx, false, t.text, t.line);
    }
  }
}

// ---------------------------------------------------------------------------
// Statement walker.

inline void walk_stmts(FnCtx& ctx, Env& env, const std::vector<Stmt>& stmts);

// Handles assignments/declarations in a plain statement: updates the taint
// environment, tracks member-aliasing references, and records member
// mutation events.
inline void handle_assignment(FnCtx& ctx, Env& env, std::size_t b,
                              std::size_t e) {
  const auto& toks = *ctx.toks;
  // Find the first top-level simple `=` (not ==, <=, >=, !=, +=, ...).
  std::size_t eq = e;
  int d = 0;
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& p = toks[i].text;
    if (p == "(" || p == "{" || p == "[") ++d;
    if (p == ")" || p == "}" || p == "]") --d;
    if (p == "=" && d == 0) {
      const bool next_eq = i + 1 < e && is_punct(toks[i + 1], "=");
      const bool prev_op =
          i > b && toks[i - 1].kind == TokKind::kPunct &&
          std::string("=!<>+-*/%&|^").find(toks[i - 1].text) !=
              std::string::npos;
      if (!next_eq && !prev_op) {
        eq = i;
        break;
      }
      if (next_eq) ++i;  // skip ==
    }
  }
  if (eq == e) return;

  const EvalResult rhs = eval_expr(ctx, env, eq + 1, e);

  // Locate the assignment target in [b, eq).
  bool has_bracket = false;
  std::size_t last_ident = e, first_ident = e;
  for (std::size_t i = b; i < eq; ++i) {
    if (is_punct(toks[i], "[")) has_bracket = true;
    if (toks[i].kind == TokKind::kIdent) {
      if (first_ident == e) first_ident = i;
      last_ident = i;
    }
  }
  if (last_ident == e) return;

  const bool member_access =
      last_ident > b && (is_punct(toks[last_ident - 1], ".") ||
                         is_punct(toks[last_ident - 1], "->"));
  if (!has_bracket && !member_access) {
    // Strong update of a plain variable (declaration or reassignment).
    const std::string& var = toks[last_ident].text;
    if (rhs.taint.any()) {
      env.vars[var] = rhs.taint;
    } else {
      env.vars.erase(var);
    }
    // Reference declarations bound to member state alias it: mutations
    // through the reference are member mutations. Iterators obtained from
    // member containers alias the same way even without `&`.
    bool lhs_has_amp = false;
    for (std::size_t i = b; i < eq; ++i) {
      if (is_punct(toks[i], "&")) lhs_has_amp = true;
    }
    bool rhs_touches_member = false;
    for (std::size_t i = eq + 1; i < e; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          aliases_member(env, toks[i].text)) {
        rhs_touches_member = true;
        break;
      }
    }
    bool rhs_is_member_iter = false;
    for (std::size_t i = eq + 1; i + 2 < e; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          toks[i + 2].kind == TokKind::kIdent &&
          (toks[i + 2].text == "find" || toks[i + 2].text == "begin" ||
           toks[i + 2].text == "end" || toks[i + 2].text == "lower_bound")) {
        // Only containers that are themselves member state count — the
        // chain base decides (`sessions_.find(x)` yes, `d.attrs_.begin()`
        // on a local `d` no).
        const std::size_t base = chain_base(toks, i + 1, eq + 1);
        if (base != std::string::npos &&
            aliases_member(env, toks[base].text)) {
          rhs_is_member_iter = true;
          break;
        }
      }
    }
    // Record the mutation BEFORE registering new aliases: binding a
    // reference/iterator to member state is not itself a mutation; only
    // assigning through an alias established earlier is.
    if (aliases_member(env, var)) {
      record_event(ctx, false, var, toks[last_ident].line);
    }
    if ((lhs_has_amp && rhs_touches_member) || rhs_is_member_iter) {
      env.member_refs.insert(var);
    }
    return;
  }

  // Member/array store: weak update of the base identifier.
  const std::size_t base = chain_base(toks, eq, b);
  const std::size_t base_at = base != std::string::npos ? base : first_ident;
  const std::string& base_name = toks[base_at].text;
  if (rhs.taint.any()) env.vars[base_name].join(rhs.taint);
  if (aliases_member(env, base_name)) {
    record_event(ctx, false, base_name, toks[base_at].line);
  }
}

inline void walk_plain(FnCtx& ctx, Env& env, const Stmt& s) {
  const auto& toks = *ctx.toks;
  // PDS_ENSURE(...) validates its arguments (and aborts on failure — it is
  // not a throw point).
  for (std::size_t i = s.head_begin; i < s.head_end; ++i) {
    if (toks[i].kind == TokKind::kIdent && is_ensure_macro(toks[i].text) &&
        i + 1 < s.head_end && is_punct(toks[i + 1], "(")) {
      const std::size_t close = match_balanced(toks, i + 1, s.head_end);
      sanitize_range(ctx, env, i + 2, close);
    }
  }
  scan_throw_points(ctx, s.head_begin, s.head_end);
  scan_sinks(ctx, env, s.head_begin, s.head_end);
  scan_mutations(ctx, env, s.head_begin, s.head_end);
  handle_assignment(ctx, env, s.head_begin, s.head_end);
}

inline void walk_stmt(FnCtx& ctx, Env& env, const Stmt& s) {
  const auto& toks = *ctx.toks;
  switch (s.kind) {
    case Stmt::Kind::kPlain:
      walk_plain(ctx, env, s);
      break;
    case Stmt::Kind::kBlock:
      walk_stmts(ctx, env, s.body);
      break;
    case Stmt::Kind::kIf: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      // Comparing a tainted variable in an if-condition sanitizes it — the
      // idiom `if (n > cap) throw ...;` as well as `if (n <= cap) use(n);`.
      if (range_has_comparison(toks, s.head_begin, s.head_end)) {
        sanitize_range(ctx, env, s.head_begin, s.head_end);
      }
      Env then_env = env;
      walk_stmts(ctx, then_env, s.body);
      Env else_env = env;
      walk_stmts(ctx, else_env, s.else_body);
      env = then_env;
      env.join(else_env);
      break;
    }
    case Stmt::Kind::kLoop: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      // A loop bound is a sink, not a sanitizer: iteration count driven by
      // an unchecked wire value is the allocation/CPU bomb itself.
      const EvalResult cond =
          eval_expr(ctx, env, s.head_begin, s.head_end);
      if (cond.taint.src) {
        const int line = s.head_begin < toks.size()
                             ? toks[s.head_begin > 0 ? s.head_begin - 1 : 0]
                                   .line
                             : ctx.fn->line;
        add_flow_finding(
            ctx, "wire-taint", line,
            "wire-tainted value '" + cond.who + "' bounds a loop in '" +
                ctx.fn->display +
                "' without validation — an attacker-controlled count drives "
                "iteration and allocation",
            "taint:" + ctx.fn->name + ":loop-bound:" + cond.who);
        // Avoid cascading findings from the same unchecked bound.
        sanitize_range(ctx, env, s.head_begin, s.head_end);
      }
      ctx.self.sink_params |= cond.taint.params;
      const int loop_id = ctx.next_loop_id++;
      ctx.loop_stack.push_back(loop_id);
      Env body_env = env;
      walk_stmts(ctx, body_env, s.body);
      ctx.loop_stack.pop_back();
      env.join(body_env);
      break;
    }
    case Stmt::Kind::kSwitch: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      walk_stmts(ctx, env, s.body);
      break;
    }
    case Stmt::Kind::kTry: {
      ++ctx.try_depth;  // caught exceptions are not atomicity hazards
      walk_stmts(ctx, env, s.body);
      --ctx.try_depth;
      walk_stmts(ctx, env, s.else_body);
      break;
    }
    case Stmt::Kind::kReturn: {
      scan_throw_points(ctx, s.head_begin, s.head_end);
      scan_sinks(ctx, env, s.head_begin, s.head_end);
      const EvalResult r = eval_expr(ctx, env, s.head_begin, s.head_end);
      ctx.self.returns.join(r.taint);
      break;
    }
    case Stmt::Kind::kThrow: {
      bool decode_error = false;
      for (std::size_t i = s.head_begin; i < s.head_end; ++i) {
        if (is_ident(toks[i], "DecodeError")) decode_error = true;
      }
      if (decode_error && ctx.try_depth == 0) {
        ctx.self.may_throw = true;
        record_event(ctx, true, std::string(),
                     s.head_begin < toks.size() ? toks[s.head_begin].line
                                                : ctx.fn->line);
      }
      break;
    }
    case Stmt::Kind::kJump:
      break;
  }
}

inline void walk_stmts(FnCtx& ctx, Env& env, const std::vector<Stmt>& stmts) {
  for (const Stmt& s : stmts) walk_stmt(ctx, env, s);
}

// ---------------------------------------------------------------------------
// Per-function analysis: one walk computes the summary; on the emitting
// pass it also produces wire-taint findings (during the walk) and
// decode-atomicity findings (from the event stream afterwards).

inline Summary analyze_function(const std::vector<Token>& toks,
                                const Function& fn, SummaryMap& summaries,
                                const std::string& file,
                                const Suppressions* sup,
                                std::vector<Finding>* out) {
  FnCtx ctx;
  ctx.toks = &toks;
  ctx.fn = &fn;
  ctx.summaries = &summaries;
  ctx.file = &file;
  ctx.sup = sup;
  ctx.out = out;

  Env env;
  for (std::size_t i = 0; i < fn.params.size() && i < 64; ++i) {
    if (fn.params[i].empty()) continue;
    Taint t;
    t.params = 1ULL << i;
    env.vars[fn.params[i]] = t;
  }
  walk_stmts(ctx, env, fn.stmts);

  // decode-atomicity: a member mutation is hazardous when a potential
  // DecodeError throw point follows it in statement order, or shares an
  // enclosing loop (the next iteration may throw after this one mutated).
  // Constructors are exempt: a throwing constructor discards the object.
  if (out != nullptr && !fn.is_ctor_or_dtor) {
    std::set<std::string> flagged;
    for (const Event& m : ctx.events) {
      if (m.is_throw || flagged.count(m.name) != 0) continue;
      bool hazard = false;
      for (const Event& t : ctx.events) {
        if (!t.is_throw) continue;
        if (t.order > m.order) {
          hazard = true;
          break;
        }
        for (int loop : t.loops) {
          if (std::find(m.loops.begin(), m.loops.end(), loop) !=
              m.loops.end()) {
            hazard = true;
            break;
          }
        }
        if (hazard) break;
      }
      if (hazard) {
        flagged.insert(m.name);
        FnCtx report = ctx;  // reuse the finding helper with ctx state
        add_flow_finding(
            report, "decode-atomicity", m.line,
            "member '" + m.name + "' is mutated in '" + fn.display +
                "' before a later potential DecodeError throw point — a "
                "malformed input leaves partial state; stage into locals "
                "and commit after the last throw (copy-then-swap)",
            "atomicity:" + fn.name + ":" + m.name);
      }
    }
  }
  return ctx.self;
}

// ---------------------------------------------------------------------------
// Layering scan over the include directives of one lexed file.

inline void scan_layering(const std::vector<Token>& toks,
                          const std::string& file, const Suppressions& sup,
                          std::vector<Finding>& out) {
  const int from_rank = file_layer_rank(file);
  if (from_rank < 0) return;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], "#") || !is_ident(toks[i + 1], "include") ||
        toks[i + 2].kind != TokKind::kString) {
      continue;
    }
    const std::string& quoted = toks[i + 2].text;
    if (quoted.size() < 2) continue;
    const std::string inc = quoted.substr(1, quoted.size() - 2);
    const int to_rank = layer_rank(first_path_component(inc));
    if (to_rank < 0 || to_rank <= from_rank) continue;
    const lint::RuleSpec* spec = lint::find_flow_rule("layering");
    Finding f;
    f.rule = "layering";
    f.severity = spec->severity;
    f.file = file;
    f.line = toks[i].line;
    f.message = "'" + file + "' (layer rank " + std::to_string(from_rank) +
                ") includes '" + inc + "' (rank " + std::to_string(to_rank) +
                "): lower layers must not depend on higher ones";
    f.suppressed = lint::suppressed_at(sup, f.rule, f.line);
    f.fingerprint = "includes:" + inc;
    out.push_back(std::move(f));
  }
}

inline bool in_flow_scope(const std::string& path) {
  return path.rfind("src/", 0) == 0;
}

}  // namespace flow_detail

// ---------------------------------------------------------------------------
// Entry point. Lexes and parses every file, builds interprocedural
// summaries over the src/ scope to a fixpoint (three joins — enough for the
// call-depths in this tree), then emits findings, applies the baseline and
// summarizes. Deterministic: files are processed in the given order and
// findings are fully sorted.

inline FlowResult analyze(const std::vector<SourceFile>& files,
                          const FlowOptions& opts = {}) {
  using namespace flow_detail;

  struct FileState {
    const SourceFile* src = nullptr;
    LexedFile lexed;
    Suppressions sup;
    std::vector<Function> fns;
  };
  std::vector<FileState> states;
  states.reserve(files.size());
  for (const SourceFile& f : files) {
    FileState st;
    st.src = &f;
    st.lexed = lint::lex(f.content);
    st.sup = lint::collect_suppressions(st.lexed, f.path, "pdsflow");
    if (in_flow_scope(f.path)) {
      st.fns = collect_functions(st.lexed.tokens);
    }
    states.push_back(std::move(st));
  }

  // Summary fixpoint: joins are monotone, so a few rounds suffice for the
  // transitive call chains in this tree.
  SummaryMap summaries;
  for (int round = 0; round < 3; ++round) {
    for (const FileState& st : states) {
      for (const Function& fn : st.fns) {
        const Summary s = analyze_function(st.lexed.tokens, fn, summaries,
                                           st.src->path, nullptr, nullptr);
        Summary& merged = summaries[fn.name];
        merged.returns.join(s.returns);
        merged.sink_params |= s.sink_params;
        merged.may_throw = merged.may_throw || s.may_throw;
      }
    }
  }

  // Emitting pass.
  std::vector<Finding> findings;
  for (const FileState& st : states) {
    findings.insert(findings.end(), st.sup.bad.begin(), st.sup.bad.end());
    scan_layering(st.lexed.tokens, st.src->path, st.sup, findings);
    for (const Function& fn : st.fns) {
      analyze_function(st.lexed.tokens, fn, summaries, st.src->path, &st.sup,
                       &findings);
    }
  }

  // Baseline: match on (rule, file, fingerprint); matched findings count as
  // suppressed but stay in the report flagged `baselined`.
  std::set<std::tuple<std::string, std::string, std::string>> baseline;
  for (const BaselineEntry& b : opts.baseline) {
    baseline.insert({b.rule, b.file, b.fingerprint});
  }
  for (Finding& f : findings) {
    if (!f.suppressed && !f.fingerprint.empty() &&
        baseline.count({f.rule, f.file, f.fingerprint}) != 0) {
      f.suppressed = true;
      f.baselined = true;
    }
  }

  lint::sort_findings(findings);
  FlowResult res;
  res.summary = lint::summarize(findings, static_cast<int>(files.size()));
  res.findings = std::move(findings);
  return res;
}

// Machine-readable findings report (schema pds-flow-report/1), shaped like
// pds-lint-report/1 plus per-finding fingerprints.
inline std::string render_flow_json(const FlowResult& res) {
  return lint::render_findings_json(lint::kFlowReportSchema, lint::kFlowRules,
                                    res.findings, res.summary);
}

}  // namespace pds::flow

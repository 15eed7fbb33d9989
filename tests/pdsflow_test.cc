// pdsflow engine tests: every rule family fires on a seeded fixture
// violation and stays quiet on the corrected form, taint flows through
// locals / arguments / returns and is erased by bounds comparisons,
// suppression comments round-trip (with the bad-suppression audit covering
// both tools' tags), baselines waive by fingerprint so line drift never
// invalidates them, and the JSON report is byte-deterministic and parses
// with the bench-report reader.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/flow_engine.h"
#include "tools/report_reader.h"

namespace pds::flow {
namespace {

using lint::Finding;

// Analyzes one fixture under a src/-like path so the wire-taint and
// decode-atomicity families apply.
std::vector<Finding> run(const std::string& content,
                         const std::string& path = "src/net/fixture.cc",
                         const FlowOptions& opts = {}) {
  const FlowResult res = analyze({{path, content}}, opts);
  return res.findings;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule,
               bool suppressed = false) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(), [&](const Finding& f) {
        return f.rule == rule && f.suppressed == suppressed;
      }));
}

// --- wire-taint ------------------------------------------------------------

TEST(PdsflowTaint, UnvalidatedWireCountBoundsLoop) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& out) {\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  for (std::uint16_t i = 0; i < n; ++i) out.push_back(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, BoundsComparisonSanitizes) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& out) {\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  if (std::size_t{n} * 4 > r.remaining()) {\n"
      "    throw DecodeError(\"count exceeds buffer\");\n"
      "  }\n"
      "  for (std::uint16_t i = 0; i < n; ++i) out.push_back(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, EnsureMacroSanitizes) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  PDS_ENSURE(n <= 64);\n"
      "  v.resize(n);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, TaintFlowsThroughLocalAssignment) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  const std::size_t count = n;\n"
      "  v.resize(count);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, StdMinMasksTaint) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  const std::size_t count = std::min<std::size_t>(n, 64);\n"
      "  v.resize(count);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, TaintedIndexAndNewArray) {
  const auto fs = run(
      "int pick(ByteReader& r, const std::vector<int>& v) {\n"
      "  const std::uint32_t idx = r.get_u32();\n"
      "  return v[idx];\n"
      "}\n"
      "char* grab(ByteReader& r) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  return new char[n];\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 2);
}

TEST(PdsflowTaint, InterproceduralSinkParameter) {
  // `fill` uses its parameter 0 as a resize size without validation, so a
  // wire-tainted argument at the call site is a finding.
  const auto fs = run(
      "void fill(std::size_t n, std::vector<int>& v) { v.resize(n); }\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  fill(n, v);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, InterproceduralTaintedReturn) {
  const auto fs = run(
      "std::uint32_t read_count(ByteReader& r) { return r.get_u32(); }\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = read_count(r);\n"
      "  v.resize(n);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, OutOfScopePathsAreExempt) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  for (std::uint16_t i = 0; i < n; ++i) v.push_back(1);\n"
      "}\n",
      "tests/fixture.cc");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

// --- decode-atomicity ------------------------------------------------------

TEST(PdsflowAtomicity, MemberMutationBeforeThrowIsFlagged) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    names_.push_back(r.get_string());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, CopyThenSwapIsClean) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    std::vector<std::string> tmp;\n"
      "    tmp.push_back(r.get_string());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "    names_ = std::move(tmp);\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

TEST(PdsflowAtomicity, MutationInsideThrowingLoopIsFlagged) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r, std::uint16_t n) {\n"
      "    if (n > 8) throw DecodeError(\"count\");\n"
      "    for (std::uint16_t i = 0; i < n; ++i) {\n"
      "      names_.push_back(r.get_string());\n"
      "    }\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, MutationThroughMemberReferenceAlias) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    std::string& slot = prev_[0];\n"
      "    slot = r.get_string();\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::string> prev_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, BindingAConstReferenceIsNotAMutation) {
  const auto fs = run(
      "struct Table {\n"
      "  std::string decode(ByteReader& r) {\n"
      "    const std::string& name = names_[0];\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "    return name;\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

TEST(PdsflowAtomicity, ConstructorsAreExempt) {
  const auto fs = run(
      "struct Frame {\n"
      "  explicit Frame(ByteReader& r) {\n"
      "    words_.push_back(r.get_u64());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::uint64_t> words_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

// --- layering --------------------------------------------------------------

TEST(PdsflowLayering, LowerLayerIncludingHigherIsFlagged) {
  const auto fs = run("#include \"core/predicate.h\"\n", "src/net/fixture.h");
  ASSERT_EQ(count_rule(fs, "layering"), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "layering";
  });
  EXPECT_EQ(it->fingerprint, "includes:core/predicate.h");
}

TEST(PdsflowLayering, DownwardAndSameLayerIncludesAreClean) {
  const auto fs = run(
      "#include \"common/bytes.h\"\n"
      "#include \"net/message.h\"\n"
      "#include \"util/stats.h\"\n",
      "src/core/fixture.h");
  EXPECT_EQ(count_rule(fs, "layering"), 0);
}

TEST(PdsflowLayering, AppliesOutsideSrcScopeToo) {
  const auto fs =
      run("#include \"core/predicate.h\"\n", "tools/fixture_tool.cc");
  EXPECT_EQ(count_rule(fs, "layering"), 0)
      << "tools may include anything below them";
  const auto low = run("#include \"sim/clock.h\"\n", "src/obs/fixture.h");
  EXPECT_EQ(count_rule(low, "layering"), 1);
}

TEST(PdsflowLayering, BaselineWaivesByFingerprintNotLine) {
  FlowOptions opts;
  opts.baseline = parse_baseline(
      "# comment line\n"
      "layering src/net/fixture.h includes:core/predicate.h\n");
  // Leading blank lines shift the include's line number; the fingerprint
  // match must still waive it.
  const auto fs =
      run("\n\n\n#include \"core/predicate.h\"\n", "src/net/fixture.h", opts);
  EXPECT_EQ(count_rule(fs, "layering", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "layering", /*suppressed=*/false), 0);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "layering";
  });
  EXPECT_TRUE(it->baselined);
}

TEST(PdsflowLayering, BaselineRoundTripsThroughRenderAndParse) {
  const auto fs = run("#include \"core/predicate.h\"\n", "src/net/fixture.h");
  const std::string text = render_baseline(fs);
  const auto entries = parse_baseline(text);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "layering");
  EXPECT_EQ(entries[0].file, "src/net/fixture.h");
  EXPECT_EQ(entries[0].fingerprint, "includes:core/predicate.h");
}

// --- suppressions ----------------------------------------------------------

TEST(PdsflowSuppression, AllowCommentSuppressesOnOffendingLine) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());  // pdsflow:allow(wire-taint)\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/false), 0);
}

TEST(PdsflowSuppression, AllowFileCoversWholeFile) {
  const auto fs = run(
      "// pdsflow:allow-file(wire-taint)\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());\n"
      "  std::vector<int> w;\n"
      "  w.resize(r.get_u32());\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/true), 2);
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/false), 0);
}

TEST(PdsflowSuppression, UnknownRuleNameIsBadSuppression) {
  const auto fs = run("int x = 0;  // pdsflow:allow(no-such-rule)\n");
  EXPECT_EQ(count_rule(fs, "bad-suppression"), 1);
}

TEST(PdsflowSuppression, AuditsPdslintTagsToo) {
  // The multi-tool audit: a typo in the *other* linter's tag still fails
  // loudly no matter which tool scans the file first.
  const auto fs = run("int x = 0;  // pdslint:allow(no-such-rule)\n");
  EXPECT_EQ(count_rule(fs, "bad-suppression"), 1);
  const auto ok = run("long t = 0;  // pdslint:allow(wall-clock)\n");
  EXPECT_EQ(count_rule(ok, "bad-suppression"), 0);
}

// --- report ----------------------------------------------------------------

TEST(PdsflowReport, JsonParsesAndIsByteDeterministic) {
  const std::vector<SourceFile> files = {
      {"src/net/fixture.h", "#include \"core/predicate.h\"\n"},
      {"src/net/fixture.cc",
       "void decode(ByteReader& r, std::vector<int>& v) {\n"
       "  v.resize(r.get_u32());\n"
       "}\n"}};
  const FlowResult a = analyze(files);
  const FlowResult b = analyze(files);
  const std::string ja = render_flow_json(a);
  EXPECT_EQ(ja, render_flow_json(b));

  std::string error;
  const auto root = tools::parse_json(ja, &error);
  ASSERT_TRUE(root.has_value()) << error;
  const tools::JsonValue* schema = root->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, lint::kFlowReportSchema);
  const tools::JsonValue* rules = root->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(), std::size(lint::kFlowRules));
  const tools::JsonValue* findings = root->find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->items.size(), a.findings.size());
}

TEST(PdsflowReport, FindingsAreSortedAndCounted) {
  const std::vector<SourceFile> files = {
      {"src/net/b_fixture.h", "#include \"core/predicate.h\"\n"},
      {"src/net/a_fixture.h", "#include \"core/descriptor.h\"\n"}};
  const FlowResult res = analyze(files);
  ASSERT_EQ(res.findings.size(), 2u);
  EXPECT_LE(res.findings[0].file, res.findings[1].file);
  EXPECT_EQ(res.summary.errors, 2);
  EXPECT_EQ(res.summary.files_scanned, 2);
  EXPECT_EQ(res.summary.unsuppressed(), 2);
}

}  // namespace
}  // namespace pds::flow

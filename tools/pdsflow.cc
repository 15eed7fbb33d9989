// pdsflow — flow-sensitive static analysis gate (DESIGN.md §17).
//
// Scans the tree (or explicit paths) with the wire-taint, decode-atomicity
// and layering rule families from tools/flow_engine.h, prints
// compiler-style diagnostics, and optionally writes a machine-readable JSON
// report (schema pds-flow-report/1) for CI artifacts. Grandfathered
// findings live in a checked-in baseline (tools/pdsflow_baseline.txt by
// default) keyed by (rule, file, fingerprint) so line drift never
// invalidates it; --write-baseline regenerates the file.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tools/flow_engine.h"

namespace fs = std::filesystem;
using pds::lint::cli::display_path;
using pds::lint::cli::read_file;

namespace {

constexpr const char* kUsage =
    "usage: pdsflow [--root=DIR] [--json=PATH] [--baseline=PATH]\n"
    "               [--write-baseline[=PATH]] [--no-baseline]\n"
    "               [--list-rules] [PATH...]\n"
    "\n"
    "Flow-sensitive analysis of C++ sources: wire-taint (unvalidated wire\n"
    "lengths reaching allocations/indices/loop bounds), decode-atomicity\n"
    "(member mutation before a later DecodeError throw) and layering\n"
    "(architecture-DAG include violations). With no PATH arguments, scans\n"
    "src/, tools/, bench/, tests/ and examples/ under --root (default: the\n"
    "current directory); wire-taint and decode-atomicity apply to src/\n"
    "only. Suppress a finding with // pdsflow:allow(<rule>) on the\n"
    "offending or preceding line, or file-wide with\n"
    "// pdsflow:allow-file(<rule>). Grandfathered findings are waived by\n"
    "the baseline file (default: tools/pdsflow_baseline.txt under --root).\n";

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::string baseline_path;
  std::string write_baseline_path;
  bool write_baseline = false;
  bool no_baseline = false;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg == "--no-baseline") {
      no_baseline = true;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline = true;
      write_baseline_path = arg.substr(17);
    } else if (arg == "--list-rules") {
      for (const pds::lint::RuleSpec& r : pds::lint::kFlowRules) {
        std::printf("%-18s %-8s %s\n", r.id,
                    pds::lint::severity_name(r.severity), r.invariant);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pdsflow: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }

  if (inputs.empty()) {
    for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
      const fs::path p = root / dir;
      if (fs::exists(p)) inputs.push_back(p);
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "pdsflow: nothing to scan under %s\n",
                   root.string().c_str());
      return 2;
    }
  }

  std::vector<fs::path> files;
  std::string gather_error;
  if (!pds::lint::cli::gather_files(inputs, files, gather_error)) {
    std::fprintf(stderr, "pdsflow: cannot read %s\n", gather_error.c_str());
    return 2;
  }

  std::vector<pds::flow::SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::string content;
    if (!read_file(file, content)) {
      std::fprintf(stderr, "pdsflow: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    sources.push_back({display_path(file, root), std::move(content)});
  }

  pds::flow::FlowOptions opts;
  if (!no_baseline) {
    fs::path bp = baseline_path.empty()
                      ? root / "tools" / "pdsflow_baseline.txt"
                      : fs::path(baseline_path);
    std::string text;
    if (read_file(bp, text)) {
      opts.baseline = pds::flow::parse_baseline(text);
    } else if (!baseline_path.empty()) {
      std::fprintf(stderr, "pdsflow: cannot read baseline %s\n",
                   bp.string().c_str());
      return 2;
    }
  }

  const pds::flow::FlowResult res = pds::flow::analyze(sources, opts);

  if (write_baseline) {
    const std::string text = pds::flow::render_baseline(res.findings);
    if (write_baseline_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else {
      std::ofstream out(write_baseline_path,
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "pdsflow: cannot write %s\n",
                     write_baseline_path.c_str());
        return 2;
      }
      out << text;
    }
  }

  int baselined = 0;
  for (const pds::lint::Finding& f : res.findings) {
    if (f.baselined) ++baselined;
    if (f.suppressed) continue;
    std::fprintf(stderr, "%s:%d: %s: [%s] %s\n", f.file.c_str(), f.line,
                 pds::lint::severity_name(f.severity), f.rule.c_str(),
                 f.message.c_str());
  }
  std::fprintf(stderr,
               "pdsflow: %d file(s), %d error(s), %d warning(s), "
               "%d suppressed (%d baselined)\n",
               res.summary.files_scanned, res.summary.errors,
               res.summary.warnings, res.summary.suppressed, baselined);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "pdsflow: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << pds::flow::render_flow_json(res) << "\n";
  }

  return res.summary.unsuppressed() > 0 ? 1 : 0;
}

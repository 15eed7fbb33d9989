// Scoped wall-clock profiler with a hierarchical subsystem tree.
//
// A Profiler accumulates wall-clock time per named scope, nested by runtime
// scope nesting: `PDS_PROF_SCOPE(prof, "radio")` inside an open "sim" scope
// accumulates under the path "sim/radio". Scope names are string literals
// listed in kProfileScopes below (pdslint rule `stats-schema`).
//
// Threading: accumulation is atomic and the current-scope cursor is
// thread-local, so bench::run_indexed seed workers can all hold scopes
// against the same Profiler concurrently. Tree registration takes a mutex but only on first
// sight of a (parent, name) pair; steady state is two atomic adds per scope.
// `snapshot()` flattens the tree sorted by path — the *structure* is
// deterministic for a deterministic run even though the wall durations are
// not, and `merge_snapshots` folds per-run snapshots together in argument
// order so a PDS_BENCH_JOBS sweep merges identically however runs were
// scheduled across workers.
//
// Wall-clock readings never feed simulation state; a null or disabled
// profiler costs one pointer compare per scope.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pds::obs {

// Every PDS_PROF_SCOPE name. The hierarchy is runtime nesting, so this lists
// names, not paths; pdslint's `stats-schema` rule rejects a literal scope
// name missing here.
inline constexpr std::array<const char*, 7> kProfileScopes = {
    "sim", "radio", "scheduler", "pdd", "pdr", "transport", "telemetry",
};

class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // RAII scope. Inert when `profiler` is null or disabled.
  class Scope {
   public:
    Scope(Profiler* profiler, const char* name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_ = nullptr;
    int node_ = -1;
    int parent_ = -1;
    std::int64_t start_ns_ = 0;
  };

  struct Entry {
    std::string path;  // "sim/pdd/transport"
    int depth = 0;
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };

  // Flattened tree, sorted by path (deterministic structure).
  [[nodiscard]] std::vector<Entry> snapshot() const;

  // Folds many per-run snapshots into one, summing ns/calls by path; output
  // sorted by path regardless of input order.
  [[nodiscard]] static std::vector<Entry> merge_snapshots(
      const std::vector<std::vector<Entry>>& parts);

  // One NDJSON line `{"profile":[{"path":...,"depth":N,"ns":...,
  // "calls":...},...]}\n` — appended after a TimeSeries body so one file
  // carries both captures (tools/stats_analysis.h parses it back).
  [[nodiscard]] static std::string profile_json_line(
      const std::vector<Entry>& entries);

 private:
  struct Node {
    const char* name;
    int parent;  // -1 = root
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};

    Node(const char* n, int p) : name(n), parent(p) {}
  };

  // Finds or creates the child of `parent` named `name`; lock-free on the
  // hit path (nodes are append-only and never reallocated).
  int intern(int parent, const char* name);

  mutable std::mutex mu_;
  // deque-like stable storage: nodes never move once created.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> enabled_{true};

  friend class Scope;
};

}  // namespace pds::obs

// Token-pasting indirection so two scopes on different lines coexist.
#define PDS_PROF_CONCAT_INNER(a, b) a##b
#define PDS_PROF_CONCAT(a, b) PDS_PROF_CONCAT_INNER(a, b)
// Opens a profiler scope for the rest of the enclosing block. `name` must be
// a literal listed in pds::obs::kProfileScopes (pdslint `stats-schema`).
#define PDS_PROF_SCOPE(profiler, name)                  \
  const pds::obs::Profiler::Scope PDS_PROF_CONCAT(      \
      pds_prof_scope_, __LINE__)((profiler), (name))

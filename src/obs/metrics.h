// Metrics registry (DESIGN.md §9): a read-through view over plain stats
// fields.
//
// Subsystems keep their statistics as ordinary struct fields
// (sim::MediumStats, net::Transport::Stats, sim::FaultInjector's counters)
// and publish them here by name with `expose_counter`. The registry stores
// only the pointer and reads through it at snapshot time, so hot-path
// increments stay a plain `++field`, and the structs keep their layout,
// `operator==` and bit-identical-stats guarantees.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pds::obs {

// A point-in-time copy of every exposed counter, keyed by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Publishes `*source` under `name`; re-exposing a name rebinds it. The
  // caller guarantees `source` outlives the registry's use.
  void expose_counter(const std::string& name, const std::uint64_t* source);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, const std::uint64_t*> exposed_;
};

}  // namespace pds::obs

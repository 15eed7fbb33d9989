#include "obs/metrics.h"

#include "common/assert.h"

namespace pds::obs {

void MetricsRegistry::expose_counter(const std::string& name,
                                     const std::uint64_t* source) {
  PDS_ENSURE(source != nullptr);
  exposed_[name] = source;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const auto& [name, source] : exposed_) {
    out.counters.emplace(name, *source);
  }
  return out;
}

}  // namespace pds::obs

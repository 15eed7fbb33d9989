#include "sim/simulator.h"

#include "common/assert.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"

namespace pds::sim {

EventQueue::EventId Simulator::schedule_at(SimTime when,
                                           EventQueue::Action action) {
  PDS_ENSURE(when >= now_);
  return queue_.push(when, std::move(action));
}

void Simulator::run(SimTime horizon) {
  PDS_PROF_SCOPE(profiler_, "sim");
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    if (queue_.next_time() > horizon) break;
    auto [at, action] = [&] {
      PDS_PROF_SCOPE(profiler_, "scheduler");
      return queue_.pop();
    }();
    // Commit sampler rows for every interval boundary in (now_, at]: the row
    // reflects the state just before the event that crosses the boundary
    // executes. Reading state only — no scheduling, no RNG — so sampled and
    // unsampled runs stay byte-identical.
    if (sampler_ != nullptr && sampler_->due(at)) {
      PDS_PROF_SCOPE(profiler_, "telemetry");
      sampler_->advance_to(at);
    }
    now_ = at;
    ++events_executed_;
    action();
  }
  if (now_ < horizon && horizon != SimTime::max()) now_ = horizon;
  // Boundaries between the last event and the horizon still get rows, so a
  // quiet tail keeps its (flat) trajectory instead of truncating the series.
  if (sampler_ != nullptr && horizon != SimTime::max() &&
      sampler_->due(now_)) {
    PDS_PROF_SCOPE(profiler_, "telemetry");
    sampler_->advance_to(now_);
  }
}

}  // namespace pds::sim

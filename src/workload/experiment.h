// Reusable experiment harnesses.
//
// Each function assembles a full scenario, drives it to completion and
// returns the paper's metrics (§VI-A): Recall — fraction of distinct
// entries/chunks the consumer received; Latency — from sending the query to
// the arrival of the last returned entry/chunk; Message overhead — total
// bytes of all messages on the air. Bench binaries and integration tests are
// thin wrappers around these.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "sim/faults.h"
#include "sim/mobility.h"
#include "workload/scenario.h"

namespace pds::obs {
class Profiler;
class TimeSeries;
class Tracer;
}  // namespace pds::obs

namespace pds::wl {

// -- PDD on the static grid (§VI-B.1/2; Figs. 4–8 and the saturation text) --

struct PddGridParams {
  std::size_t nx = 10;
  std::size_t ny = 10;
  std::size_t metadata_count = 5000;
  int redundancy = 1;
  bool multi_round = true;  // false = single round (no re-query)
  bool ack = true;          // per-hop ack/retransmission
  std::size_t consumers = 1;
  bool sequential = false;  // consumers one-after-another vs simultaneous
  core::PdsConfig pds;
  // Radio profile (range is still taken from the grid geometry); lets tests
  // flip e.g. use_spatial_grid while holding everything else fixed.
  sim::RadioConfig radio;
  // Event scheduler; kHeap is the bit-identical oracle (sim/event_queue.h).
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;
  std::uint64_t seed = 1;
  SimTime horizon = SimTime::seconds(180.0);
  // Optional structured-event tracer attached to the run's simulator (owned
  // by the caller; see src/obs/trace.h). Tracing never perturbs outcomes.
  obs::Tracer* tracer = nullptr;
  // Optional flight-recorder sampler / wall-clock profiler (obs/timeseries.h,
  // obs/profiler.h; both caller-owned). Sampling reads state only, so
  // sampled and unsampled runs stay byte-identical.
  obs::TimeSeries* sampler = nullptr;
  obs::Profiler* profiler = nullptr;
  // Deterministic fault schedule (crash/churn/partition/burst/storm)
  // installed against the scenario before any session starts; empty = clean
  // run (see sim/faults.h and DESIGN.md §11).
  sim::FaultSchedule faults;
  // Optional per-node config override (see GridSetup::node_config) —
  // mixed-population interop runs give different nodes different wire
  // configs while sharing every other knob.
  std::function<void(NodeId, core::PdsConfig&)> node_config;
  // Optional hook over the assembled scenario, called before any session
  // starts — e.g. to install a RadioMedium TxObserver attributing on-air
  // bytes to frame types (bench/tab_wire's query/response/ack split).
  std::function<void(Scenario&)> scenario_hook;
};

// One closed discovery round at one consumer (DiscoverySession::RoundRecord
// in experiment-friendly units).
struct PddRoundRecord {
  int round = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t new_keys = 0;    // distinct entries first seen this round
  std::size_t cumulative = 0;  // distinct entries held after the round
  std::size_t responses = 0;   // response messages heard this round
};

struct PddOutcome {
  double recall = 0.0;     // mean over consumers
  double latency_s = 0.0;  // mean over consumers
  double overhead_mb = 0.0;
  double rounds = 0.0;  // mean over consumers
  bool all_finished = false;
  // Simulator events executed by the run — the denominator for events/sec
  // in scale benches. Deterministic for a given (params, seed).
  std::uint64_t events_executed = 0;
  std::vector<double> per_consumer_recall;
  std::vector<double> per_consumer_latency_s;
  // Per-consumer round timelines (the paper's per-round recall curves,
  // Figs. 5–8); parallel to per_consumer_recall.
  std::vector<std::vector<PddRoundRecord>> per_consumer_rounds;
};

[[nodiscard]] PddOutcome run_pdd_grid(const PddGridParams& params);

// -- PDD under mobility (Figs. 9/10) ----------------------------------------

struct PddMobilityParams {
  sim::MobilityParams mobility = sim::student_center_params();
  double range_m = 40.0;
  std::size_t metadata_count = 5000;
  int redundancy = 1;
  core::PdsConfig pds;
  std::uint64_t seed = 1;
  SimTime horizon = SimTime::seconds(180.0);
  obs::Tracer* tracer = nullptr;
  sim::FaultSchedule faults;
};

[[nodiscard]] PddOutcome run_pdd_mobility(const PddMobilityParams& params);

// -- Retrieval on the static grid (Figs. 11, 13–16) --------------------------

enum class RetrievalMethod { kPdr, kMdr };

struct RetrievalGridParams {
  std::size_t nx = 10;
  std::size_t ny = 10;
  std::size_t item_size_bytes = 20u * 1024 * 1024;
  int redundancy = 1;
  RetrievalMethod method = RetrievalMethod::kPdr;
  std::size_t consumers = 1;
  bool sequential = false;
  // Retrieval experiments default to the clean radio profile (see
  // sim/radio.h on the paper's two regimes).
  bool contended_medium = false;
  // Lets scale benches flip radio knobs (the spatial grid) while
  // holding the retrieval workload fixed; range still comes from geometry.
  sim::RadioConfig radio;
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;
  core::PdsConfig pds;
  std::uint64_t seed = 1;
  SimTime horizon = SimTime::seconds(900.0);
  obs::Tracer* tracer = nullptr;
  // Flight-recorder hooks (see PddGridParams).
  obs::TimeSeries* sampler = nullptr;
  obs::Profiler* profiler = nullptr;
  sim::FaultSchedule faults;
  // Optional per-node config override (see GridSetup::node_config).
  std::function<void(NodeId, core::PdsConfig&)> node_config;
  // Optional hook over the assembled scenario (see PddGridParams).
  std::function<void(Scenario&)> scenario_hook;
};

struct RetrievalOutcome {
  double recall = 0.0;
  double latency_s = 0.0;
  double overhead_mb = 0.0;
  bool all_complete = false;
  std::uint64_t events_executed = 0;  // see PddOutcome::events_executed
  std::vector<double> per_consumer_recall;
  std::vector<double> per_consumer_latency_s;
  // Per-consumer chunk arrival times (seconds since run start, sorted) —
  // retrieval progress curves. Empty for MDR sessions, which do not track
  // per-chunk arrival times.
  std::vector<std::vector<double>> per_consumer_chunk_arrival_s;
};

[[nodiscard]] RetrievalOutcome run_retrieval_grid(
    const RetrievalGridParams& params);

// -- Retrieval under mobility (Fig. 12) -----------------------------------

struct RetrievalMobilityParams {
  sim::MobilityParams mobility = sim::student_center_params();
  double range_m = 40.0;
  std::size_t item_size_bytes = 20u * 1024 * 1024;
  int redundancy = 1;
  RetrievalMethod method = RetrievalMethod::kPdr;
  bool contended_medium = false;
  core::PdsConfig pds;
  std::uint64_t seed = 1;
  SimTime horizon = SimTime::seconds(900.0);
  obs::Tracer* tracer = nullptr;
  sim::FaultSchedule faults;
};

[[nodiscard]] RetrievalOutcome run_retrieval_mobility(
    const RetrievalMobilityParams& params);

// -- Single-hop transport (Fig. 3 and the §V.2/§V.4 parameter tables) -------

enum class TransportMode { kRawUdp, kLeakyBucket, kLeakyBucketAck };

struct SingleHopParams {
  std::size_t senders = 1;
  std::size_t messages_per_sender = 2000;
  std::size_t message_bytes = 1500;
  TransportMode mode = TransportMode::kRawUdp;
  std::size_t bucket_capacity_bytes = 300'000;
  double leak_rate_bps = 4.5e6;
  SimTime retr_timeout = SimTime::millis(200);
  int max_retransmissions = 4;
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;
  std::uint64_t seed = 1;
  SimTime horizon = SimTime::seconds(120.0);
  // Optional tracer (see obs/trace.h). Single-hop runs emit the full causal
  // span set (root/tx at senders, recv/deliver at the receiver, xmit per
  // frame), which makes this the golden-path fixture for DAG stitching.
  obs::Tracer* tracer = nullptr;
};

struct SingleHopOutcome {
  double reception = 0.0;       // distinct messages received / offered
  double data_rate_mbps = 0.0;  // goodput at the receiver
};

[[nodiscard]] SingleHopOutcome run_single_hop(const SingleHopParams& params);

}  // namespace pds::wl

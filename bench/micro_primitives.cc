// google-benchmark microbenchmarks for the hot primitives: Bloom filter
// operations, descriptor hashing, data-store matching, wire codec, GAP
// assignment and the event queue.
//
// `micro_primitives --trace-overhead-gate` instead runs the tracer cost
// gate: a full PDD experiment with the tracer compiled in but disabled must
// cost <PDS_TRACE_OVERHEAD_MAX_PCT% (default 1%) over the same run with no
// tracer attached. Exit 0 = pass, 1 = fail.
//
// `micro_primitives --stats-overhead-gate` gates the flight recorder in two
// legs: a detached sampler/profiler (the default in every experiment) must
// cost <PDS_STATS_OVERHEAD_MAX_PCT% (default 1%), and an attached 1 Hz
// sampler must spend <3% of a 2.5k-node PDD run in its `telemetry` scope.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstring>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "parallel_runs.h"
#include "core/data_store.h"
#include "net/bloom_delta.h"
#include "net/codec.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/bloom_filter.h"
#include "util/gap_assign.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace pds {
namespace {

void BM_BloomInsert(benchmark::State& state) {
  util::BloomFilter f = util::BloomFilter::with_capacity(
      static_cast<std::size_t>(state.range(0)), 0.01, 1);
  Rng rng(1);
  for (auto _ : state) {
    f.insert(rng.next_u64());
  }
}
BENCHMARK(BM_BloomInsert)->Arg(1000)->Arg(100000);

void BM_BloomQuery(benchmark::State& state) {
  util::BloomFilter f = util::BloomFilter::with_capacity(
      static_cast<std::size_t>(state.range(0)), 0.01, 1);
  Rng rng(1);
  for (std::int64_t i = 0; i < state.range(0); ++i) f.insert(rng.next_u64());
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.maybe_contains(probe++));
  }
}
BENCHMARK(BM_BloomQuery)->Arg(1000)->Arg(100000);

void BM_DescriptorEntryKey(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::vector<std::byte>> encoded;
  for (const auto& d :
       wl::make_sample_descriptors(1000, wl::SampleSpace{}, rng)) {
    encoded.push_back(d.canonical_bytes());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // A copy shares its source's memoized keys, so each iteration decodes a
    // fresh descriptor: the canonical encoding and hash are measured, as
    // on the wire-receive path.
    ByteReader r(encoded[i++ % encoded.size()]);
    const core::DataDescriptor d = core::DataDescriptor::decode(r);
    benchmark::DoNotOptimize(d.entry_key());
  }
}
BENCHMARK(BM_DescriptorEntryKey);

void BM_DescriptorCopy(benchmark::State& state) {
  Rng rng(2);
  const auto entries =
      wl::make_sample_descriptors(1000, wl::SampleSpace{}, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    core::DataDescriptor d = entries[i++ % entries.size()];
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DescriptorCopy);

void BM_DataStoreMatchAll(benchmark::State& state) {
  core::DataStore store;
  Rng rng(3);
  for (auto& d : wl::make_sample_descriptors(
           static_cast<std::size_t>(state.range(0)), wl::SampleSpace{}, rng)) {
    store.insert_metadata(d, true, SimTime::zero(), SimTime::zero());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.match_metadata(core::Filter{}, SimTime::zero()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataStoreMatchAll)->Arg(1000)->Arg(10000);

void BM_DataStoreMatchFiltered(benchmark::State& state) {
  core::DataStore store;
  Rng rng(4);
  for (auto& d :
       wl::make_sample_descriptors(10000, wl::SampleSpace{}, rng)) {
    store.insert_metadata(d, true, SimTime::zero(), SimTime::zero());
  }
  core::Filter f;
  f.where_range("x", 10.0, 20.0).where_range("y", 10.0, 20.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.match_metadata(f, SimTime::zero()));
  }
}
BENCHMARK(BM_DataStoreMatchFiltered);

void BM_CodecEncodeResponse(benchmark::State& state) {
  Rng rng(5);
  net::Message m;
  m.type = net::MessageType::kResponse;
  m.kind = net::ContentKind::kMetadata;
  m.response_id = ResponseId(1);
  m.sender = NodeId(1);
  m.receivers = {NodeId(2)};
  for (auto& d : wl::make_sample_descriptors(45, wl::SampleSpace{}, rng)) {
    m.metadata.push_back(std::move(d));
  }
  const net::Codec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(m));
  }
}
BENCHMARK(BM_CodecEncodeResponse);

void BM_CodecWireSize(benchmark::State& state) {
  Rng rng(6);
  net::Message m;
  m.type = net::MessageType::kResponse;
  m.kind = net::ContentKind::kMetadata;
  m.sender = NodeId(1);
  m.receivers = {NodeId(2)};
  for (auto& d : wl::make_sample_descriptors(45, wl::SampleSpace{}, rng)) {
    m.metadata.push_back(std::move(d));
  }
  const net::Codec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.wire_size(m));
  }
}
BENCHMARK(BM_CodecWireSize);

// A first-hop discovery query carrying a classic exclude Bloom of pdd_dense
// size (its 2,000-entry catalogue at the default 1% false-positive rate):
// the frame shape whose charge comes from running the encoder over the
// filter. BM_CodecWireSize above is the flat-charged response case.
void BM_CodecWireSizeQuery(benchmark::State& state) {
  Rng rng(7);
  net::Message m;
  m.type = net::MessageType::kQuery;
  m.kind = net::ContentKind::kMetadata;
  m.query_id = QueryId(1);
  m.sender = NodeId(1);
  m.ttl = 4;
  m.filter.where("type", core::Relation::kEq, std::string("camera"));
  m.exclude = util::BloomFilter::with_capacity(2000, 0.01, rng.next_u64());
  for (int i = 0; i < 2000; ++i) m.exclude.insert(rng.next_u64());
  const net::Codec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.wire_size(m));
  }
}
BENCHMARK(BM_CodecWireSizeQuery);

// -- v2 wire extensions (DESIGN.md §16) --------------------------------------

void BM_CodecEncodeResponseCompressed(benchmark::State& state) {
  Rng rng(15);
  net::Message m;
  m.type = net::MessageType::kResponse;
  m.kind = net::ContentKind::kMetadata;
  m.response_id = ResponseId(1);
  m.sender = NodeId(1);
  m.receivers = {NodeId(2)};
  for (auto& d : wl::make_sample_descriptors(45, wl::SampleSpace{}, rng)) {
    m.metadata.push_back(std::move(d));
  }
  net::WireConfig cfg;
  cfg.compress_entries = true;
  const net::Codec codec(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(m));
  }
}
BENCHMARK(BM_CodecEncodeResponseCompressed);

void BM_Varint(benchmark::State& state) {
  Rng rng(16);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(rng.next_u64() >> (rng.next_u64() % 64));
  }
  for (auto _ : state) {
    ByteWriter w;
    for (const std::uint64_t v : values) w.put_varint(v);
    ByteReader r(w.bytes());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) sum += r.get_varint();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_Varint);

void BM_BloomDeltaRoundTrip(benchmark::State& state) {
  // One discovery round's worth of filter growth, framed and applied: the
  // sender inserts `range(0)` new keys into a shared filter, emits the delta
  // frame, and the receiver cache reconstructs.
  Rng rng(17);
  util::BloomFilter filter =
      util::BloomFilter::with_capacity(20000, 0.01, 42);
  for (int i = 0; i < 5000; ++i) filter.insert(rng.next_u64());
  net::DeltaBloomSender sender;
  net::BloomSyncCache cache;
  (void)cache.apply(sender.next_frame(7, 1, filter));
  for (auto _ : state) {
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      filter.insert(rng.next_u64());
    }
    const net::BloomDeltaFrame frame = sender.next_frame(7, 1, filter);
    ByteWriter w;
    frame.encode(w);
    ByteReader r(w.bytes());
    const net::BloomDeltaFrame decoded = net::BloomDeltaFrame::decode(r);
    benchmark::DoNotOptimize(cache.apply(decoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomDeltaRoundTrip)->Arg(64)->Arg(512);

void BM_ChunkBitmapRoundTrip(benchmark::State& state) {
  // Chunk-bitmap query encode/decode for an 80-chunk request with holes.
  net::Message m;
  m.type = net::MessageType::kQuery;
  m.kind = net::ContentKind::kChunk;
  m.query_id = QueryId(9);
  m.sender = NodeId(1);
  m.receivers = {NodeId(2)};
  m.expire_at = SimTime::seconds(5.0);
  m.ttl = 8;
  core::DataDescriptor item;
  item.set("name", std::string("clip"));
  item.set("chunks", std::int64_t{96});
  m.target = item;
  for (std::uint32_t c = 0; c < 96; c += 2) {
    m.requested_chunks.push_back(ChunkIndex(c));
  }
  net::WireConfig cfg;
  cfg.chunk_bitmap = true;
  const net::Codec codec(cfg);
  for (auto _ : state) {
    const std::vector<std::byte> bytes = codec.encode(m);
    benchmark::DoNotOptimize(codec.decode(bytes));
  }
}
BENCHMARK(BM_ChunkBitmapRoundTrip);

void BM_GapHeuristic(benchmark::State& state) {
  Rng rng(7);
  // The paper's typical per-division instance: ~10 chunks, ~10 neighbors.
  util::GapInstance inst;
  inst.neighbor_count = 10;
  for (int c = 0; c < static_cast<int>(state.range(0)); ++c) {
    std::vector<std::size_t> eligible;
    for (std::size_t n = 0; n < 10; ++n) {
      if (rng.bernoulli(0.4)) eligible.push_back(n);
    }
    if (eligible.empty()) eligible.push_back(0);
    inst.hop.emplace_back(eligible.size(), 1);
    inst.eligible.push_back(std::move(eligible));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::solve_min_max_heuristic(inst));
  }
}
BENCHMARK(BM_GapHeuristic)->Arg(10)->Arg(80);

void BM_EventQueue(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(8);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(SimTime::micros(static_cast<std::int64_t>(rng.next_u64() % 1000)),
             [] {});
    }
    while (!q.empty()) q.pop().action();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueue);

// Hold-model scheduler benchmark: the queue holds `range(0)` pending events
// (the scenario's steady-state population) and every iteration pops the
// earliest and pushes a replacement at a near-future offset — the classic
// calendar-queue workload. The captured payload is sized like the radio
// completion closure (~80 bytes) so the storage management cost is charged
// realistically. Run for both kinds to quantify calendar-vs-heap.
void scheduler_hold(benchmark::State& state, sim::SchedulerKind kind) {
  sim::EventQueue q(kind);
  Rng rng(9);
  std::array<std::uint64_t, 10> payload{};
  const auto push_one = [&](std::int64_t now_us) {
    // Offsets up to 250 ms: backoffs, airtimes and protocol round timers.
    q.push(SimTime::micros(now_us + 1 +
                           static_cast<std::int64_t>(rng.next_u64() % 250'000)),
           [payload] { benchmark::DoNotOptimize(payload[0]); });
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) push_one(0);
  std::int64_t now_us = 0;
  for (auto _ : state) {
    auto popped = q.pop();
    now_us = popped.at.as_micros();
    popped.action();
    push_one(now_us);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_SchedulerHoldCalendar(benchmark::State& state) {
  scheduler_hold(state, sim::SchedulerKind::kCalendar);
}
BENCHMARK(BM_SchedulerHoldCalendar)->Arg(1024)->Arg(16384)->Arg(65536);
void BM_SchedulerHoldHeap(benchmark::State& state) {
  scheduler_hold(state, sim::SchedulerKind::kHeap);
}
BENCHMARK(BM_SchedulerHoldHeap)->Arg(1024)->Arg(16384)->Arg(65536);

// Arena pools (common/arena.h): pooled shared payload allocation vs
// make_shared, and recycled vector buffers vs fresh ones.
struct PooledBlob {
  std::array<std::byte, 256> bytes;
};

void BM_MakeSharedPayload(benchmark::State& state) {
  for (auto _ : state) {
    auto p = std::make_shared<PooledBlob>();
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeSharedPayload);

void BM_MakePooledPayload(benchmark::State& state) {
  for (auto _ : state) {
    auto p = make_pooled<PooledBlob>();
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakePooledPayload);

void BM_VectorPoolRoundTrip(benchmark::State& state) {
  VectorPool<std::uint32_t> pool;
  for (auto _ : state) {
    std::vector<std::uint32_t> v = pool.acquire();
    for (std::uint32_t i = 0; i < 64; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.data());
    pool.release(std::move(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorPoolRoundTrip);

void BM_TraceMacroDetached(benchmark::State& state) {
  // The common case in production runs: no tracer attached. The macro must
  // reduce to a null-pointer test; payload expressions are never evaluated.
  obs::Tracer* tracer = nullptr;
  std::uint64_t i = 0;
  for (auto _ : state) {
    PDS_TRACE_INSTANT(tracer, SimTime::micros(static_cast<std::int64_t>(i)),
                      NodeId(0), "bench", "tick", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceMacroDetached);

void BM_TraceMacroDisabled(benchmark::State& state) {
  // Attached but disabled: one pointer test plus one branch.
  obs::Tracer tracer;
  tracer.set_enabled(false);
  std::uint64_t i = 0;
  for (auto _ : state) {
    PDS_TRACE_INSTANT(&tracer, SimTime::micros(static_cast<std::int64_t>(i)),
                      NodeId(0), "bench", "tick", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceMacroDisabled);

void BM_TraceEmitEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  std::uint64_t i = 0;
  for (auto _ : state) {
    PDS_TRACE_INSTANT(&tracer, SimTime::micros(static_cast<std::int64_t>(i)),
                      NodeId(0), "bench", "tick", {"i", i},
                      {"half", i / 2});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitEnabled);

// -- Tracer overhead gate ----------------------------------------------------
//
// Gates the cost of the tracer compiled in but disabled at <1% of a full PDD
// experiment. A direct wall-clock A/B of two ~1 s runs cannot resolve 1% on
// a shared machine (scheduler noise alone is several percent), so the gate
// derives the overhead instead:
//
//   overhead% = (per-call cost of the disabled macro) x (number of trace
//               sites the reference run hits) / (untraced run wall time)
//
// Per-call cost is measured over millions of iterations with a compiler
// barrier (so the enabled_ check cannot be hoisted); the site count is the
// deterministic event count of a traced run; the run time is min-of-N.
double timed_pdd_run(pds::obs::Tracer* tracer) {
  wl::PddGridParams p;
  p.nx = p.ny = 10;
  p.metadata_count = 5000;
  p.consumers = 2;
  p.seed = 1;
  p.tracer = tracer;
  const auto t0 = std::chrono::steady_clock::now();
  const wl::PddOutcome out = wl::run_pdd_grid(p);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(out.recall);
  return std::chrono::duration<double>(t1 - t0).count();
}

// Seconds per PDS_TRACE_* call against an attached-but-disabled tracer.
double disabled_macro_cost_s() {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  constexpr std::uint64_t kCalls = 50'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    PDS_TRACE_INSTANT(&tracer, SimTime::micros(static_cast<std::int64_t>(i)),
                      NodeId(0), "bench", "tick", {"i", i});
    // Forces enabled_ to be re-read every iteration, as at real call sites.
    benchmark::ClobberMemory();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(kCalls);
}

int run_trace_overhead_gate() {
  // Deterministic count of trace sites the reference run hits.
  obs::Tracer counting(0);
  timed_pdd_run(&counting);
  const auto calls = static_cast<double>(counting.events().size()) +
                     static_cast<double>(counting.dropped());

  const double per_call_s = disabled_macro_cost_s();

  constexpr int kReps = 5;
  timed_pdd_run(nullptr);  // warm-up
  double best_off = 1e300;
  for (int r = 0; r < kReps; ++r) {
    best_off = std::min(best_off, timed_pdd_run(nullptr));
  }

  const double max_pct =
      bench::env_nonneg_double("PDS_TRACE_OVERHEAD_MAX_PCT", 1.0);
  const double pct = calls * per_call_s / best_off * 100.0;
  std::printf(
      "trace overhead gate: %.0f trace sites hit, %.2f ns/call disabled, "
      "untraced run %.4fs => overhead %.4f%% (max %.2f%%)\n",
      calls, per_call_s * 1e9, best_off, pct, max_pct);
  if (pct > max_pct) {
    std::printf("FAIL: disabled-tracer overhead above gate\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// -- Flight-recorder overhead gate -------------------------------------------
//
// Same derivation as the tracer gate, for the sampler/profiler seams
// (obs/timeseries.h, obs/profiler.h). A detached sampler costs one pointer
// compare per simulator event; a detached profiler scope costs one pointer
// compare at construction and destruction. Both counts are deterministic for
// a fixed seed, so:
//
//   overhead% = (events x per-event cost + scopes x per-scope cost)
//               / (uninstrumented run wall time)

struct StatsSiteCounts {
  double events = 0.0;
  double scopes = 0.0;
};

// Deterministic per-run site counts from a fully instrumented reference run.
StatsSiteCounts stats_site_counts() {
  obs::TimeSeries sampler(SimTime::seconds(1.0));
  obs::Profiler profiler;
  wl::PddGridParams p;
  p.nx = p.ny = 10;
  p.metadata_count = 5000;
  p.consumers = 2;
  p.seed = 1;
  p.sampler = &sampler;
  p.profiler = &profiler;
  const wl::PddOutcome out = wl::run_pdd_grid(p);
  StatsSiteCounts c;
  c.events = static_cast<double>(out.events_executed);
  for (const obs::Profiler::Entry& e : profiler.snapshot()) {
    c.scopes += static_cast<double>(e.calls);
  }
  return c;
}

// Seconds per simulator event spent on the detached-sampler test.
double detached_sampler_cost_s() {
  // Volatile so the pointer is re-read every iteration, as in the run loop.
  // benchmark::DoNotOptimize on a null local is not enough: with GCC 12 the
  // inlined loop read a stack slot reused for other values and crashed.
  obs::TimeSeries* volatile sampler = nullptr;
  constexpr std::uint64_t kCalls = 100'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    if (obs::TimeSeries* s = sampler; s != nullptr) {
      s->advance_to(SimTime::micros(static_cast<std::int64_t>(i)));
    }
    benchmark::ClobberMemory();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(kCalls);
}

// Seconds per instrumented scope with a detached profiler.
double detached_scope_cost_s() {
  obs::Profiler* volatile profiler = nullptr;  // re-read per iteration
  constexpr std::uint64_t kCalls = 100'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    PDS_PROF_SCOPE(profiler, "sim");
    benchmark::ClobberMemory();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(kCalls);
}

// Attached leg: the in-run share of a recorded run spent committing rows.
// A wall-clock A/B of attached vs detached runs swings by several percent
// between repetitions on a shared host, so the gate reads the profiler
// instead: `telemetry` time over the enclosing `sim` time of one run with a
// 1 Hz sampler and a profiler attached (50x50 grid, 2,000 entries, 40 s).
constexpr double kAttachedMaxPct = 3.0;

double attached_telemetry_pct() {
  obs::TimeSeries sampler(SimTime::seconds(1.0));
  obs::Profiler profiler;
  wl::PddGridParams p;
  p.nx = p.ny = 50;
  p.metadata_count = 2000;
  p.seed = 1;
  p.horizon = SimTime::seconds(40.0);
  p.sampler = &sampler;
  p.profiler = &profiler;
  (void)wl::run_pdd_grid(p);
  double sim_ns = 0.0;
  double telemetry_ns = 0.0;
  for (const obs::Profiler::Entry& e : profiler.snapshot()) {
    if (e.path == "sim") sim_ns = static_cast<double>(e.ns);
    if (e.path == "sim/telemetry") telemetry_ns = static_cast<double>(e.ns);
  }
  std::printf("attached leg: %zu rows, telemetry %.4fs of sim %.4fs\n",
              sampler.row_count(), telemetry_ns / 1e9, sim_ns / 1e9);
  return sim_ns > 0.0 ? telemetry_ns / sim_ns * 100.0 : 100.0;
}

int run_stats_overhead_gate() {
  const StatsSiteCounts sites = stats_site_counts();
  const double per_event_s = detached_sampler_cost_s();
  const double per_scope_s = detached_scope_cost_s();

  constexpr int kReps = 5;
  timed_pdd_run(nullptr);  // warm-up
  double best_off = 1e300;
  for (int r = 0; r < kReps; ++r) {
    best_off = std::min(best_off, timed_pdd_run(nullptr));
  }

  const double max_pct =
      bench::env_nonneg_double("PDS_STATS_OVERHEAD_MAX_PCT", 1.0);
  const double pct = (sites.events * per_event_s + sites.scopes * per_scope_s) /
                     best_off * 100.0;
  std::printf(
      "stats overhead gate: %.0f events + %.0f scopes hit, %.2f/%.2f ns "
      "detached, uninstrumented run %.4fs => overhead %.4f%% (max %.2f%%)\n",
      sites.events, sites.scopes, per_event_s * 1e9, per_scope_s * 1e9,
      best_off, pct, max_pct);
  if (pct > max_pct) {
    std::printf("FAIL: detached flight-recorder overhead above gate\n");
    return 1;
  }

  const double attached_pct = attached_telemetry_pct();
  std::printf("attached recorder gate: telemetry %.4f%% of sim (max %.2f%%)\n",
              attached_pct, kAttachedMaxPct);
  if (attached_pct > kAttachedMaxPct) {
    std::printf("FAIL: attached flight-recorder share above gate\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// Console output stays the stock ConsoleReporter; each per-iteration run is
// also captured so the results land in BENCH_micro_primitives.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  using ConsoleReporter::ConsoleReporter;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type == Run::RT_Iteration && !r.error_occurred) {
        captured.push_back(r);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Run> captured;
};

int write_micro_report(const std::vector<benchmark::BenchmarkReporter::Run>&
                           runs) {
  obs::Report::Options options;
  options.experiment = "micro_primitives";
  options.title = "micro_primitives — hot-primitive microbenchmarks";
  options.paper =
      "engineering benchmark (not a paper figure): Bloom, descriptor "
      "hashing, store matching, codec, GAP, event queue, trace macros";
  options.runs = 1;
  options.jobs = 1;
  obs::Report report{std::move(options)};
  report.begin_section("benchmarks");
  for (const auto& r : runs) {
    obs::Report::Point& p = report.point();
    p.param("name", r.benchmark_name());
    p.param("time_unit", benchmark::GetTimeUnitString(r.time_unit));
    p.hidden_metric("real_time", r.GetAdjustedRealTime());
    p.hidden_metric("cpu_time", r.GetAdjustedCPUTime());
    p.hidden_metric("iterations", static_cast<double>(r.iterations));
    for (const auto& [name, counter] : r.counters) {
      p.hidden_metric("counter." + name,
                      static_cast<double>(counter.value));
    }
  }
  if (!report.write_json()) return 1;
  std::fprintf(stderr, "wrote %s\n", report.json_path().c_str());
  return 0;
}

}  // namespace
}  // namespace pds

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-overhead-gate") == 0) {
      return pds::run_trace_overhead_gate();
    }
    if (std::strcmp(argv[i], "--stats-overhead-gate") == 0) {
      return pds::run_stats_overhead_gate();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Mirror the stock reporter's color policy: escapes only on a terminal.
  pds::CapturingReporter reporter(
      isatty(fileno(stdout)) != 0
          ? benchmark::ConsoleReporter::OO_Defaults
          : benchmark::ConsoleReporter::OO_Tabular);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return pds::write_micro_report(reporter.captured);
}

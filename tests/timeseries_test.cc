// The flight recorder must be a pure observer (DESIGN.md §15): with the
// same seed, (a) attaching a sampler + profiler leaves every experiment
// outcome bit-identical to the unsampled run, (b) the deterministic (sim-
// kind) series projection is byte-identical across PDS_BENCH_JOBS worker
// pools, (c) the scenario collector carries every column a consumer reads
// by name, with sane (non-negative, cumulative-monotone) values, (d) a
// capture missing such a column fails the bench instead of reading as 0,
// and (e) the O(1) store probe records the exact live-entry count while
// cached copies expire mid-run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/node.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "parallel_runs.h"
#include "tools/stats_analysis.h"
#include "workload/experiment.h"
#include "workload/scenario.h"

namespace pds::wl {
namespace {

PddGridParams small_pdd(std::uint64_t seed, obs::TimeSeries* sampler,
                        obs::Profiler* profiler = nullptr) {
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.seed = seed;
  p.sampler = sampler;
  p.profiler = profiler;
  return p;
}

bool same_outcome(const PddOutcome& a, const PddOutcome& b) {
  return a.recall == b.recall && a.latency_s == b.latency_s &&
         a.overhead_mb == b.overhead_mb && a.rounds == b.rounds &&
         a.all_finished == b.all_finished &&
         a.events_executed == b.events_executed &&
         a.per_consumer_recall == b.per_consumer_recall &&
         a.per_consumer_latency_s == b.per_consumer_latency_s;
}

TEST(TimeSeriesDeterminism, SampledPddOutcomeBitIdenticalToUnsampled) {
  const PddOutcome plain = run_pdd_grid(small_pdd(7, nullptr));
  obs::TimeSeries sampler(SimTime::millis(100));
  obs::Profiler profiler;
  const PddOutcome sampled =
      run_pdd_grid(small_pdd(7, &sampler, &profiler));
  EXPECT_TRUE(same_outcome(plain, sampled));
  EXPECT_GT(sampler.row_count(), 0u);
  EXPECT_FALSE(profiler.snapshot().empty());
}

TEST(TimeSeriesDeterminism, SampledPdrOutcomeBitIdenticalToUnsampled) {
  RetrievalGridParams p;
  p.nx = p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 3;
  const RetrievalOutcome plain = run_retrieval_grid(p);
  obs::TimeSeries sampler(SimTime::millis(100));
  p.sampler = &sampler;
  const RetrievalOutcome sampled = run_retrieval_grid(p);
  EXPECT_EQ(plain.recall, sampled.recall);
  EXPECT_EQ(plain.latency_s, sampled.latency_s);
  EXPECT_EQ(plain.overhead_mb, sampled.overhead_mb);
  EXPECT_EQ(plain.events_executed, sampled.events_executed);
  EXPECT_EQ(plain.per_consumer_chunk_arrival_s,
            sampled.per_consumer_chunk_arrival_s);
  EXPECT_GT(sampler.row_count(), 0u);
}

// -- Worker pools ------------------------------------------------------------
// Each bench::run_indexed worker owns its own Simulator and sampler; the
// sim-kind projection must not depend on which thread ran the seed.

TEST(TimeSeriesDeterminism, SeriesBytesIdenticalUnderParallelJobs) {
  const auto capture_all = [](int jobs) {
    ::setenv("PDS_BENCH_JOBS", jobs == 1 ? "1" : "4", 1);
    std::vector<std::unique_ptr<obs::TimeSeries>> samplers;
    for (int i = 0; i < 4; ++i) {
      samplers.push_back(
          std::make_unique<obs::TimeSeries>(SimTime::millis(100)));
    }
    const auto series = bench::run_indexed(4, [&](int i) {
      (void)run_pdd_grid(
          small_pdd(static_cast<std::uint64_t>(i + 1),
                    samplers[static_cast<std::size_t>(i)].get()));
      return samplers[static_cast<std::size_t>(i)]->ndjson(
          /*include_wall=*/false);
    });
    ::unsetenv("PDS_BENCH_JOBS");
    return series;
  };
  const auto serial = capture_all(1);
  const auto parallel = capture_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "seed " << i + 1;
  }
}

// -- Collector contents ------------------------------------------------------

// The collector is the one catalogue of recorded names; the bench stats
// point (bench::add_stats_point) and channel_utilization read columns by
// name, so the collector's header must carry each with the expected kind.
TEST(TimeSeriesDeterminism, CollectorHeaderCarriesEveryColumnAConsumerReads) {
  obs::TimeSeries sampler(SimTime::millis(100));
  (void)run_pdd_grid(small_pdd(5, &sampler));
  std::string error;
  const auto parsed = tools::parse_timeseries(sampler.ndjson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  for (const bench::StatsRead& r : bench::kStatsPointReads) {
    const int col = tools::series_column(*parsed, r.column);
    ASSERT_GE(col, 0) << r.column;
    EXPECT_EQ(parsed->columns[static_cast<std::size_t>(col)].kind, r.kind)
        << r.column;
  }
  EXPECT_FALSE(tools::channel_utilization(*parsed).empty());
}

// A capture without a column the stats point reads must fail the bench
// rather than report that column's peak as 0.
tools::ParsedSeries without_column(tools::ParsedSeries s, int col) {
  const auto at = static_cast<std::ptrdiff_t>(col);
  s.columns.erase(s.columns.begin() + at);
  for (tools::SeriesRow& row : s.rows) row.v.erase(row.v.begin() + at);
  return s;
}

TEST(TimeSeriesDeterminism, CaptureMissingAConsumerColumnIsRejected) {
  obs::TimeSeries sampler(SimTime::millis(100));
  (void)run_pdd_grid(small_pdd(5, &sampler));
  std::string error;
  const auto parsed = tools::parse_timeseries(sampler.ndjson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  for (const bench::StatsRead& r : bench::kStatsPointReads) {
    const int col = tools::series_column(*parsed, r.column);
    ASSERT_GE(col, 0) << r.column;
    const tools::ParsedSeries stripped = without_column(*parsed, col);
    EXPECT_NE(bench::stats_point_gap(stripped).find(r.column),
              std::string::npos)
        << r.column;
    obs::Report::Options options;
    options.experiment = "probe";
    obs::Report report(std::move(options));
    report.begin_section("stats");
    EXPECT_EXIT(bench::add_stats_point(report.point(), stripped, 25.0),
                ::testing::ExitedWithCode(1),
                std::string("lacks column '") + r.column + "'");
  }
}

TEST(TimeSeriesDeterminism, CumulativeColumnsAreMonotoneAndValuesSane) {
  obs::TimeSeries sampler(SimTime::millis(100));
  (void)run_pdd_grid(small_pdd(5, &sampler));
  std::string error;
  const auto parsed = tools::parse_timeseries(sampler.ndjson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_FALSE(parsed->rows.empty());
  for (const char* name : {"sim.events", "radio.air_us", "radio.bytes"}) {
    const int col = tools::series_column(*parsed, name);
    ASSERT_GE(col, 0) << name;
    double prev = 0.0;
    for (const tools::SeriesRow& row : parsed->rows) {
      const double v = row.v[static_cast<std::size_t>(col)];
      EXPECT_GE(v, prev) << name << " regressed at t=" << row.t_us;
      prev = v;
    }
    EXPECT_GT(prev, 0.0) << name << " never moved";
  }
  // Every value in every row is finite and non-negative (gauges can touch
  // zero but nothing in the collector can go negative).
  for (const tools::SeriesRow& row : parsed->rows) {
    for (const double v : row.v) {
      EXPECT_GE(v, 0.0);
    }
  }
  // Channel utilization derived from radio.air_us stays within the node
  // count (25 nodes on the 5x5 probe grid).
  for (const double u : tools::channel_utilization(*parsed)) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 25.0);
  }
}

// A StatsCapture (bench_common.h) snapshot parses back through the same
// analysis path the benches and `pdscli stats` use.
TEST(TimeSeriesDeterminism, StatsCaptureRoundTripsThroughAnalysis) {
  bench::StatsCapture capture(SimTime::millis(100));
  {
    PddGridParams p = small_pdd(9, capture.sampler());
    p.profiler = capture.profiler();
    (void)run_pdd_grid(p);
  }
  const tools::ParsedSeries parsed = capture.analyze();
  EXPECT_FALSE(parsed.rows.empty());
  EXPECT_FALSE(parsed.profile.empty());
  const auto summaries = tools::summarize_series(parsed);
  ASSERT_EQ(summaries.size(), parsed.columns.size());
  for (const tools::SeriesSummary& s : summaries) {
    EXPECT_GE(s.peak, s.p99) << s.name;
    EXPECT_GE(s.p99, s.p50) << s.name;
  }
}

// With a 3 s cached-entry TTL, relayed copies expire mid-run and stay in
// the stores until the next amortized sweep, so `store.metadata` must be the
// exact live count, not the record count. The run goes in slices that stop
// 1 us before each boundary: the state there is the state the row at that
// boundary reads, and the test recounts it with match_metadata.
TEST(TimeSeriesDeterminism, StoreMetadataColumnMatchesRecountUnderTtlExpiry) {
  GridSetup setup;
  setup.nx = setup.ny = 5;
  setup.pds.metadata_ttl = SimTime::seconds(3.0);
  Grid grid = make_grid(setup, 17);
  Scenario& sc = *grid.scenario;
  const SimTime interval = SimTime::millis(100);
  obs::TimeSeries sampler(interval);
  sc.attach_sampler(&sampler);
  const int col = sampler.column("store.metadata");

  for (int i = 0; i < 60; ++i) {
    core::DataDescriptor d;
    d.set("seq", std::int64_t{i});
    sc.node(grid.ids[static_cast<std::size_t>(i % 3)]).publish_metadata(d);
  }
  const auto discover = [](core::PdsNode& n) {
    n.discover(core::Filter{}, [](const core::DiscoverySession::Result&) {});
  };
  discover(grid.center_node());
  // A second consumer after the first one's relayed copies have expired.
  sc.sim().schedule_at(SimTime::seconds(8.0),
                       [&] { discover(sc.node(grid.ids.back())); });

  std::vector<double> recount;
  constexpr int kBoundaries = 150;
  for (int k = 1; k <= kBoundaries; ++k) {
    const SimTime at = interval * static_cast<double>(k);
    sc.run_until(at - SimTime::micros(1));
    double live = 0.0;
    for (core::PdsNode* n : sc.nodes()) {
      live += static_cast<double>(
          n->store().match_metadata(core::Filter{}, at).size());
    }
    recount.push_back(live);
  }
  sc.run_until(interval * static_cast<double>(kBoundaries));

  ASSERT_EQ(sampler.row_count(), recount.size());
  bool expired_mid_run = false;
  for (std::size_t r = 0; r < recount.size(); ++r) {
    EXPECT_EQ(sampler.value(r, col), recount[r])
        << "row at " << sampler.row_time(r).as_micros() << "us";
    if (r > 0 && recount[r] < recount[r - 1]) expired_mid_run = true;
  }
  EXPECT_TRUE(expired_mid_run);
}

}  // namespace
}  // namespace pds::wl

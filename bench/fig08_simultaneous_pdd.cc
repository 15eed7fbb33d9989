// Fig. 8 (paper §VI-B.2): PDD with 1–5 *simultaneous* consumers placed
// randomly in the center 5×5 subgrid. Mixedcast lets one transmission serve
// several lingering queries at once.
//
// Paper series: recall 100% for every consumer count; latency grows
// sub-linearly with consumers and then stabilizes.
//
// The 5-consumer point's first seed is flight-recorded (DESIGN.md §15):
// the capture is written to STATS_fig08.ndjson and the same seed is then
// re-run *serially* — the sim-kind series projection must be byte-identical
// whether the run executed on a PDS_BENCH_JOBS worker thread or inline,
// which is the worker-pool half of the `timeseries-deterministic` gate
// (tab_scale's same-seed sampled re-run covers the other half).
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "workload/experiment.h"

namespace pds {
namespace {

constexpr std::size_t kRecordedConsumers = 5;

wl::PddGridParams point_params(std::size_t consumers, int seed_index) {
  wl::PddGridParams p;
  p.metadata_count = 5000;
  p.consumers = consumers;
  p.sequential = false;
  p.seed = static_cast<std::uint64_t>(seed_index + 1);
  return p;
}

int run() {
  obs::Report report = bench::make_report(
      "fig08_simultaneous_pdd",
      "Fig. 8 — PDD with simultaneous consumers (5,000 entries)",
      "recall 100%; latency grows sub-linearly, then stabilizes");
  report.set_param("entries", 5000);

  bench::StatsCapture capture;
  report.begin_table("main", {"consumers", "recall", "mean latency (s)",
                              "overhead (MB)"});
  for (const std::size_t consumers : {1u, 2u, 3u, 4u, 5u}) {
    util::SampleSet recall;
    util::SampleSet latency;
    util::SampleSet overhead;
    const auto outs = bench::run_indexed(bench::runs(), [&](int r) {
      wl::PddGridParams p = point_params(consumers, r);
      if (consumers == kRecordedConsumers && r == 0) {
        p.sampler = capture.sampler();
        p.profiler = capture.profiler();
      }
      return wl::run_pdd_grid(p);
    });
    for (const wl::PddOutcome& out : outs) {
      recall.add(out.recall);
      latency.add(out.latency_s);
      overhead.add(out.overhead_mb);
    }
    report.point()
        .param("consumers", static_cast<std::int64_t>(consumers))
        .metric("recall", recall, 3)
        .metric("latency_s", latency, 2)
        .metric("overhead_mb", overhead, 2);
  }
  report.print_table();

  // Worker-pool determinism A/B: re-capture the recorded seed on the
  // calling thread and byte-compare the deterministic projections.
  bench::StatsCapture serial;
  {
    wl::PddGridParams p = point_params(kRecordedConsumers, 0);
    p.sampler = serial.sampler();
    p.profiler = serial.profiler();
    (void)wl::run_pdd_grid(p);
  }
  const bool identical = capture.ndjson(/*include_wall=*/false) ==
                         serial.ndjson(/*include_wall=*/false);

  report.begin_section("stats");
  const tools::ParsedSeries parsed = capture.analyze();
  obs::Report::Point& stats_point =
      report.point()
          .param("consumers",
                 static_cast<std::int64_t>(kRecordedConsumers))
          .param("identical", identical, identical ? "yes" : "NO");
  // Default grid is 10x10 = 100 nodes — the concurrent-transmission ceiling.
  bench::add_stats_point(stats_point, parsed, 100.0);
  std::printf("\nflight recorder: %zu rows, pooled vs serial series %s\n",
              parsed.rows.size(), identical ? "identical" : "DIVERGED");

  int rc = bench::finish(report);
  if (!capture.write("STATS_fig08.ndjson")) {
    std::fprintf(stderr, "FAIL: cannot write STATS_fig08.ndjson\n");
    rc = 1;
  } else {
    std::fprintf(stderr, "wrote STATS_fig08.ndjson\n");
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: flight-recorder series depends on the "
                         "worker pool\n");
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace pds

int main() { return pds::run(); }

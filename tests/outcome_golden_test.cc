// Cross-commit outcome pins. Every other determinism test compares two runs
// inside one binary (DESIGN.md §12), so an outcome change *between* commits
// would pass them all. These tests check in FNV-1a digests of three small
// same-seed runs: the tracer's NDJSON bytes plus the experiment's outcome
// fields, printed as text (doubles in shortest round-trip form). A change
// that claims byte-identical outcomes must leave every digest unchanged.
//
// The digests assume libstdc++: its unordered-container hash order fixes
// store match order and therefore wire order, and its <random>
// distributions fix every draw. ROADMAP items 2 (portable draws) and 3 (an
// insertion-ordered store) change same-seed outcomes on purpose and
// re-baseline these digests once; any other change to them is a
// regression. On a mismatch the test prints the outcome text, so a
// reviewer can see which field moved.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "obs/trace.h"
#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pds::wl {
namespace {

// Accumulates `name=value` lines for the outcome digest.
class OutcomeText {
 public:
  void add(const char* name, double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    text_ += name;
    text_ += '=';
    text_.append(buf, res.ptr);
    text_ += '\n';
  }
  void add(const char* name, std::uint64_t v) {
    text_ += name;
    text_ += '=';
    text_ += std::to_string(v);
    text_ += '\n';
  }
  void add(const char* name, const std::vector<double>& vs) {
    for (double v : vs) add(name, v);
  }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_digests(const obs::Tracer& tracer, const OutcomeText& outcome,
                    std::uint64_t trace_digest, std::uint64_t outcome_digest) {
  EXPECT_FALSE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(hex(fnv1a64(tracer.ndjson())), hex(trace_digest));
  EXPECT_EQ(hex(fnv1a64(outcome.text())), hex(outcome_digest))
      << outcome.text();
}

void add_pdd(OutcomeText& out, const PddOutcome& o) {
  out.add("recall", o.recall);
  out.add("latency_s", o.latency_s);
  out.add("overhead_mb", o.overhead_mb);
  out.add("rounds", o.rounds);
  out.add("all_finished", std::uint64_t{o.all_finished});
  out.add("events_executed", o.events_executed);
  out.add("per_consumer_recall", o.per_consumer_recall);
  out.add("per_consumer_latency_s", o.per_consumer_latency_s);
  for (const auto& rounds : o.per_consumer_rounds) {
    for (const PddRoundRecord& r : rounds) {
      out.add("round", static_cast<std::uint64_t>(r.round));
      out.add("start_s", r.start_s);
      out.add("end_s", r.end_s);
      out.add("new_keys", std::uint64_t{r.new_keys});
      out.add("cumulative", std::uint64_t{r.cumulative});
      out.add("responses", std::uint64_t{r.responses});
    }
  }
}

// Metadata PDD on a 5x5 grid with two sequential consumers: the second
// starts from entries its store cached while relaying for the first. The
// serve cooldown is on (tab_wire's efficiency value), so cached-only copies
// inside the window are skipped at serve time.
TEST(OutcomeGolden, PddGridMetadata) {
  obs::Tracer tracer(0);
  PddGridParams p;
  p.nx = p.ny = 5;
  p.metadata_count = 400;
  p.consumers = 2;
  p.sequential = true;
  p.pds.entry_serve_cooldown = SimTime::seconds(3.0);
  p.seed = 7;
  p.tracer = &tracer;
  OutcomeText out;
  add_pdd(out, run_pdd_grid(p));
  expect_digests(tracer, out, 0xca604ed0673997a0, 0x472c20d0720a1302);
}

// Small-item PDD on a lossless 4-node line: node 0 collects the items node
// 3 published, then node 1 collects them again from its relay cache.
TEST(OutcomeGolden, SmallItemsLine) {
  obs::Tracer tracer(0);
  sim::RadioConfig radio = sim::clean_radio_profile();
  radio.loss_probability = 0.0;
  Scenario sc(1, radio);
  sc.set_tracer(&tracer);
  const core::PdsConfig pds;
  for (std::uint32_t i = 0; i < 4; ++i) {
    sc.add_node(NodeId(i), {static_cast<double>(i) * 10.0, 0.0}, pds);
  }
  Rng rng(5);
  for (const auto& item : make_sample_items(12, 150, SampleSpace{}, rng)) {
    sc.node(NodeId(3)).publish_item(item);
  }

  OutcomeText out;
  SimTime horizon = SimTime::zero();
  for (std::uint32_t consumer : {0u, 1u}) {
    bool done = false;
    const core::DiscoverySession& session = sc.node(NodeId(consumer))
        .collect_items(core::Filter{},
                       [&](const core::DiscoverySession::Result& r) {
                         out.add("distinct_received",
                                 std::uint64_t{r.distinct_received});
                         out.add("latency_s", r.latency.as_seconds());
                         out.add("rounds",
                                 static_cast<std::uint64_t>(r.rounds));
                         out.add("finished_at_s", r.finished_at.as_seconds());
                         done = true;
                       });
    horizon = horizon + SimTime::seconds(30);
    sc.run_until(horizon);
    ASSERT_TRUE(done) << "consumer " << consumer;
    for (const net::ItemPayload& item : session.received_items()) {
      out.add("item_key", item.descriptor.entry_key());
      out.add("item_hash", item.content_hash);
      out.add("item_bytes", std::uint64_t{item.size_bytes});
    }
  }
  expect_digests(tracer, out, 0x7b0c33dce0bddb97, 0xeb43255cdddf7ee6);
}

// PDR retrieval of a 2 MB item on a 4x4 grid.
TEST(OutcomeGolden, RetrievalGrid) {
  obs::Tracer tracer(0);
  RetrievalGridParams p;
  p.nx = p.ny = 4;
  p.item_size_bytes = 2u * 1024 * 1024;
  p.seed = 3;
  p.tracer = &tracer;
  const RetrievalOutcome o = run_retrieval_grid(p);
  OutcomeText out;
  out.add("recall", o.recall);
  out.add("latency_s", o.latency_s);
  out.add("overhead_mb", o.overhead_mb);
  out.add("all_complete", std::uint64_t{o.all_complete});
  out.add("events_executed", o.events_executed);
  out.add("per_consumer_recall", o.per_consumer_recall);
  out.add("per_consumer_latency_s", o.per_consumer_latency_s);
  for (const auto& arrivals : o.per_consumer_chunk_arrival_s) {
    out.add("chunk_arrival_s", arrivals);
  }
  expect_digests(tracer, out, 0x13e6d243fda7e7c2, 0x48bf82a3e39fffd0);
}

}  // namespace
}  // namespace pds::wl

// End-to-end PDD integration tests on small grids: discovery completeness,
// multi-round recovery, caching effects, and the saturation behaviours the
// paper reports in §VI-B.
#include <gtest/gtest.h>

#include <unordered_map>

#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pds::wl {
namespace {

core::PdsConfig fast_config() {
  core::PdsConfig pds;
  // Paper's best parameters: T = 1 s, T_r = T_d = 0.
  return pds;
}

TEST(IntegrationPdd, SingleConsumerSmallGridFullRecall) {
  PddGridParams p;
  p.nx = 5;
  p.ny = 5;
  p.metadata_count = 500;
  p.pds = fast_config();
  p.seed = 42;
  const PddOutcome out = run_pdd_grid(p);
  EXPECT_TRUE(out.all_finished);
  EXPECT_GE(out.recall, 0.99);
  EXPECT_GT(out.latency_s, 0.0);
  EXPECT_LT(out.latency_s, 30.0);
  EXPECT_GT(out.overhead_mb, 0.0);
}

// Every copy a run makes of a published descriptor (store records,
// responses, relay and overhear caches) is a handle to the publisher's
// representation: a deep copy anywhere on the path fails here instead of
// showing up only as memory. Set-up as OutcomeGolden.PddGridMetadata: two
// sequential consumers on a 5x5 grid with the serve cooldown on.
TEST(IntegrationPdd, CachedRecordsSharePublishedDescriptors) {
  GridSetup setup;
  setup.nx = setup.ny = 5;
  setup.pds.entry_serve_cooldown = SimTime::seconds(3.0);
  Grid grid = make_grid(setup, 7);
  Scenario& sc = *grid.scenario;
  Rng rng(7);
  const std::vector<core::DataDescriptor> catalogue =
      make_sample_descriptors(400, SampleSpace{}, rng);
  const std::vector<NodeId> consumers = {grid.ids.front(), grid.ids.back()};
  std::vector<core::PdsNode*> nodes = sc.nodes();
  distribute_metadata(nodes, catalogue, 1, rng, consumers);
  std::unordered_map<std::uint64_t, const core::DataDescriptor*> published;
  for (const core::DataDescriptor& d : catalogue) {
    published.emplace(d.entry_key(), &d);
  }

  int finished = 0;
  sc.node(consumers[0])
      .discover(core::Filter{}, [&](const core::DiscoverySession::Result&) {
        ++finished;
        sc.node(consumers[1])
            .discover(core::Filter{},
                      [&](const core::DiscoverySession::Result&) {
                        ++finished;
                      });
      });
  sc.run_until(SimTime::seconds(120));
  ASSERT_EQ(finished, 2);

  std::size_t records = 0;
  for (const core::PdsNode* n : sc.nodes()) {
    n->store().visit_metadata(
        SimTime::zero(),
        [&](std::uint64_t key, const core::DataStore::MetaRecord& rec) {
          ++records;
          const auto it = published.find(key);
          ASSERT_NE(it, published.end());
          EXPECT_EQ(&rec.descriptor.attributes(), &it->second->attributes())
              << "node " << n->id() << " holds a deep copy of entry " << key;
        });
  }
  // Relays and overhearers cached copies beyond the 400 published records.
  EXPECT_GT(records, 2 * catalogue.size());
}

TEST(IntegrationPdd, SingleRoundWithoutAckLosesEntries) {
  PddGridParams p;
  p.nx = 7;
  p.ny = 7;
  p.metadata_count = 2000;
  p.multi_round = false;
  p.ack = false;
  p.seed = 7;
  const PddOutcome single = run_pdd_grid(p);

  p.multi_round = true;
  p.ack = true;
  const PddOutcome multi = run_pdd_grid(p);

  EXPECT_LT(single.recall, 1.0);
  EXPECT_GT(multi.recall, single.recall);
  EXPECT_GE(multi.recall, 0.99);
}

TEST(IntegrationPdd, SequentialConsumersBenefitFromCaching) {
  PddGridParams p;
  p.nx = 7;
  p.ny = 7;
  // Enough entries that transfer time dominates the first consumer's
  // latency; the caching benefit for later consumers is then unambiguous.
  p.metadata_count = 4000;
  p.consumers = 3;
  p.sequential = true;
  p.seed = 11;
  const PddOutcome out = run_pdd_grid(p);
  ASSERT_TRUE(out.all_finished);
  ASSERT_EQ(out.per_consumer_recall.size(), 3u);
  for (double r : out.per_consumer_recall) EXPECT_GE(r, 0.99);
  // The paper's later consumers finish dramatically faster thanks to
  // overhearing/caching; require the last to beat the first.
  EXPECT_LT(out.per_consumer_latency_s.back(),
            out.per_consumer_latency_s.front());
}

TEST(IntegrationPdd, SimultaneousConsumersAllReachFullRecall) {
  PddGridParams p;
  p.nx = 7;
  p.ny = 7;
  p.metadata_count = 1000;
  p.consumers = 3;
  p.sequential = false;
  p.seed = 13;
  const PddOutcome out = run_pdd_grid(p);
  ASSERT_TRUE(out.all_finished);
  for (double r : out.per_consumer_recall) EXPECT_GE(r, 0.99);
}

}  // namespace
}  // namespace pds::wl

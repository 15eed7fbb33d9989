// Engine-level behavioural tests for PDD query/response processing on tiny
// deterministic topologies (loss-free medium): flooding and duplicate
// suppression, reverse-path response routing, lingering queries, mixedcast,
// en-route Bloom rewriting, opportunistic caching and the ablation toggles.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/pdd.h"
#include "net/transport.h"
#include "util/bloom_filter.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pds::core {
namespace {

sim::RadioConfig lossless_radio() {
  sim::RadioConfig cfg = sim::clean_radio_profile();
  cfg.loss_probability = 0.0;
  return cfg;
}

// Nodes in a row, adjacent-only connectivity (spacing 10 m, range 15 m).
std::unique_ptr<wl::Scenario> make_line(std::size_t n, const PdsConfig& pds,
                                        std::uint64_t seed = 1) {
  auto sc = std::make_unique<wl::Scenario>(seed, lossless_radio());
  for (std::size_t i = 0; i < n; ++i) {
    sc->add_node(NodeId(static_cast<std::uint32_t>(i)),
                 {static_cast<double>(i) * 10.0, 0.0}, pds);
  }
  return sc;
}

DataDescriptor entry(int seq) {
  DataDescriptor d;
  d.set(kAttrDataType, std::string("sample"));
  d.set("seq", std::int64_t{seq});
  return d;
}

struct FrameCount {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t entries_on_air = 0;
};

// Counting wrapper used by the tests below.
class CountingScenario {
 public:
  CountingScenario(std::size_t line_nodes, const PdsConfig& pds,
                   std::uint64_t seed = 1)
      : sc_(make_line(line_nodes, pds, seed)) {
    sc_->medium().set_tx_observer([this](NodeId, const sim::Frame& f) {
      const net::Message* msg = nullptr;
      if (auto m = std::dynamic_pointer_cast<const net::Message>(f.payload)) {
        msg = m.get();
      } else if (auto frag = std::dynamic_pointer_cast<
                     const net::FragmentPayload>(f.payload)) {
        if (frag->index != 0) return;  // count each message once
        msg = frag->whole.get();
      }
      if (msg == nullptr || msg->is_ack() || msg->is_repair()) return;
      if (msg->is_query()) {
        ++counts_.queries;
      } else {
        ++counts_.responses;
        counts_.response_bytes += f.size_bytes;
        counts_.entries_on_air += msg->metadata.size() + msg->items.size();
      }
    });
  }

  wl::Scenario& operator*() { return *sc_; }
  wl::Scenario* operator->() { return sc_.get(); }
  [[nodiscard]] const FrameCount& counts() const { return counts_; }

 private:
  std::unique_ptr<wl::Scenario> sc_;
  FrameCount counts_;
};

TEST(PddEngine, QueryFloodsOncePerNode) {
  PdsConfig pds;
  pds.max_rounds = 1;
  pds.empty_round_retries = 0;
  CountingScenario sc(5, pds);
  sc->node(NodeId(4)).publish_metadata(entry(1));

  bool done = false;
  sc->node(NodeId(0)).discover(Filter{},
                               [&](const DiscoverySession::Result&) {
                                 done = true;
                               });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  // Each of the 5 nodes transmits the flooded query at most once (the last
  // node's forward dies unheard but is still sent).
  EXPECT_LE(sc.counts().queries, 5u);
  EXPECT_GE(sc.counts().queries, 4u);
}

TEST(PddEngine, EntriesReturnAlongReversePath) {
  PdsConfig pds;
  CountingScenario sc(4, pds);
  // Entries live at the far end; the consumer at node 0 must get them over
  // 3 hops.
  for (int i = 0; i < 10; ++i) sc->node(NodeId(3)).publish_metadata(entry(i));

  std::size_t received = 0;
  bool done = false;
  sc->node(NodeId(0)).discover(
      Filter{}, [&](const DiscoverySession::Result& r) {
        received = r.distinct_received;
        done = true;
      });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(received, 10u);
  // The response crossed 3 hops: transmitted 3 times (producer + 2 relays).
  EXPECT_EQ(sc.counts().responses, 3u);
}

TEST(PddEngine, IntermediateNodesCacheRelayedEntries) {
  PdsConfig pds;
  CountingScenario sc(4, pds);
  sc->node(NodeId(3)).publish_metadata(entry(7));

  bool done = false;
  sc->node(NodeId(0)).discover(Filter{},
                               [&](const DiscoverySession::Result&) {
                                 done = true;
                               });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  // Relays 1 and 2 now hold the entry as cached metadata.
  EXPECT_TRUE(sc->node(NodeId(1)).store().has_metadata(
      entry(7).entry_key(), sc->sim().now()));
  EXPECT_TRUE(sc->node(NodeId(2)).store().has_metadata(
      entry(7).entry_key(), sc->sim().now()));
}

TEST(PddEngine, OverhearingCacheTogglesOff) {
  PdsConfig pds;
  pds.enable_overhearing_cache = false;
  // Triangle: consumer 0, producer 1 adjacent; node 2 adjacent to both but
  // never on the reverse path.
  auto sc = std::make_unique<wl::Scenario>(3, lossless_radio());
  sc->add_node(NodeId(0), {0, 0}, pds);
  sc->add_node(NodeId(1), {10, 0}, pds);
  sc->add_node(NodeId(2), {5, 8}, pds);
  sc->node(NodeId(1)).publish_metadata(entry(1));

  bool done = false;
  sc->node(NodeId(0)).discover(Filter{},
                               [&](const DiscoverySession::Result&) {
                                 done = true;
                               });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  // Node 2 received the query (flooded: it is an intended receiver and
  // caches via its own lingering handling), but the response to node 0 was
  // only overheard — with the toggle off it must not be cached.
  EXPECT_FALSE(sc->node(NodeId(2)).store().has_metadata(
      entry(1).entry_key(), sc->sim().now()));
}

TEST(PddEngine, OverhearingCachePopulatesBystanders) {
  PdsConfig pds;  // default: overhearing cache on
  auto sc = std::make_unique<wl::Scenario>(3, lossless_radio());
  sc->add_node(NodeId(0), {0, 0}, pds);
  sc->add_node(NodeId(1), {10, 0}, pds);
  sc->add_node(NodeId(2), {5, 8}, pds);
  sc->node(NodeId(1)).publish_metadata(entry(1));

  bool done = false;
  sc->node(NodeId(0)).discover(Filter{},
                               [&](const DiscoverySession::Result&) {
                                 done = true;
                               });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(sc->node(NodeId(2)).store().has_metadata(
      entry(1).entry_key(), sc->sim().now()));
}

TEST(PddEngine, FilterPrunesResponses) {
  for (const bool items : {false, true}) {
    SCOPED_TRACE(items ? "items" : "metadata");
    PdsConfig pds;
    CountingScenario sc(3, pds);
    for (int i = 0; i < 20; ++i) {
      if (items) {
        net::ItemPayload item;
        item.descriptor = entry(i);
        item.size_bytes = 100;
        sc->node(NodeId(2)).publish_item(item);
      } else {
        sc->node(NodeId(2)).publish_metadata(entry(i));
      }
    }

    Filter f;
    f.where_range("seq", std::int64_t{5}, std::int64_t{9});
    std::size_t received = 0;
    bool done = false;
    const auto on_done = [&](const DiscoverySession::Result& r) {
      received = r.distinct_received;
      done = true;
    };
    if (items) {
      sc->node(NodeId(0)).collect_items(f, on_done);
    } else {
      sc->node(NodeId(0)).discover(f, on_done);
    }
    sc->run_until(SimTime::seconds(30));
    ASSERT_TRUE(done);
    EXPECT_EQ(received, 5u);
    EXPECT_EQ(sc.counts().entries_on_air, 10u);  // 5 entries × 2 hops
  }
}

TEST(PddEngine, BloomRewritingSuppressesDuplicateEntries) {
  // Two producers hold identical copies of the same entries one hop apart;
  // with rewriting, the duplicate copies are pruned en route.
  PdsConfig with;
  PdsConfig without = with;
  without.enable_bloom_rewriting = false;

  std::uint64_t entries_with = 0;
  std::uint64_t entries_without = 0;
  for (int variant = 0; variant < 2; ++variant) {
    const PdsConfig& pds = variant == 0 ? with : without;
    CountingScenario sc(4, pds);
    // Same 30 entries at nodes 2 and 3 (redundancy 2).
    for (int i = 0; i < 30; ++i) {
      sc->node(NodeId(2)).publish_metadata(entry(i));
      sc->node(NodeId(3)).publish_metadata(entry(i));
    }
    bool done = false;
    std::size_t received = 0;
    sc->node(NodeId(0)).discover(Filter{},
                                 [&](const DiscoverySession::Result& r) {
                                   received = r.distinct_received;
                                   done = true;
                                 });
    sc->run_until(SimTime::seconds(60));
    ASSERT_TRUE(done);
    EXPECT_EQ(received, 30u);
    (variant == 0 ? entries_with : entries_without) =
        sc.counts().entries_on_air;
  }
  EXPECT_LT(entries_with, entries_without);
}

TEST(PddEngine, MixedcastServesTwoConsumersWithSharedTransmissions) {
  // Y topology: producer at the stem; two consumers behind a shared relay.
  // With mixedcast the relay's single transmission serves both consumers.
  PdsConfig with;
  PdsConfig without = with;
  without.enable_mixedcast = false;

  std::uint64_t responses_with = 0;
  std::uint64_t responses_without = 0;
  for (int variant = 0; variant < 2; ++variant) {
    const PdsConfig& pds = variant == 0 ? with : without;
    auto sc = std::make_unique<wl::Scenario>(7, lossless_radio());
    // producer(3) — relay(2) — fork: consumer A(0) and consumer B(1).
    sc->add_node(NodeId(3), {30, 0}, pds);
    sc->add_node(NodeId(2), {20, 0}, pds);
    sc->add_node(NodeId(0), {10, 6}, pds);   // adjacent to relay only
    sc->add_node(NodeId(1), {10, -6}, pds);  // adjacent to relay only
    for (int i = 0; i < 40; ++i) {
      sc->node(NodeId(3)).publish_metadata(entry(i));
    }

    std::uint64_t responses = 0;
    sc->medium().set_tx_observer([&](NodeId from, const sim::Frame& f) {
      const auto msg =
          std::dynamic_pointer_cast<const net::Message>(f.payload);
      if (msg != nullptr && msg->is_response() && from == NodeId(2)) {
        ++responses;
      }
    });

    int finished = 0;
    std::size_t got_a = 0;
    std::size_t got_b = 0;
    sc->node(NodeId(0)).discover(Filter{},
                                 [&](const DiscoverySession::Result& r) {
                                   got_a = r.distinct_received;
                                   ++finished;
                                 });
    sc->node(NodeId(1)).discover(Filter{},
                                 [&](const DiscoverySession::Result& r) {
                                   got_b = r.distinct_received;
                                   ++finished;
                                 });
    sc->run_until(SimTime::seconds(60));
    ASSERT_EQ(finished, 2);
    EXPECT_EQ(got_a, 40u);
    EXPECT_EQ(got_b, 40u);
    (variant == 0 ? responses_with : responses_without) = responses;
  }
  // Mixedcast: one joint transmission with both receivers listed; without
  // it, the relay transmits separately per consumer.
  EXPECT_LT(responses_with, responses_without);
}

TEST(PddEngine, TtlLimitsFloodScope) {
  PdsConfig pds;
  pds.max_rounds = 1;
  pds.empty_round_retries = 0;
  CountingScenario sc(6, pds);
  sc->node(NodeId(5)).publish_metadata(entry(1));

  // Send a hand-built query with ttl 2 from node 0: it must reach nodes 1
  // (ttl 2) and 2 (ttl 1, not forwarded), never nodes 3+.
  auto& consumer = sc->node(NodeId(0));
  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kMetadata;
  query->query_id = consumer.context().new_query_id();
  query->sender = NodeId(0);
  query->expire_at = SimTime::seconds(100);
  query->ttl = 2;
  consumer.transport().send(query);
  sc->run_until(SimTime::seconds(10));

  EXPECT_TRUE(sc->node(NodeId(1)).lqt().contains(query->query_id));
  EXPECT_TRUE(sc->node(NodeId(2)).lqt().contains(query->query_id));
  EXPECT_FALSE(sc->node(NodeId(3)).lqt().contains(query->query_id));
}

TEST(PddEngine, ExpiredQueriesAreIgnored) {
  PdsConfig pds;
  CountingScenario sc(3, pds);
  sc->node(NodeId(2)).publish_metadata(entry(1));

  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kMetadata;
  query->query_id = QueryId(12345);
  query->sender = NodeId(0);
  query->expire_at = SimTime::zero();  // already expired
  sc->node(NodeId(0)).transport().send(query);
  sc->run_until(SimTime::seconds(5));
  EXPECT_FALSE(sc->node(NodeId(1)).lqt().contains(QueryId(12345)));
}

TEST(PddEngine, SmallItemsCollectedWithPayload) {
  PdsConfig pds;
  CountingScenario sc(3, pds);
  Rng rng(5);
  const auto items = wl::make_sample_items(12, 150, wl::SampleSpace{}, rng);
  for (const auto& item : items) {
    sc->node(NodeId(2)).publish_item(item);
  }

  bool done = false;
  const DiscoverySession* session = nullptr;
  session = &sc->node(NodeId(0)).collect_items(
      Filter{}, [&](const DiscoverySession::Result&) { done = true; });
  sc->run_until(SimTime::seconds(30));
  ASSERT_TRUE(done);
  ASSERT_EQ(session->received_items().size(), 12u);
  // Payload content survives the trip.
  std::map<std::uint64_t, std::uint64_t> expected;
  for (const auto& item : items) {
    expected[item.descriptor.entry_key()] = item.content_hash;
  }
  for (const auto& got : session->received_items()) {
    EXPECT_EQ(got.content_hash, expected[got.descriptor.entry_key()]);
    EXPECT_EQ(got.size_bytes, 150u);
  }
}

// Serve-time suppression at one relay (DESIGN.md §16). The relay holds one
// entry of each kind a fresh lingering query must not be served, plus
// survivors; it must serve exactly the survivors and the publisher copy, in
// store order, split at max_entries_per_response. A fresh query's
// served_keys is empty when the store is served, so the served-key leg is
// checked afterwards on the push path of the same lingering query.
TEST(PddEngine, ServeCooldownSkipsOnlyFreshCachedCopies) {
  PdsConfig pds;
  pds.entry_serve_cooldown = SimTime::seconds(5);
  pds.max_entries_per_response = 3;
  pds.metadata_ttl = SimTime::seconds(60);
  // Keep the query's Bloom filter as sent, so served_keys alone suppresses
  // the re-push below.
  pds.enable_bloom_rewriting = false;
  auto sc = make_line(2, pds);
  std::vector<std::vector<std::uint64_t>> responses;
  std::set<std::uint64_t> response_ids;  // count retransmissions once
  sc->medium().set_tx_observer([&](NodeId from, const sim::Frame& f) {
    auto m = std::dynamic_pointer_cast<const net::Message>(f.payload);
    if (from != NodeId(1) || m == nullptr || !m->is_response() ||
        !response_ids.insert(m->response_id.value()).second) {
      return;
    }
    std::vector<std::uint64_t>& keys = responses.emplace_back();
    for (const DataDescriptor& d : m->metadata) keys.push_back(d.entry_key());
  });

  const SimTime now = SimTime::seconds(10);
  sc->run_until(now);
  PdsNode& relay = sc->node(NodeId(1));
  DataStore& store = relay.store();
  // Cached-only copy that expired at t = 1 s.
  store.insert_metadata(entry(0), false, SimTime::zero(), SimTime::seconds(1));
  // Cached-only copy heard 1 s ago: inside the cooldown.
  store.insert_metadata(entry(1), false, now - SimTime::seconds(1),
                        pds.metadata_ttl);
  // Publisher copy published in the same window: never suppressed.
  store.insert_metadata(entry(2), true, now - SimTime::seconds(1),
                        SimTime::zero());
  // Held by the consumer according to the query's Bloom filter.
  store.insert_metadata(entry(3), true, SimTime::zero(), SimTime::zero());
  // Survivors: cached-only copies heard before the window.
  for (int seq = 4; seq < 10; ++seq) {
    store.insert_metadata(entry(seq), false, SimTime::zero(),
                          pds.metadata_ttl);
  }

  auto query = std::make_shared<net::Message>();
  query->type = net::MessageType::kQuery;
  query->kind = net::ContentKind::kMetadata;
  query->query_id = QueryId(77);
  query->sender = NodeId(0);
  query->receivers = {NodeId(0)};  // not addressed to the relay: no forward
  query->expire_at = now + SimTime::seconds(30);
  query->exclude = util::BloomFilter(4096, 4, 1);
  query->exclude.insert(entry(3).entry_key());

  std::vector<std::uint64_t> expected;
  for (const DataDescriptor& d : store.match_metadata(Filter{}, now)) {
    const std::uint64_t key = d.entry_key();
    if (key == entry(1).entry_key() || key == entry(3).entry_key()) continue;
    ASSERT_FALSE(query->exclude.maybe_contains(key));
    expected.push_back(key);
  }
  ASSERT_EQ(expected.size(), 7u);  // the publisher copy and six survivors

  PddEngine engine(relay.context());
  engine.handle_query(query);
  sc->run_until(now + SimTime::seconds(2));

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].size(), 3u);
  EXPECT_EQ(responses[1].size(), 3u);
  EXPECT_EQ(responses[2].size(), 1u);
  std::vector<std::uint64_t> served;
  for (const auto& keys : responses) {
    served.insert(served.end(), keys.begin(), keys.end());
  }
  EXPECT_EQ(served, expected);

  LingeringQuery* lq = relay.lqt().find(query->query_id);
  ASSERT_NE(lq, nullptr);
  EXPECT_EQ(lq->served_keys.size(), expected.size());
  // Re-publishing a served entry or the Bloom-held one pushes nothing; an
  // entry the query has not seen is pushed at once.
  responses.clear();
  engine.serve_new_publication(entry(4));
  engine.serve_new_publication(entry(3));
  engine.serve_new_publication(entry(10));
  sc->run_until(now + SimTime::seconds(4));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0], std::vector<std::uint64_t>{entry(10).entry_key()});
}

}  // namespace
}  // namespace pds::core

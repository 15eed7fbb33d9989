// Tests for per-node protocol state: DataStore (metadata/chunk/item
// semantics and expiration), LingeringQueryTable, CdiTable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/cdi_table.h"
#include "core/data_store.h"
#include "core/lingering_query_table.h"

namespace pds::core {
namespace {

DataDescriptor entry(int seq) {
  DataDescriptor d;
  d.set(kAttrNamespace, std::string("env"));
  d.set(kAttrDataType, std::string("nox"));
  d.set("seq", std::int64_t{seq});
  return d;
}

DataDescriptor chunked_item(int chunks = 4) {
  DataDescriptor d;
  d.set(kAttrName, std::string("clip"));
  d.set(kAttrTotalChunks, std::int64_t{chunks});
  return d;
}

// -- DataStore: metadata -----------------------------------------------------

TEST(DataStore, InsertAndMatch) {
  DataStore store;
  const SimTime now = SimTime::zero();
  EXPECT_TRUE(store.insert_metadata(entry(1), true, now, SimTime::zero()));
  EXPECT_FALSE(store.insert_metadata(entry(1), true, now, SimTime::zero()));
  EXPECT_TRUE(store.insert_metadata(entry(2), true, now, SimTime::zero()));

  EXPECT_EQ(store.match_metadata(Filter{}, now).size(), 2u);
  Filter f;
  f.where("seq", Relation::kEq, std::int64_t{1});
  const auto matched = store.match_metadata(f, now);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], entry(1));
}

TEST(DataStore, CachedOnlyEntriesExpire) {
  // Paper §II-C: an entry cached without payload gets an expiration and is
  // removed once it passes without the payload arriving.
  DataStore store;
  store.insert_metadata(entry(1), /*has_payload=*/false, SimTime::zero(),
                        SimTime::seconds(10.0));
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(5)));
  EXPECT_FALSE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(11)));
  EXPECT_TRUE(store.match_metadata(Filter{}, SimTime::seconds(11)).empty());
}

TEST(DataStore, PayloadBackedEntriesNeverExpire) {
  DataStore store;
  store.insert_metadata(entry(1), /*has_payload=*/true, SimTime::zero(),
                        SimTime::zero());
  EXPECT_TRUE(
      store.has_metadata(entry(1).entry_key(), SimTime::minutes(1e6)));
}

TEST(DataStore, PayloadArrivalUpgradesCachedEntry) {
  DataStore store;
  store.insert_metadata(entry(1), false, SimTime::zero(),
                        SimTime::seconds(5.0));
  store.insert_metadata(entry(1), true, SimTime::seconds(1.0),
                        SimTime::zero());
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::minutes(60)));
}

TEST(DataStore, ReinsertionRefreshesExpiry) {
  DataStore store;
  store.insert_metadata(entry(1), false, SimTime::zero(),
                        SimTime::seconds(5.0));
  store.insert_metadata(entry(1), false, SimTime::seconds(4.0),
                        SimTime::seconds(5.0));
  EXPECT_TRUE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(8)));
  EXPECT_FALSE(store.has_metadata(entry(1).entry_key(), SimTime::seconds(10)));
}

TEST(DataStore, SweepRemovesExpired) {
  DataStore store;
  for (int i = 0; i < 10; ++i) {
    store.insert_metadata(entry(i), false, SimTime::zero(),
                          SimTime::seconds(1.0));
  }
  store.insert_metadata(entry(100), true, SimTime::zero(), SimTime::zero());
  store.sweep(SimTime::seconds(2.0));
  EXPECT_EQ(store.metadata_count(SimTime::seconds(2.0)), 1u);
}

// metadata_count(t) answers in O(1) while no cached-only copy can have
// expired and scans otherwise; either way it must equal a full recount, at
// any t and in any order of t. Probes around the latest expiries the test
// scheduled: just before, at and just after each, plus the current time and
// a later one. At each probe the visitor must yield only live records, each
// under its own entry key, and in the order match_metadata lists them.
void expect_count_matches_recount(const DataStore& store, SimTime now,
                                  const std::vector<SimTime>& expiries,
                                  int step) {
  std::vector<SimTime> probes = {now + SimTime::seconds(5.0), now};
  const std::size_t latest = std::min<std::size_t>(expiries.size(), 3);
  for (std::size_t i = 0; i < latest; ++i) {
    const SimTime at = expiries[expiries.size() - 1 - i];
    probes.push_back(at + SimTime::micros(1));
    probes.push_back(at);
    probes.push_back(at - SimTime::micros(1));
  }
  for (const SimTime t : probes) {
    const std::vector<DataDescriptor> matched =
        store.match_metadata(Filter{}, t);
    ASSERT_EQ(store.metadata_count(t), matched.size())
        << "step " << step << ", t=" << t.as_micros() << "us";
    std::vector<DataDescriptor> visited;
    store.visit_metadata(
        t, [&](std::uint64_t key, const DataStore::MetaRecord& rec) {
          EXPECT_FALSE(rec.expired(t));
          EXPECT_TRUE(store.has_metadata(key, t));
          EXPECT_EQ(key, rec.descriptor.entry_key());
          visited.push_back(rec.descriptor);
        });
    ASSERT_EQ(visited, matched)
        << "step " << step << ", t=" << t.as_micros() << "us";
  }
}

TEST(DataStore, MetadataCountMatchesRecountUnderRandomOperations) {
  for (const ChunkEvictionPolicy policy :
       {ChunkEvictionPolicy::kLru, ChunkEvictionPolicy::kLfu}) {
    SCOPED_TRACE(policy == ChunkEvictionPolicy::kLru ? "LRU" : "LFU");
    Rng rng(policy == ChunkEvictionPolicy::kLru ? 11 : 12);
    DataStore store;
    // Three 100-byte chunks fit; every further one evicts and demotes a
    // chunk entry to cached-only with this TTL.
    const SimTime eviction_ttl = SimTime::seconds(1.0);
    store.set_chunk_cache_limit(300, policy, eviction_ttl);
    const std::array<SimTime, 4> ttls = {SimTime::zero(), SimTime::millis(500),
                                         SimTime::seconds(1.0),
                                         SimTime::seconds(2.0)};
    const std::array<DataDescriptor, 2> items = {chunked_item(8),
                                                 chunked_item(6)};
    std::vector<SimTime> expiries;
    SimTime now = SimTime::zero();
    for (int step = 0; step < 2000; ++step) {
      now += SimTime::millis(rng.uniform_int(0, 300));
      const std::int64_t op = rng.uniform_int(0, 99);
      // A small key pool, so most inserts refresh or upgrade a record.
      const int key = static_cast<int>(rng.uniform_int(0, 29));
      if (op < 50) {
        const bool payload = rng.uniform_int(0, 3) == 0;
        const SimTime ttl =
            ttls[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        store.insert_metadata(entry(key), payload, now, ttl);
        if (!payload) expiries.push_back(now + ttl);
      } else if (op < 65) {
        net::ItemPayload item;
        item.descriptor = entry(key);
        item.size_bytes = 10;
        item.content_hash = static_cast<std::uint64_t>(key);
        store.insert_item(item, now);
      } else if (op < 94) {
        const DataDescriptor& item =
            items[static_cast<std::size_t>(rng.uniform_int(0, 1))];
        const auto index = static_cast<ChunkIndex>(rng.uniform_int(0, 5));
        store.insert_chunk(item, index,
                           net::ChunkPayload{.index = index, .size_bytes = 100,
                                             .content_hash = index},
                           now, /*pinned=*/rng.uniform_int(0, 9) == 0);
        expiries.push_back(now + eviction_ttl);
      } else if (op < 99) {
        store.sweep(now);
      } else {
        store.clear();
      }
      expect_count_matches_recount(store, now, expiries, step);
      if (HasFatalFailure()) return;
    }
  }
}

// -- DataStore: chunks ---------------------------------------------------------

TEST(DataStore, ChunkStorageAndLookup) {
  DataStore store;
  const DataDescriptor item = chunked_item();
  const ItemId id = item.item_id();
  store.insert_chunk(item, 2,
                     net::ChunkPayload{.index = 2, .size_bytes = 100,
                                       .content_hash = 5},
                     SimTime::zero());
  EXPECT_TRUE(store.has_chunk(id, 2));
  EXPECT_FALSE(store.has_chunk(id, 1));
  ASSERT_TRUE(store.chunk(id, 2).has_value());
  EXPECT_EQ(store.chunk(id, 2)->content_hash, 5u);
  EXPECT_EQ(store.chunks_of(id), (std::vector<ChunkIndex>{2}));
}

TEST(DataStore, ChunkInsertCreatesPayloadBackedChunkMetadata) {
  // Paper §II-C: a metadata entry exists as long as any chunk of the item
  // does.
  DataStore store;
  const DataDescriptor item = chunked_item();
  store.insert_chunk(item, 0,
                     net::ChunkPayload{.index = 0, .size_bytes = 1,
                                       .content_hash = 0},
                     SimTime::zero());
  const std::uint64_t chunk_key = item.chunk_descriptor(0).entry_key();
  EXPECT_TRUE(store.has_metadata(chunk_key, SimTime::minutes(1e6)));
}

TEST(DataStore, ChunksOfDifferentItemsAreIsolated) {
  DataStore store;
  const DataDescriptor a = chunked_item(4);
  DataDescriptor b = chunked_item(4);
  b.set(kAttrName, std::string("other"));
  store.insert_chunk(a, 0,
                     net::ChunkPayload{.index = 0, .size_bytes = 1,
                                       .content_hash = 1},
                     SimTime::zero());
  EXPECT_TRUE(store.has_chunk(a.item_id(), 0));
  EXPECT_FALSE(store.has_chunk(b.item_id(), 0));
  EXPECT_TRUE(store.chunks_of(b.item_id()).empty());
}

// -- DataStore: items -----------------------------------------------------------

TEST(DataStore, ItemsMatchedByFilter) {
  DataStore store;
  for (int i = 0; i < 5; ++i) {
    net::ItemPayload item;
    item.descriptor = entry(i);
    item.size_bytes = 100;
    item.content_hash = static_cast<std::uint64_t>(i);
    store.insert_item(item, SimTime::zero());
  }
  Filter f;
  f.where_range("seq", std::int64_t{1}, std::int64_t{3});
  std::vector<std::uint64_t> matched_hashes;
  store.visit_items([&](std::uint64_t key, const net::ItemPayload& item) {
    EXPECT_EQ(key, item.descriptor.entry_key());
    if (f.matches(item.descriptor)) {
      matched_hashes.push_back(item.content_hash);
    }
  });
  std::sort(matched_hashes.begin(), matched_hashes.end());
  EXPECT_EQ(matched_hashes, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(store.has_item(entry(0).entry_key()));
  EXPECT_EQ(store.item_count(), 5u);
}

// -- LingeringQueryTable --------------------------------------------------------

net::MessagePtr make_query(std::uint64_t id, NodeId sender,
                           net::ContentKind kind = net::ContentKind::kMetadata,
                           SimTime expire = SimTime::seconds(100)) {
  auto q = std::make_shared<net::Message>();
  q->type = net::MessageType::kQuery;
  q->kind = kind;
  q->query_id = QueryId(id);
  q->sender = sender;
  q->expire_at = expire;
  return q;
}

TEST(LingeringQueryTable, InsertCapturesUpstreamAndDetectsDuplicates) {
  LingeringQueryTable lqt;
  const auto q = make_query(1, NodeId(7));
  EXPECT_FALSE(lqt.contains(QueryId(1)));
  LingeringQuery& lq = lqt.insert(q, SimTime::zero());
  EXPECT_EQ(lq.upstream, NodeId(7));
  EXPECT_TRUE(lqt.contains(QueryId(1)));
  ASSERT_NE(lqt.find(QueryId(1)), nullptr);
  EXPECT_EQ(lqt.find(QueryId(2)), nullptr);
}

TEST(LingeringQueryTable, LiveQueriesFilteredByKindAndExpiry) {
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1), net::ContentKind::kMetadata),
             SimTime::zero());
  lqt.insert(make_query(2, NodeId(2), net::ContentKind::kChunk),
             SimTime::zero());
  lqt.insert(make_query(3, NodeId(3), net::ContentKind::kMetadata,
                        SimTime::seconds(1.0)),
             SimTime::zero());

  EXPECT_EQ(lqt.live_queries(net::ContentKind::kMetadata, SimTime::zero())
                .size(),
            2u);
  // Query 3 expires.
  EXPECT_EQ(lqt.live_queries(net::ContentKind::kMetadata, SimTime::seconds(2))
                .size(),
            1u);
  EXPECT_EQ(lqt.live_queries(net::ContentKind::kChunk, SimTime::zero()).size(),
            1u);
}

TEST(LingeringQueryTable, ConsumedQueriesAreNotLive) {
  LingeringQueryTable lqt;
  LingeringQuery& lq = lqt.insert(make_query(1, NodeId(1)), SimTime::zero());
  lq.consumed = true;
  EXPECT_TRUE(
      lqt.live_queries(net::ContentKind::kMetadata, SimTime::zero()).empty());
}

TEST(LingeringQueryTable, LingeringUnlikeOneShotInterests) {
  // The defining property (§III-A.1): a lingering query stays usable across
  // many responses until expiry.
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1)), SimTime::zero());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        lqt.live_queries(net::ContentKind::kMetadata, SimTime::seconds(i))
            .size(),
        1u);
  }
}

TEST(LingeringQueryTable, SweepDropsExpired) {
  LingeringQueryTable lqt;
  lqt.insert(make_query(1, NodeId(1), net::ContentKind::kMetadata,
                        SimTime::seconds(1)),
             SimTime::zero());
  lqt.insert(make_query(2, NodeId(2)), SimTime::zero());
  lqt.sweep(SimTime::seconds(5));
  EXPECT_EQ(lqt.size(), 1u);
  EXPECT_FALSE(lqt.contains(QueryId(1)));
}

// -- CdiTable -----------------------------------------------------------------

TEST(CdiTable, KeepsLeastHopAndAllTiedNeighbors) {
  CdiTable cdi;
  const ItemId item(1);
  const SimTime now = SimTime::zero();
  const SimTime ttl = SimTime::seconds(30);

  EXPECT_TRUE(cdi.update(item, 0, 3, NodeId(1), now, ttl));
  EXPECT_TRUE(cdi.update(item, 0, 2, NodeId(2), now, ttl));  // closer: replaces
  EXPECT_TRUE(cdi.update(item, 0, 2, NodeId(3), now, ttl));  // tie: extends
  EXPECT_FALSE(cdi.update(item, 0, 5, NodeId(4), now, ttl));  // farther: no-op
  EXPECT_FALSE(cdi.update(item, 0, 2, NodeId(2), now, ttl));  // duplicate

  const CdiRecord* rec = cdi.lookup(item, 0, now);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->hop_count, 2u);
  EXPECT_EQ(rec->neighbors.size(), 2u);
}

TEST(CdiTable, EntriesExpire) {
  CdiTable cdi;
  const ItemId item(1);
  cdi.update(item, 0, 1, NodeId(1), SimTime::zero(), SimTime::seconds(10));
  EXPECT_NE(cdi.lookup(item, 0, SimTime::seconds(5)), nullptr);
  EXPECT_EQ(cdi.lookup(item, 0, SimTime::seconds(11)), nullptr);
  // A fresh update after expiry replaces even with a larger hop count.
  EXPECT_TRUE(cdi.update(item, 0, 7, NodeId(9), SimTime::seconds(12),
                         SimTime::seconds(10)));
  EXPECT_EQ(cdi.lookup(item, 0, SimTime::seconds(13))->hop_count, 7u);
}

TEST(CdiTable, LookupItemReturnsAllChunks) {
  CdiTable cdi;
  const ItemId item(1);
  const ItemId other(2);
  for (ChunkIndex c = 0; c < 5; ++c) {
    cdi.update(item, c, c + 1, NodeId(c), SimTime::zero(),
               SimTime::seconds(30));
  }
  cdi.update(other, 0, 1, NodeId(9), SimTime::zero(), SimTime::seconds(30));
  const auto all = cdi.lookup_item(item, SimTime::zero());
  EXPECT_EQ(all.size(), 5u);
  for (const auto& [chunk, rec] : all) {
    EXPECT_EQ(rec.hop_count, chunk + 1);
  }
}

TEST(CdiTable, SweepDropsExpired) {
  CdiTable cdi;
  cdi.update(ItemId(1), 0, 1, NodeId(1), SimTime::zero(),
             SimTime::seconds(1));
  cdi.update(ItemId(1), 1, 1, NodeId(1), SimTime::zero(),
             SimTime::seconds(100));
  cdi.sweep(SimTime::seconds(10));
  EXPECT_EQ(cdi.size(), 1u);
}

}  // namespace
}  // namespace pds::core

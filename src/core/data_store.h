// Per-node Data Store (paper §II-C).
//
// Holds three kinds of state:
//  * metadata entries — descriptors indicating potential data availability.
//    An entry cached without its payload carries an expiration and is removed
//    once it expires without the payload arriving, keeping metadata and data
//    roughly synchronized network-wide;
//  * data chunks — pieces of large items (payload represented by size +
//    content hash in simulation);
//  * small data items — complete descriptor+payload units.
//
// Inserting a chunk or item refreshes the corresponding metadata entry to
// payload-backed (no expiration), per the rule that a metadata entry exists
// as long as any part of the data item does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/descriptor.h"
#include "core/predicate.h"
#include "net/message.h"

namespace pds::core {

// Eviction policy for the bounded opportunistic chunk cache (§VII: caching
// strategies based on popularity and resource availability).
enum class ChunkEvictionPolicy {
  kLru,  // evict the least recently inserted/accessed cached chunk
  // Evict the least frequently accessed (popularity-based). Note that a
  // just-inserted chunk has one access, so LFU denies admission to
  // newcomers while the cache is full of chunks that have actually been
  // served — the cache keeps what is popular, per §VII.
  kLfu,
};

class DataStore {
 public:
  // A metadata entry and its caching provenance: whether this node holds
  // the payload (publisher/retriever copy) and, for cached-only copies, when
  // the copy last arrived off the air. Serve-time suppression
  // (`entry_serve_cooldown`, DESIGN.md §16) reads both.
  struct MetaRecord {
    DataDescriptor descriptor;
    bool has_payload = false;
    SimTime expire_at = SimTime::max();
    // Last time a cached-only copy of this entry arrived off the air
    // (relayed or overheard response). Meaningless once payload-backed.
    SimTime cached_at = SimTime::zero();

    [[nodiscard]] bool expired(SimTime now) const {
      return !has_payload && expire_at <= now;
    }
  };

  // -- Metadata --------------------------------------------------------------
  // Inserts (or refreshes) a metadata entry. `has_payload` entries never
  // expire; cached-only entries expire at now + ttl. Returns true when the
  // entry was not present before.
  bool insert_metadata(const DataDescriptor& d, bool has_payload, SimTime now,
                       SimTime ttl);
  [[nodiscard]] bool has_metadata(std::uint64_t entry_key, SimTime now) const;
  // Unexpired entries matching the filter, copied (a thin wrapper over
  // visit_metadata for tests and replays).
  [[nodiscard]] std::vector<DataDescriptor> match_metadata(const Filter& f,
                                                           SimTime now) const;
  // Unexpired entries at `now`; always exact. O(1) while `now` is before
  // the earliest expiry any cached-only entry can have (the maintained
  // `earliest_expiry_` bound); once a cached-only copy may have expired
  // since the last sweep() it falls back to an O(store) scan. It never
  // sweeps: erasing would reorder the map, and match order is on the wire.
  [[nodiscard]] std::size_t metadata_count(SimTime now) const;

  // -- Chunks ------------------------------------------------------------
  // Limits the bytes of *cached* (unpinned) chunks; locally published
  // chunks are pinned and never evicted. Evicted chunks demote their
  // metadata entry to cached-only with `metadata_ttl` so it can expire
  // (paper §II-C: a metadata entry exists as long as the data does).
  // 0 = unlimited (the default; the paper caches everything it overhears).
  void set_chunk_cache_limit(std::size_t bytes, ChunkEvictionPolicy policy,
                             SimTime metadata_ttl);

  // `item_descriptor` must be the chunk's parent item descriptor. Also
  // records the chunk's metadata entry as payload-backed. `pinned` chunks
  // (locally published) are exempt from cache eviction.
  void insert_chunk(const DataDescriptor& item_descriptor, ChunkIndex index,
                    net::ChunkPayload payload, SimTime now,
                    bool pinned = false);
  [[nodiscard]] bool has_chunk(ItemId item, ChunkIndex index) const;
  // Counts as an access for eviction purposes (LRU recency / LFU
  // popularity).
  [[nodiscard]] std::optional<net::ChunkPayload> chunk(ItemId item,
                                                       ChunkIndex index);
  [[nodiscard]] std::vector<ChunkIndex> chunks_of(ItemId item) const;
  [[nodiscard]] std::size_t chunk_count() const;
  [[nodiscard]] std::size_t cached_chunk_bytes() const {
    return cached_chunk_bytes_;
  }

  // -- Small items -----------------------------------------------------------
  void insert_item(const net::ItemPayload& item, SimTime now);
  [[nodiscard]] bool has_item(std::uint64_t entry_key) const;
  [[nodiscard]] std::size_t item_count() const;

  // -- Matching --------------------------------------------------------------
  // The store's one match primitive. visit_metadata calls `fn(key, record)`
  // for every live metadata record, skipping expired cached-only ones;
  // visit_items calls `fn(key, item)` for every small item (items never
  // expire). `key` is the record's entry_key(). Records are yielded by
  // reference, without a copy, in the maps' iteration order. That order
  // reaches the wire (responses list entries in it); it depends only on the
  // history of inserts and erases, under a given standard library's hash
  // order. Callers decide on the key first (already served? in the query's
  // Bloom filter?), then on `Filter::matches`, and copy only what they
  // send. `fn` must not modify the store.
  template <typename Fn>
  void visit_metadata(SimTime now, Fn&& fn) const {
    for (const auto& [key, rec] : metadata_) {
      if (!rec.expired(now)) fn(key, rec);
    }
  }
  template <typename Fn>
  void visit_items(Fn&& fn) const {
    for (const auto& [key, item] : items_) fn(key, item);
  }

  // Drops expired cached-only metadata entries.
  void sweep(SimTime now);

  // Crash-with-wipe fault semantics: the process's entire store is gone.
  // Cache limits and eviction policy survive (they are configuration).
  void clear() {
    metadata_.clear();
    earliest_expiry_ = SimTime::max();
    chunks_.clear();
    items_.clear();
    cached_chunk_bytes_ = 0;
  }

 private:
  struct ChunkRecord {
    net::ChunkPayload payload;
    DataDescriptor item_descriptor;
    bool pinned = false;
    std::uint64_t last_access = 0;  // logical clock (recency)
    std::uint64_t accesses = 0;     // popularity
  };

  void evict_cached_chunks_if_needed(SimTime now);

  std::unordered_map<std::uint64_t, MetaRecord> metadata_;
  // Lower bound on expire_at over cached-only records: lowered when a
  // record becomes cached-only (insert, eviction demotion), recomputed
  // exactly by sweep(). Refreshes only extend expire_at and payload
  // upgrades leave the set, so neither needs to touch it.
  SimTime earliest_expiry_ = SimTime::max();
  std::map<std::pair<ItemId, ChunkIndex>, ChunkRecord> chunks_;
  std::unordered_map<std::uint64_t, net::ItemPayload> items_;

  std::size_t chunk_cache_limit_ = 0;  // 0 = unlimited
  ChunkEvictionPolicy chunk_policy_ = ChunkEvictionPolicy::kLru;
  SimTime eviction_metadata_ttl_ = SimTime::minutes(10.0);
  std::size_t cached_chunk_bytes_ = 0;  // unpinned bytes held
  std::uint64_t access_clock_ = 0;
};

}  // namespace pds::core

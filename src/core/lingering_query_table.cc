#include "core/lingering_query_table.h"

#include <algorithm>

#include "common/assert.h"

namespace pds::core {

LingeringQuery& LingeringQueryTable::insert(const net::MessagePtr& query,
                                            SimTime now) {
  PDS_ENSURE(query->is_query());
  PDS_ENSURE(!table_.contains(query->query_id));
  LingeringQuery lq;
  lq.query = query;
  lq.upstream = query->sender;
  lq.expire_at = std::min(query->expire_at, now + SimTime::minutes(10.0));
  lq.exclude = query->exclude;
  lq.trace = query->trace;
  auto [it, inserted] = table_.emplace(query->query_id, std::move(lq));
  PDS_ENSURE(inserted);
  return it->second;
}

LingeringQuery* LingeringQueryTable::find(QueryId id) {
  auto it = table_.find(id);
  return it == table_.end() ? nullptr : &it->second;
}

std::vector<LingeringQuery*> LingeringQueryTable::live_queries(
    net::ContentKind kind, SimTime now) {
  std::vector<LingeringQuery*> out;
  for (auto& [id, lq] : table_) {
    if (lq.expired(now) || lq.consumed) continue;
    if (lq.query->kind != kind) continue;
    out.push_back(&lq);
  }
  return out;
}

std::size_t LingeringQueryTable::purge_upstream(NodeId upstream,
                                                net::ContentKind kind) {
  std::size_t dropped = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.upstream == upstream && it->second.query->kind == kind) {
      it = table_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

LingeringQueryTable::BloomStats LingeringQueryTable::bloom_stats() const {
  BloomStats out;
  for (const auto& [id, lq] : table_) {
    out.max_fill = std::max(out.max_fill, lq.exclude.fill_ratio());
  }
  return out;
}

std::size_t LingeringQueryTable::sweep(SimTime now) {
  std::size_t expired = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.expired(now)) {
      it = table_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  return expired;
}

}  // namespace pds::core

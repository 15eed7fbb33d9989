#include "core/descriptor.h"

#include <algorithm>

#include "common/assert.h"
#include "common/hash.h"

namespace pds::core {

namespace {

std::uint64_t hash_encoding(const std::vector<Attribute>& attrs,
                            std::size_t count, bool skip_chunk_id) {
  // Every set() rekeys, so a descriptor built attribute by attribute
  // encodes once per attribute; one scratch buffer per thread keeps that
  // from regrowing a fresh buffer each time.
  thread_local ByteWriter w;
  w.clear();
  w.put_u16(static_cast<std::uint16_t>(count));
  for (const Attribute& a : attrs) {
    if (!(skip_chunk_id && a.name == kAttrChunkId)) encode_attribute(w, a);
  }
  return fnv1a64(w.bytes());
}

}  // namespace

void DataDescriptor::Rep::rekey() {
  entry_key = hash_encoding(attrs, attrs.size(), false);
  // item_id() is the key of item_descriptor(): the same encoding without
  // the chunk_id attribute, which only chunk descriptors carry.
  const bool chunk = std::any_of(attrs.begin(), attrs.end(),
                                 [](const Attribute& a) {
                                   return a.name == kAttrChunkId;
                                 });
  item_id = ItemId(chunk ? hash_encoding(attrs, attrs.size() - 1, true)
                         : entry_key);
}

const DataDescriptor::Rep& DataDescriptor::empty_rep() {
  static const Rep empty = [] {
    Rep r;
    r.rekey();
    return r;
  }();
  return empty;
}

DataDescriptor DataDescriptor::from_attributes(std::vector<Attribute> attrs) {
  DataDescriptor d;
  d.rep_ = std::make_shared<Rep>();
  d.rep_->attrs = std::move(attrs);
  d.rep_->rekey();
  return d;
}

DataDescriptor& DataDescriptor::set(std::string_view name, AttrValue value) {
  // Copy-on-write: a representation another handle shares is never written.
  if (!rep_) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
  }
  std::vector<Attribute>& attrs = rep_->attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
  if (it != attrs.end() && it->name == name) {
    it->value = std::move(value);
  } else {
    attrs.insert(it, Attribute{std::string(name), std::move(value)});
  }
  rep_->rekey();
  return *this;
}

const AttrValue* DataDescriptor::find(std::string_view name) const {
  const std::vector<Attribute>& attrs = attributes();
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
  if (it != attrs.end() && it->name == name) return &it->value;
  return nullptr;
}

namespace {

std::string_view string_attr(const DataDescriptor& d, std::string_view name) {
  const AttrValue* v = d.find(name);
  if (v == nullptr) return {};
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return {};
}

std::optional<std::int64_t> int_attr(const DataDescriptor& d,
                                     std::string_view name) {
  const AttrValue* v = d.find(name);
  if (v == nullptr) return std::nullopt;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  return std::nullopt;
}

}  // namespace

std::string_view DataDescriptor::namespace_name() const {
  return string_attr(*this, kAttrNamespace);
}

std::string_view DataDescriptor::data_type() const {
  return string_attr(*this, kAttrDataType);
}

std::optional<std::int64_t> DataDescriptor::total_chunks() const {
  return int_attr(*this, kAttrTotalChunks);
}

std::optional<ChunkIndex> DataDescriptor::chunk_id() const {
  const auto v = int_attr(*this, kAttrChunkId);
  if (!v.has_value()) return std::nullopt;
  return static_cast<ChunkIndex>(*v);
}

DataDescriptor DataDescriptor::chunk_descriptor(ChunkIndex index) const {
  DataDescriptor d = *this;
  d.set(kAttrChunkId, static_cast<std::int64_t>(index));
  return d;
}

DataDescriptor DataDescriptor::item_descriptor() const {
  std::vector<Attribute> attrs;
  for (const Attribute& a : attributes()) {
    if (a.name != kAttrChunkId) attrs.push_back(a);
  }
  return from_attributes(std::move(attrs));
}

void DataDescriptor::encode(ByteWriter& w) const {
  const std::vector<Attribute>& attrs = attributes();
  w.put_u16(static_cast<std::uint16_t>(attrs.size()));
  for (const Attribute& a : attrs) encode_attribute(w, a);
}

DataDescriptor DataDescriptor::decode(ByteReader& r) {
  const std::uint16_t n = r.get_u16();
  // A serialized attribute is at least 5 bytes (u16 name length + value
  // tag + u16 string length), so a count the remaining buffer cannot hold
  // is malformed; reject it before it drives the loop and the vector
  // growth below (pdsflow wire-taint).
  if (std::size_t{n} * 5 > r.remaining()) {
    throw DecodeError("descriptor attribute count exceeds buffer");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    attrs.push_back(decode_attribute(r));
  }
  // The wire is produced by encode() and is therefore strictly sorted
  // (set() keeps names unique); a malformed message must not break that
  // invariant. Strictness matters: a duplicate name would pass a plain
  // is_sorted check here yet be rejected by the compressed-entry encoding,
  // so the same descriptor would round-trip on one wire form and not the
  // other.
  const bool canonical =
      std::adjacent_find(attrs.begin(), attrs.end(),
                         [](const Attribute& a, const Attribute& b) {
                           return !(a.name < b.name);
                         }) == attrs.end();
  if (!canonical) throw DecodeError("descriptor attributes not canonical");
  return from_attributes(std::move(attrs));
}

std::vector<std::byte> DataDescriptor::canonical_bytes() const {
  ByteWriter w;
  encode(w);
  return w.take();
}

}  // namespace pds::core

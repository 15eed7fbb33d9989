// Data descriptors — the self-contained metadata identifying a data item or
// chunk (paper §II-B).
//
// A descriptor is a set of attributes, kept sorted by name so that logically
// equal descriptors have identical canonical encodings. Identity is
// hash-based:
//
//  * item_id()   — hash of the canonical encoding *excluding* chunk_id:
//                  all chunks of one large item share it;
//  * entry_key() — hash *including* chunk_id: the key used in Bloom filters
//                  and redundancy detection, unique per metadata entry.
//
// A descriptor is immutable once published, so a DataDescriptor is a handle
// to one shared representation (the sorted attributes plus both hashes,
// computed when the representation is built or changed). Copying a handle
// bumps a reference count; a store record, a payload or a message holding
// a copy of a published descriptor costs no attribute storage of its own.
// set() is copy-on-write: it clones the representation only when another
// handle shares it, so no handle ever observes another's change and a
// shared representation is never written (copies may cross threads).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "core/attribute.h"

namespace pds::core {

// Well-known attribute names.
inline constexpr std::string_view kAttrNamespace = "ns";
inline constexpr std::string_view kAttrDataType = "type";
inline constexpr std::string_view kAttrName = "name";
inline constexpr std::string_view kAttrTime = "time";
inline constexpr std::string_view kAttrTotalChunks = "total_chunks";
inline constexpr std::string_view kAttrChunkId = "chunk_id";

// Reserved namespace / data types for protocol-internal exchanges (§III-A:
// metadata queries use namespace "system", data type "metadata"; §IV-A: CDI
// uses data type "cdi").
inline constexpr std::string_view kSystemNamespace = "system";
inline constexpr std::string_view kMetadataType = "metadata";
inline constexpr std::string_view kCdiType = "cdi";

class DataDescriptor {
 public:
  DataDescriptor() = default;

  // Sets (or replaces) an attribute.
  DataDescriptor& set(std::string_view name, AttrValue value);

  [[nodiscard]] const AttrValue* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Attribute>& attributes() const {
    return rep().attrs;
  }

  // Convenience accessors for well-known attributes.
  [[nodiscard]] std::string_view namespace_name() const;
  [[nodiscard]] std::string_view data_type() const;
  [[nodiscard]] std::optional<std::int64_t> total_chunks() const;
  [[nodiscard]] std::optional<ChunkIndex> chunk_id() const;
  [[nodiscard]] bool is_chunk() const { return chunk_id().has_value(); }

  // The descriptor of chunk `index` of this item: this descriptor with a
  // chunk_id attribute appended (paper §II-B).
  [[nodiscard]] DataDescriptor chunk_descriptor(ChunkIndex index) const;
  // This descriptor with the chunk_id attribute removed.
  [[nodiscard]] DataDescriptor item_descriptor() const;

  [[nodiscard]] ItemId item_id() const { return rep().item_id; }
  [[nodiscard]] std::uint64_t entry_key() const { return rep().entry_key; }

  void encode(ByteWriter& w) const;
  [[nodiscard]] static DataDescriptor decode(ByteReader& r);
  [[nodiscard]] std::vector<std::byte> canonical_bytes() const;

  friend bool operator==(const DataDescriptor& a, const DataDescriptor& b) {
    return a.rep_ == b.rep_ || a.attributes() == b.attributes();
  }

 private:
  struct Rep {
    // Sorted by attribute name; unique names.
    std::vector<Attribute> attrs;
    // Hashes of the canonical encoding with and without chunk_id; both are
    // on hot paths (store matching, Bloom pruning, lingering-query lookup).
    std::uint64_t entry_key = 0;
    ItemId item_id;

    // Recomputes both hashes from `attrs`; called whenever they change,
    // before the representation can be shared.
    void rekey();
  };

  // The representation of the empty descriptor; a default-constructed
  // handle holds no representation and reads this one.
  static const Rep& empty_rep();
  [[nodiscard]] const Rep& rep() const { return rep_ ? *rep_ : empty_rep(); }
  static DataDescriptor from_attributes(std::vector<Attribute> attrs);

  std::shared_ptr<Rep> rep_;
};

}  // namespace pds::core

// Unit tests for the content-centric data model: attributes, descriptors,
// predicates/filters.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/bytes.h"
#include "common/hash.h"
#include "core/attribute.h"
#include "core/descriptor.h"
#include "core/predicate.h"

namespace pds::core {
namespace {

// -- Attribute values ---------------------------------------------------------

TEST(AttributeValue, NumericCrossTypeComparison) {
  EXPECT_EQ(compare_values(AttrValue(std::int64_t{3}), AttrValue(3.0)),
            std::partial_ordering::equivalent);
  EXPECT_EQ(compare_values(AttrValue(std::int64_t{2}), AttrValue(2.5)),
            std::partial_ordering::less);
  EXPECT_EQ(compare_values(AttrValue(3.5), AttrValue(std::int64_t{3})),
            std::partial_ordering::greater);
}

TEST(AttributeValue, ExactIntegerComparisonAvoidsRounding) {
  const auto big = std::int64_t{1} << 60;
  EXPECT_EQ(compare_values(AttrValue(big), AttrValue(big + 1)),
            std::partial_ordering::less);
}

TEST(AttributeValue, StringComparison) {
  EXPECT_EQ(compare_values(AttrValue(std::string("abc")),
                           AttrValue(std::string("abd"))),
            std::partial_ordering::less);
  EXPECT_EQ(compare_values(AttrValue(std::string("x")),
                           AttrValue(std::string("x"))),
            std::partial_ordering::equivalent);
}

TEST(AttributeValue, StringVsNumberUnordered) {
  EXPECT_EQ(compare_values(AttrValue(std::string("5")),
                           AttrValue(std::int64_t{5})),
            std::partial_ordering::unordered);
}

TEST(AttributeValue, EncodeDecodeRoundTrip) {
  for (const AttrValue& v :
       {AttrValue(std::int64_t{-7}), AttrValue(2.718),
        AttrValue(std::string("namespace/type"))}) {
    ByteWriter w;
    encode_value(w, v);
    ByteReader r(w.bytes());
    EXPECT_EQ(decode_value(r), v);
  }
}

// -- DataDescriptor -----------------------------------------------------------

DataDescriptor sample_descriptor() {
  DataDescriptor d;
  d.set(kAttrNamespace, std::string("env"));
  d.set(kAttrDataType, std::string("nox"));
  d.set(kAttrTime, std::int64_t{1'600'000'000});
  d.set("x", 12.5);
  d.set("y", 3.25);
  return d;
}

TEST(DataDescriptor, AttributesSortedAndUnique) {
  DataDescriptor d;
  d.set("zebra", std::int64_t{1});
  d.set("alpha", std::int64_t{2});
  d.set("zebra", std::int64_t{3});  // replaces
  ASSERT_EQ(d.attributes().size(), 2u);
  EXPECT_EQ(d.attributes()[0].name, "alpha");
  EXPECT_EQ(d.attributes()[1].name, "zebra");
  EXPECT_EQ(*d.find("zebra"), AttrValue(std::int64_t{3}));
  EXPECT_EQ(d.find("missing"), nullptr);
}

TEST(DataDescriptor, InsertionOrderIrrelevantForIdentity) {
  DataDescriptor a;
  a.set("p", std::int64_t{1});
  a.set("q", std::int64_t{2});
  DataDescriptor b;
  b.set("q", std::int64_t{2});
  b.set("p", std::int64_t{1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.entry_key(), b.entry_key());
  EXPECT_EQ(a.canonical_bytes(), b.canonical_bytes());
}

TEST(DataDescriptor, WellKnownAccessors) {
  const DataDescriptor d = sample_descriptor();
  EXPECT_EQ(d.namespace_name(), "env");
  EXPECT_EQ(d.data_type(), "nox");
  EXPECT_FALSE(d.total_chunks().has_value());
  EXPECT_FALSE(d.is_chunk());
}

TEST(DataDescriptor, ChunkDescriptorRoundTrip) {
  DataDescriptor item = sample_descriptor();
  item.set(kAttrTotalChunks, std::int64_t{10});
  const DataDescriptor chunk3 = item.chunk_descriptor(3);
  EXPECT_TRUE(chunk3.is_chunk());
  EXPECT_EQ(chunk3.chunk_id(), 3u);
  EXPECT_EQ(chunk3.item_descriptor(), item);
  EXPECT_EQ(chunk3.item_id(), item.item_id());
  EXPECT_NE(chunk3.entry_key(), item.entry_key());
  EXPECT_NE(chunk3.entry_key(), item.chunk_descriptor(4).entry_key());
}

TEST(DataDescriptor, ItemIdExcludesChunkId) {
  DataDescriptor item = sample_descriptor();
  const ItemId id = item.item_id();
  for (ChunkIndex c = 0; c < 5; ++c) {
    EXPECT_EQ(item.chunk_descriptor(c).item_id(), id);
  }
}

TEST(DataDescriptor, EncodeDecodeRoundTrip) {
  const DataDescriptor d = sample_descriptor();
  ByteWriter w;
  d.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(DataDescriptor::decode(r), d);
}

TEST(DataDescriptor, DecodeRejectsNonCanonicalOrder) {
  // Hand-craft an encoding with attributes out of order.
  ByteWriter w;
  w.put_u16(2);
  encode_attribute(w, Attribute{"b", std::int64_t{1}});
  encode_attribute(w, Attribute{"a", std::int64_t{2}});
  ByteReader r(w.bytes());
  EXPECT_THROW((void)DataDescriptor::decode(r), DecodeError);
}

TEST(DataDescriptor, KeyCacheInvalidatedBySet) {
  DataDescriptor d = sample_descriptor();
  const std::uint64_t k1 = d.entry_key();
  d.set("x", 99.0);
  EXPECT_NE(d.entry_key(), k1);
}

// -- Shared representation ----------------------------------------------------

static_assert(sizeof(DataDescriptor) <= 16,
              "a descriptor is a handle to a shared representation");

TEST(DataDescriptor, CopySharesRepresentation) {
  const DataDescriptor d = sample_descriptor();
  const DataDescriptor copy = d;
  EXPECT_EQ(&copy.attributes(), &d.attributes());
  EXPECT_EQ(copy.entry_key(), d.entry_key());
  EXPECT_EQ(copy.item_id(), d.item_id());
}

TEST(DataDescriptor, SetOnCopyLeavesOriginalUnchanged) {
  const DataDescriptor d = sample_descriptor();
  const std::vector<Attribute> attrs = d.attributes();
  const std::uint64_t key = d.entry_key();
  const ItemId item = d.item_id();

  DataDescriptor copy = d;
  copy.set("x", 99.0);
  EXPECT_NE(&copy.attributes(), &d.attributes());
  EXPECT_EQ(d.attributes(), attrs);
  EXPECT_EQ(d.entry_key(), key);
  EXPECT_EQ(d.item_id(), item);
  EXPECT_NE(copy.entry_key(), key);
  EXPECT_NE(copy.item_id(), item);

  // chunk_descriptor() is a copy plus set(): the item is untouched.
  const DataDescriptor chunk = d.chunk_descriptor(2);
  EXPECT_EQ(d.attributes(), attrs);
  EXPECT_EQ(d.entry_key(), key);
  EXPECT_EQ(chunk.item_id(), item);
}

TEST(DataDescriptor, SharedAndUnsharedHandlesCompareEqual) {
  const DataDescriptor a = sample_descriptor();
  const DataDescriptor b = sample_descriptor();  // equal, built separately
  const DataDescriptor a2 = a;                   // shares a's representation
  ASSERT_NE(&a.attributes(), &b.attributes());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(a2, b);
  EXPECT_EQ(DataDescriptor{}, DataDescriptor{});
  EXPECT_FALSE(a == DataDescriptor{});
}

TEST(DataDescriptor, DecodeNeverShares) {
  const DataDescriptor d = sample_descriptor();
  for (const DataDescriptor& src : {d, d.chunk_descriptor(1),
                                    DataDescriptor{}}) {
    ByteWriter w;
    src.encode(w);
    ByteReader r(w.bytes());
    const DataDescriptor decoded = DataDescriptor::decode(r);
    EXPECT_NE(&decoded.attributes(), &src.attributes());
    EXPECT_EQ(decoded, src);
    EXPECT_EQ(decoded.entry_key(), src.entry_key());
    EXPECT_EQ(decoded.item_id(), src.item_id());
  }
}

TEST(DataDescriptor, ItemIdIsHashOfItemDescriptorEncoding) {
  DataDescriptor item = sample_descriptor();
  item.set(kAttrTotalChunks, std::int64_t{4});
  for (const DataDescriptor& d :
       {item, item.chunk_descriptor(0), item.chunk_descriptor(3),
        DataDescriptor{}}) {
    ByteWriter w;
    d.item_descriptor().encode(w);
    EXPECT_EQ(d.item_id(), ItemId(fnv1a64(w.bytes())));
    EXPECT_EQ(d.entry_key(), fnv1a64(d.canonical_bytes()));
  }
}

TEST(DataDescriptor, DistinctDescriptorsDistinctKeys) {
  std::unordered_set<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    DataDescriptor d = sample_descriptor();
    d.set("seq", std::int64_t{i});
    keys.insert(d.entry_key());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

// -- Predicates / Filters -------------------------------------------------------

TEST(Predicate, Relations) {
  const DataDescriptor d = sample_descriptor();
  auto pred = [](std::string attr, Relation rel, AttrValue v) {
    return Predicate{.attr = std::move(attr), .rel = rel, .value = std::move(v),
                     .value_hi = {}};
  };
  EXPECT_TRUE(pred("x", Relation::kEq, 12.5).matches(d));
  EXPECT_FALSE(pred("x", Relation::kEq, 12.6).matches(d));
  EXPECT_TRUE(pred("x", Relation::kNe, 12.6).matches(d));
  EXPECT_TRUE(pred("x", Relation::kLt, 13.0).matches(d));
  EXPECT_FALSE(pred("x", Relation::kLt, 12.5).matches(d));
  EXPECT_TRUE(pred("x", Relation::kLe, 12.5).matches(d));
  EXPECT_TRUE(pred("x", Relation::kGt, 12.0).matches(d));
  EXPECT_TRUE(pred("x", Relation::kGe, 12.5).matches(d));
  EXPECT_FALSE(pred("x", Relation::kGe, 12.6).matches(d));
}

TEST(Predicate, RangeInclusive) {
  const DataDescriptor d = sample_descriptor();
  Predicate p{.attr = "x",
              .rel = Relation::kInRange,
              .value = 12.5,
              .value_hi = 20.0};
  EXPECT_TRUE(p.matches(d));
  p.value = 12.6;
  EXPECT_FALSE(p.matches(d));
  p.value = 0.0;
  p.value_hi = 12.5;
  EXPECT_TRUE(p.matches(d));
}

TEST(Predicate, MissingAttributeNeverMatches) {
  const DataDescriptor d = sample_descriptor();
  Predicate p{.attr = "nope", .rel = Relation::kNe, .value = 0.0,
              .value_hi = {}};
  EXPECT_FALSE(p.matches(d));
}

TEST(Predicate, IncomparableTypesNeverMatch) {
  const DataDescriptor d = sample_descriptor();  // x is a double
  Predicate p{.attr = "x", .rel = Relation::kEq,
              .value = std::string("12.5"), .value_hi = {}};
  EXPECT_FALSE(p.matches(d));
}

TEST(Filter, EmptyMatchesAll) {
  EXPECT_TRUE(Filter{}.matches(sample_descriptor()));
  EXPECT_TRUE(Filter{}.match_all());
}

TEST(Filter, ConjunctionSemantics) {
  Filter f;
  f.where(std::string(kAttrDataType), Relation::kEq, std::string("nox"))
      .where_range("x", 0.0, 100.0);
  EXPECT_TRUE(f.matches(sample_descriptor()));

  DataDescriptor other = sample_descriptor();
  other.set(kAttrDataType, std::string("co2"));
  EXPECT_FALSE(f.matches(other));

  DataDescriptor far = sample_descriptor();
  far.set("x", 500.0);
  EXPECT_FALSE(f.matches(far));
}

TEST(Filter, SpatioTemporalQueryShape) {
  // The paper's canonical query: a data type within a spatial box and time
  // window.
  Filter f;
  f.where(std::string(kAttrNamespace), Relation::kEq, std::string("env"))
      .where(std::string(kAttrDataType), Relation::kEq, std::string("nox"))
      .where_range(std::string(kAttrTime), std::int64_t{1'599'999'000},
                   std::int64_t{1'600'001'000})
      .where_range("x", 10.0, 20.0)
      .where_range("y", 0.0, 10.0);
  EXPECT_TRUE(f.matches(sample_descriptor()));
}

TEST(Filter, EncodeDecodeRoundTrip) {
  Filter f;
  f.where("a", Relation::kGt, std::int64_t{5})
      .where_range("b", 1.0, 2.0)
      .where("c", Relation::kEq, std::string("str"));
  ByteWriter w;
  f.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Filter::decode(r), f);
}

TEST(Filter, DecodeRejectsUnknownRelation) {
  ByteWriter w;
  w.put_u16(1);
  w.put_string("a");
  w.put_u8(200);  // bogus relation
  encode_value(w, AttrValue(std::int64_t{1}));
  ByteReader r(w.bytes());
  EXPECT_THROW((void)Filter::decode(r), DecodeError);
}

}  // namespace
}  // namespace pds::core

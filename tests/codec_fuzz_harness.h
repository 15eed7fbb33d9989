// Shared fuzz entry for the wire codec, used three ways:
//
//   * tests/codec_fuzzer.cc wraps it in LLVMFuzzerTestOneInput for
//     coverage-guided libFuzzer runs (-DPDS_FUZZ=ON, clang only);
//   * tests/codec_corpus_test.cc replays the checked-in seed corpus
//     (tests/corpus/*.bin) through it in the normal build, so every crash
//     or rejection regression found by fuzzing stays fixed;
//   * tests/codec_fuzz_test.cc drives it with random mutations of valid
//     frames as a property test.
//
// The contract it enforces on arbitrary bytes:
//
//   1. decode() either returns a Message or throws DecodeError — any other
//      exception, signal, or sanitizer report is a bug;
//   2. a decoded message re-encodes, and that encoding decodes and
//      re-encodes to identical bytes (the canonical-form fixed point);
//   3. the on-air charge is the encoding plus the documented modelling
//      overrides: wire_size(m) == encode(m).size() + charge_overrides(m).
//
// Clauses 2 and 3 are checked for the classic codec and with every v2
// extension enabled.
#pragma once

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "net/codec.h"

namespace pds::net {

// What Codec::wire_size charges beyond encode(m).size(), derived from the
// message fields alone (the overrides are documented in net/codec.cc):
//  * every chunk or item payload is charged size_bytes in place of its
//    8-byte content hash;
//  * under a flat entry charge (metadata_entry_bytes > 0) every descriptor
//    in a response's metadata and item sections is charged
//    metadata_entry_bytes in place of its canonical encoding.
// The flat case assumes the classic entry layout, so `cfg` must not combine
// it with compress_entries (WireSizeGolden pins that charge instead).
inline std::int64_t charge_overrides(const WireConfig& cfg, const Message& m) {
  if (!m.is_response()) return 0;
  std::int64_t extra = 0;
  if (m.chunk.has_value()) extra += std::int64_t{m.chunk->size_bytes} - 8;
  for (const ItemPayload& item : m.items) {
    extra += std::int64_t{item.size_bytes} - 8;
  }
  if (cfg.metadata_entry_bytes > 0) {
    const auto flat = [&](const core::DataDescriptor& d) {
      ByteWriter w;
      d.encode(w);
      extra += static_cast<std::int64_t>(cfg.metadata_entry_bytes) -
               static_cast<std::int64_t>(w.size());
    };
    for (const core::DataDescriptor& d : m.metadata) flat(d);
    for (const ItemPayload& item : m.items) flat(item.descriptor);
  }
  return extra;
}

// Clause 3 for one message: the charge equals the encoding plus the
// overrides.
inline bool charge_matches_encoding(const Codec& codec, const Message& m) {
  return static_cast<std::int64_t>(codec.wire_size(m)) ==
         static_cast<std::int64_t>(codec.encode(m).size()) +
             charge_overrides(codec.config(), m);
}

// Runs one fuzz input through the contract. Returns true when the
// bytes decoded as a valid frame (useful as corpus metadata), false when
// they were rejected with DecodeError. Aborts on a canonical-form break or a
// charge mismatch so both libFuzzer and gtest surface it as a hard failure.
inline bool fuzz_one_input(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data), size);

  WireConfig v2;
  v2.metadata_entry_bytes = 0;
  v2.carry_trace_context = true;
  v2.delta_bloom = true;
  v2.compress_entries = true;
  v2.chunk_bitmap = true;
  const Codec codecs[] = {Codec{}, Codec{v2}};

  bool accepted = false;
  for (const Codec& codec : codecs) {
    Message m;
    try {
      m = codec.decode(bytes);
    } catch (const DecodeError&) {
      continue;  // malformed input rejected cleanly
    }
    accepted = true;
    // The decoder accepted it, so its re-encoding must be a fixed point:
    // encode -> decode -> encode is byte-identical. decode() throwing here
    // propagates out as a harness failure by design.
    const std::vector<std::byte> e1 = codec.encode(m);
    const Message m2 = codec.decode(e1);
    const std::vector<std::byte> e2 = codec.encode(m2);
    if (e1 != e2) {
      std::fprintf(stderr,
                   "codec_fuzz_harness: re-encoding is not a fixed point "
                   "(%zu vs %zu bytes)\n",
                   e1.size(), e2.size());
      std::abort();
    }
    if (!charge_matches_encoding(codec, m)) {
      std::fprintf(stderr,
                   "codec_fuzz_harness: wire_size %zu != encoding %zu + "
                   "overrides %" PRId64 "\n",
                   codec.wire_size(m), e1.size(),
                   charge_overrides(codec.config(), m));
      std::abort();
    }
  }
  return accepted;
}

}  // namespace pds::net

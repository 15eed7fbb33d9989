// Time-series / profiler name catalog (DESIGN.md §15).
//
// Every literal column name passed to PDS_TS_COLUMN and every literal scope
// name passed to PDS_PROF_SCOPE must be registered here; pdslint's
// `stats-schema` rule enforces it (the mirror of `trace-schema` /
// trace_schema.h for the flight recorder). Keep the table in sync with the
// collector in src/workload/scenario.cc and the PDS_PROF_SCOPE sites in
// src/sim and src/core.
#pragma once

#include <array>

namespace pds::tools {

struct SeriesSchema {
  const char* name;  // column name, "subsystem.metric"
  const char* kind;  // "sim" (deterministic) or "wall" (thread/host facts)
  const char* unit;  // human unit for pdscli stats rendering
};

inline constexpr std::array<SeriesSchema, 24> kSeriesCatalog = {{
    // -- Scheduler / event queue (sim/event_queue.h) -------------------------
    {"sched.queue_len", "sim", "events"},
    {"sched.ring_live", "sim", "events"},
    {"sched.overflow_depth", "sim", "events"},
    {"sched.slot_pool", "sim", "slots"},
    {"sim.events", "sim", "events"},
    // -- Radio medium (sim/radio.h) ------------------------------------------
    {"radio.active_tx", "sim", "nodes"},
    {"radio.tx_cells", "sim", "cells"},
    {"radio.max_cell_tx", "sim", "nodes"},
    {"radio.air_us", "sim", "us"},
    {"radio.bytes", "sim", "bytes"},
    {"radio.os_backlog_bytes", "sim", "bytes"},
    // -- Transport (net/transport.h), summed over nodes ----------------------
    {"transport.inflight", "sim", "packets"},
    {"transport.send_queue", "sim", "packets"},
    {"transport.pending", "sim", "packets"},
    {"transport.reassembly", "sim", "messages"},
    {"transport.bucket_backlog_us_max", "sim", "us"},
    // -- Per-node protocol state, summed / maxed over nodes ------------------
    {"store.metadata", "sim", "entries"},
    {"store.items", "sim", "items"},
    {"store.chunk_bytes", "sim", "bytes"},
    {"lqt.entries", "sim", "queries"},
    {"lqt.bloom_fill_max", "sim", "ratio"},
    // -- Arena pools (common/arena.h) and host probes ------------------------
    {"arena.rx_pool_parked", "sim", "vectors"},
    {"arena.block_pool_bytes", "wall", "bytes"},
    {"rss.peak_mb", "wall", "MB"},
}};

// Allowed PDS_PROF_SCOPE subsystem names (hierarchy is runtime nesting; the
// catalog registers names, not paths).
inline constexpr std::array<const char*, 6> kProfileScopeCatalog = {
    "sim", "radio", "scheduler", "pdd", "pdr", "transport",
};

}  // namespace pds::tools

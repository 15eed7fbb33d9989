// Repository benchmark driver.
//
// Runs one named workload through the public workload/core API, one
// single-threaded process at a time, checks its outputs, and prints the
// metrics as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set of replica 0, from a traced run
// (profiler scopes, a radio TX observer, the metrics registry) and from
// timed replays of codec sizing, store matching and telemetry rows on a
// still-live end state. perfbench/README.md documents every metric.
//
// One pass runs the workload once per replica seed (replica 0 is --seed
// itself), each untraced instance in a forked child process. Passes repeat
// while they fit in --seconds, and each metric is the median over passes.
// Simulated metrics are deterministic for a seed, and every pass must
// reproduce the first one exactly.
//
//   pds_bench --workload pdd_dense --seed 1 --seconds 20 --trace 0 [--tiny]

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/data_store.h"
#include "core/discovery.h"
#include "core/lingering_query_table.h"
#include "core/node.h"
#include "core/retrieval.h"
#include "net/codec.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "sim/radio.h"
#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace pds;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- Workloads ---------------------------------------------------------------

enum class Engine { kPdd, kPdr };

struct Workload {
  std::string name;
  Engine engine = Engine::kPdd;
  std::size_t grid = 10;        // nx = ny
  std::size_t entries = 0;      // PDD: published catalogue size
  std::size_t item_bytes = 0;   // PDR: size of the one chunked item
  std::size_t consumers = 1;
  bool sequential = false;      // consumers one after another
  bool recorder = false;        // 1 Hz flight recorder attached
  SimTime horizon = SimTime::seconds(180.0);
  int replicas = 1;             // sub-seeded instances per pass
};

std::optional<Workload> make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "pdd_dense" || name == "pdd_recorded") {
    w.engine = Engine::kPdd;
    w.grid = tiny ? 6 : 50;
    w.entries = tiny ? 120 : 2000;
    w.recorder = name == "pdd_recorded";
    // The event queue drains before 30 s, so 40 s gives the outcome of
    // pdscli's 180 s while the recorder commits 40 rows, not 180.
    w.horizon = SimTime::seconds(40.0);
    // Single-seed latency and p50 swing by about 30% between seeds; the
    // replica count sets how steady a pass is across --seed values.
    w.replicas = tiny ? 2 : 12;
  } else if (name == "pdr_sequential") {
    w.engine = Engine::kPdr;
    w.grid = tiny ? 5 : 10;
    w.item_bytes = (tiny ? 2u : 20u) * 1024 * 1024;
    w.consumers = tiny ? 2 : 5;
    w.sequential = true;
    w.horizon = SimTime::seconds(900.0);
    w.replicas = tiny ? 2 : 16;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t replica_seed(std::uint64_t seed, int replica) {
  return seed + static_cast<std::uint64_t>(replica) * 1'000'003u;
}

core::PdsConfig pds_config() {
  core::PdsConfig pds;  // classic wire, unsampled
  pds.transport.reliability_enabled = true;  // per-hop acks on
  return pds;
}

// -- One built instance ------------------------------------------------------

// Copy of the consumer placement in src/workload/experiment.cc (file-local
// there): one consumer at the grid center, more drawn from the center 5×5.
// check_against_harness() guards that the copy still matches.
std::vector<NodeId> pick_consumers(const wl::Grid& grid, std::size_t count,
                                   Rng& rng) {
  std::vector<NodeId> consumers{grid.center};
  if (count <= 1) return consumers;
  std::vector<NodeId> candidates =
      wl::center_subgrid(grid, std::min<std::size_t>(5, grid.nx),
                         std::min<std::size_t>(5, grid.ny));
  candidates.erase(
      std::remove(candidates.begin(), candidates.end(), grid.center),
      candidates.end());
  rng.shuffle(candidates);
  for (std::size_t i = 0; i + 1 < count && i < candidates.size(); ++i) {
    consumers.push_back(candidates[i]);
  }
  return consumers;
}

struct Consumer {
  NodeId id;
  bool started = false;
  SimTime started_at = SimTime::zero();
  const core::DiscoverySession* pdd = nullptr;
  const core::PdrSession* pdr = nullptr;
};

struct Instance {
  // Declared before `grid`: the scenario holds a pointer to it until the
  // scenario is destroyed.
  std::unique_ptr<obs::TimeSeries> recorder;
  wl::Grid grid;
  std::vector<Consumer> consumers;
  std::unordered_set<std::uint64_t> catalogue;  // PDD entry keys
  core::DataDescriptor item;                    // PDR item
  std::size_t total_chunks = 0;
  double grid_s = 0.0;
  double publish_s = 0.0;
  std::function<void(std::size_t)> start_consumer;

  [[nodiscard]] wl::Scenario& sc() { return *grid.scenario; }
};

// Builds the grid, publishes the catalogue or item and picks the consumers,
// in the same RNG order as run_pdd_grid / run_retrieval_grid.
std::unique_ptr<Instance> set_up(const Workload& w, std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  const Clock::time_point t0 = Clock::now();
  wl::GridSetup setup;
  setup.nx = setup.ny = w.grid;
  if (w.engine == Engine::kPdr) {
    // run_retrieval_grid's default: the clean radio profile.
    setup.radio = sim::clean_radio_profile();
  }
  setup.pds = pds_config();
  inst->grid = wl::make_grid(setup, seed);
  const Clock::time_point t1 = Clock::now();
  inst->grid_s = std::chrono::duration<double>(t1 - t0).count();

  wl::Scenario& sc = inst->sc();
  if (w.recorder) {
    inst->recorder = std::make_unique<obs::TimeSeries>(SimTime::millis(1000));
    sc.attach_sampler(inst->recorder.get());
  }
  Rng rng(w.engine == Engine::kPdd ? seed * 7919 + 17 : seed * 6151 + 3);
  const std::vector<NodeId> ids =
      pick_consumers(inst->grid, w.consumers, rng);
  for (NodeId id : ids) inst->consumers.push_back(Consumer{.id = id});
  std::vector<core::PdsNode*> nodes = sc.nodes();
  if (w.engine == Engine::kPdd) {
    const std::vector<core::DataDescriptor> entries =
        wl::make_sample_descriptors(w.entries, wl::SampleSpace{}, rng);
    for (const core::DataDescriptor& d : entries) {
      inst->catalogue.insert(d.entry_key());
    }
    wl::distribute_metadata(nodes, entries, 1, rng, ids);
  } else {
    const std::size_t chunk = setup.pds.chunk_size_bytes;
    inst->item = wl::make_chunked_item("clip", w.item_bytes, chunk);
    inst->total_chunks = wl::chunk_count(inst->item);
    wl::distribute_chunks(nodes, inst->item, w.item_bytes, chunk, 1, rng, ids);
  }
  sc.reset_overhead();
  inst->publish_s = seconds_since(t1);
  return inst;
}

void start_sessions(const Workload& w, Instance& inst) {
  Instance* self = &inst;
  inst.start_consumer = [self, &w](std::size_t i) {
    Consumer& c = self->consumers[i];
    core::PdsNode& node = self->sc().node(c.id);
    c.started = true;
    c.started_at = self->sc().sim().now();
    const auto next = [self, &w, i] {
      if (w.sequential && i + 1 < self->consumers.size()) {
        self->start_consumer(i + 1);
      }
    };
    if (w.engine == Engine::kPdd) {
      c.pdd = &node.discover(core::Filter{},
                             [next](const core::DiscoverySession::Result&) {
                               next();
                             });
    } else {
      c.pdr = &node.retrieve(self->item,
                             [next](const core::RetrievalResult&) { next(); });
    }
  };
  if (w.sequential) {
    inst.start_consumer(0);
  } else {
    for (std::size_t i = 0; i < inst.consumers.size(); ++i) {
      inst.start_consumer(i);
    }
  }
}

// -- Simulated outcome -------------------------------------------------------

// Everything simulated about one instance's run; deterministic for a seed.
struct Outcome {
  std::uint64_t wanted = 0;     // units wanted, summed over consumers
  std::uint64_t delivered = 0;  // units delivered by the horizon
  std::vector<double> latency_s;  // per consumer that received anything
  // Per session with arrivals: median unit arrival since the session began.
  std::vector<double> arrival_p50_s;
  std::uint64_t air_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t pdd_rounds = 0;
  bool all_finished = true;  // PDR: finished and complete
  // Per-consumer views in the library harness's own terms (zero for an
  // unfinished session where the harness reports zero), for
  // check_against_harness().
  std::vector<double> harness_recall;
  std::vector<double> harness_latency_s;
  std::vector<std::vector<double>> harness_arrival_s;  // PDR, sim seconds

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// Collects the outcome and runs the output checks, appending one line per
// failed check to `errors`.
Outcome collect(const Workload& w, Instance& inst,
                std::vector<std::string>& errors) {
  Outcome out;
  for (const Consumer& c : inst.consumers) {
    const std::size_t units =
        w.engine == Engine::kPdd ? w.entries : inst.total_chunks;
    out.wanted += units;
    if (!c.started) {
      out.all_finished = false;
      if (w.engine == Engine::kPdr) {
        out.harness_recall.push_back(0.0);
        out.harness_latency_s.push_back(0.0);
        out.harness_arrival_s.emplace_back();
      }
      continue;
    }
    SimTime last = c.started_at;
    std::vector<double> offsets;  // unit arrivals since the session began
    bool finished = false;
    SimTime latency = SimTime::zero();
    if (c.pdd != nullptr) {
      const core::DiscoverySession& s = *c.pdd;
      out.delivered += s.arrivals().size();
      for (const auto& [key, at] : s.arrivals()) {
        if (!inst.catalogue.contains(key)) {
          errors.push_back("discovered entry key not in the catalogue");
        }
        offsets.push_back((at - c.started_at).as_seconds());
        last = std::max(last, at);
      }
      for (const core::DataDescriptor& d : s.received_entries()) {
        if (!inst.catalogue.contains(d.entry_key())) {
          errors.push_back("discovered descriptor not in the catalogue");
        }
      }
      finished = s.finished();
      if (finished) {
        latency = s.result().latency;
        out.pdd_rounds += static_cast<std::uint64_t>(s.result().rounds);
      }
      out.harness_recall.push_back(static_cast<double>(s.arrivals().size()) /
                                   static_cast<double>(units));
      out.harness_latency_s.push_back(finished ? latency.as_seconds() : 0.0);
    } else {
      const core::PdrSession& s = *c.pdr;
      out.delivered += s.chunks().size();
      const ItemId item = inst.item.item_id();
      for (const auto& [index, payload] : s.chunks()) {
        if (index >= inst.total_chunks || payload.index != index ||
            payload.content_hash != wl::chunk_content_hash(item, index)) {
          errors.push_back("delivered chunk " + std::to_string(index) +
                           " does not match chunk_content_hash");
        }
      }
      std::vector<double> absolute;
      for (const auto& [index, at] : s.arrivals()) {
        offsets.push_back((at - c.started_at).as_seconds());
        absolute.push_back(at.as_seconds());
        last = std::max(last, at);
      }
      std::sort(absolute.begin(), absolute.end());
      out.harness_arrival_s.push_back(std::move(absolute));
      finished = s.finished();
      if (finished) latency = s.result().latency;
      // A PDR session that gave up finishes incomplete.
      if (finished && !s.result().complete) out.all_finished = false;
      out.harness_recall.push_back(
          finished ? static_cast<double>(s.result().chunks_received) /
                         static_cast<double>(units)
                   : 0.0);
      out.harness_latency_s.push_back(finished ? latency.as_seconds() : 0.0);
    }
    if (!finished) {
      out.all_finished = false;
      latency = last - c.started_at;
    }
    if (last > c.started_at) out.latency_s.push_back(latency.as_seconds());
    if (!offsets.empty()) out.arrival_p50_s.push_back(median(offsets));
  }
  out.air_bytes = inst.sc().medium().stats().bytes_transmitted;
  out.events = inst.sc().sim().events_executed();
  return out;
}

// The benchmark builds each workload itself (to time set-up apart from the
// run and to keep the scenario alive afterwards); this replays the same
// params through the library harness and demands the same outcome.
void check_against_harness(const Workload& w, std::uint64_t seed,
                           const Outcome& mine,
                           std::vector<std::string>& errors) {
  const double overhead_mb = static_cast<double>(mine.air_bytes) / 1e6;
  bool same = false;
  if (w.engine == Engine::kPdd) {
    wl::PddGridParams p;
    p.nx = p.ny = w.grid;
    p.metadata_count = w.entries;
    p.consumers = w.consumers;
    p.sequential = w.sequential;
    p.pds = pds_config();
    p.seed = seed;
    p.horizon = w.horizon;
    const wl::PddOutcome ref = wl::run_pdd_grid(p);
    same = ref.per_consumer_recall == mine.harness_recall &&
           ref.per_consumer_latency_s == mine.harness_latency_s &&
           ref.overhead_mb == overhead_mb &&
           ref.events_executed == mine.events &&
           ref.all_finished == mine.all_finished;
  } else {
    wl::RetrievalGridParams p;
    p.nx = p.ny = w.grid;
    p.item_size_bytes = w.item_bytes;
    p.consumers = w.consumers;
    p.sequential = w.sequential;
    p.pds = pds_config();
    p.seed = seed;
    p.horizon = w.horizon;
    const wl::RetrievalOutcome ref = wl::run_retrieval_grid(p);
    same = ref.per_consumer_recall == mine.harness_recall &&
           ref.per_consumer_latency_s == mine.harness_latency_s &&
           ref.per_consumer_chunk_arrival_s == mine.harness_arrival_s &&
           ref.overhead_mb == overhead_mb &&
           ref.events_executed == mine.events &&
           ref.all_complete == mine.all_finished;
  }
  if (!same) {
    errors.push_back("benchmark driver and library harness disagree on seed " +
                     std::to_string(seed));
  }
}

// -- Metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
// Insertion-ordered so the printed JSON follows the documented order.
using Metrics = std::vector<std::pair<std::string, Metric>>;

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m.emplace_back(name, Metric{value, unit});
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

// Simulated end-to-end metrics of one pass: units pooled over replicas,
// per-session figures averaged over every session of every replica.
void put_simulated(Metrics& m, const std::vector<Outcome>& outs) {
  std::uint64_t wanted = 0, delivered = 0, air = 0;
  std::vector<double> latency, p50;
  for (const Outcome& o : outs) {
    wanted += o.wanted;
    delivered += o.delivered;
    air += o.air_bytes;
    latency.insert(latency.end(), o.latency_s.begin(), o.latency_s.end());
    p50.insert(p50.end(), o.arrival_p50_s.begin(), o.arrival_p50_s.end());
  }
  put(m, "recall", ratio(static_cast<double>(delivered),
                         static_cast<double>(wanted)), "ratio");
  put(m, "sim_latency_s", mean(latency), "s");
  put(m, "sim_arrival_p50_s", mean(p50), "s");
  put(m, "air_bytes_per_item",
      ratio(static_cast<double>(air), static_cast<double>(delivered)),
      "B/item");
}

// Per-layer numbers of one traced instance.
struct Layers {
  double scheduler_s = 0, radio_s = 0, transport_s = 0, pdd_s = 0, pdr_s = 0;
  double sim_scope_s = 0, sim_self_s = 0;
  double frames = 0, deliveries = 0, losses = 0, collisions = 0, os_drops = 0;
  double air_query = 0, air_response = 0, air_ack = 0, air_chunk = 0,
         air_other = 0;
  double messages = 0, fragments = 0, retransmissions = 0, gave_up = 0,
         overflow_drops = 0;
  double size_calls = 0, size_s = 0, size_mismatch = 0;
  double store_records = 0, store_matched = 0, store_match_s = 0;
  double lqt_entries = 0, bloom_fill_max = 0;
  double telemetry_rows = 0, telemetry_replay_rows = 0, telemetry_replay_s = 0;
};

// Self time per scope name: each path's ns minus its direct children's,
// summed over every path that ends in the name.
std::map<std::string, double> self_seconds(
    const std::vector<obs::Profiler::Entry>& entries) {
  std::map<std::string, double> self;
  for (const obs::Profiler::Entry& e : entries) {
    std::int64_t ns = e.ns;
    const std::string prefix = e.path + "/";
    for (const obs::Profiler::Entry& child : entries) {
      if (child.depth == e.depth + 1 && child.path.starts_with(prefix)) {
        ns -= child.ns;
      }
    }
    const std::size_t slash = e.path.rfind('/');
    const std::string name =
        slash == std::string::npos ? e.path : e.path.substr(slash + 1);
    self[name] += static_cast<double>(ns) / 1e9;
  }
  return self;
}

// Whole-scope seconds of one path.
double scope_seconds(const std::vector<obs::Profiler::Entry>& entries,
                     const std::string& path) {
  for (const obs::Profiler::Entry& e : entries) {
    if (e.path == path) return static_cast<double>(e.ns) / 1e9;
  }
  return 0.0;
}

// The message a frame carries; fragments carry their whole message by
// pointer. Null for payloads that are not messages.
net::MessagePtr frame_message(const sim::Frame& f) {
  if (auto msg = std::dynamic_pointer_cast<const net::Message>(f.payload)) {
    return msg;
  }
  if (const auto frag =
          std::dynamic_pointer_cast<const net::FragmentPayload>(f.payload)) {
    return frag->whole;
  }
  return nullptr;
}

// Attributes every transmitted frame's bytes to its message type.
void count_air_bytes(wl::Scenario& sc, Layers& l) {
  sc.medium().set_tx_observer([&l](NodeId, const sim::Frame& f) {
    const net::MessagePtr msg = frame_message(f);
    const auto bytes = static_cast<double>(f.size_bytes);
    if (!msg) {
      l.air_other += bytes;
      return;
    }
    switch (msg->type) {
      case net::MessageType::kQuery:
        l.air_query += bytes;
        break;
      case net::MessageType::kResponse:
        (msg->kind == net::ContentKind::kChunk ? l.air_chunk
                                               : l.air_response) += bytes;
        break;
      case net::MessageType::kAck:
        l.air_ack += bytes;
        break;
      case net::MessageType::kRepair:
        l.air_other += bytes;
        break;
    }
  });
}

// Sent messages seen by the TX observer, each once, with its frame count.
// Holding them defers their release past the run, which changes the run's
// allocation pattern; the capture therefore gets a run of its own.
struct Capture {
  std::vector<net::MessagePtr> messages;
  std::vector<std::uint64_t> frames;
  std::unordered_map<const net::Message*, std::size_t> index;
};

void capture_messages(wl::Scenario& sc, Capture& cap) {
  sc.medium().set_tx_observer([&cap](NodeId, const sim::Frame& f) {
    net::MessagePtr msg = frame_message(f);
    if (!msg) return;
    const auto [it, fresh] = cap.index.emplace(msg.get(), cap.messages.size());
    if (fresh) {
      cap.messages.push_back(std::move(msg));
      cap.frames.push_back(0);
    }
    ++cap.frames[it->second];
  });
}

// Keeps timed replays from being optimized away.
volatile std::size_t g_sink = 0;

// Times Codec::wire_size over every captured message and counts query
// frames whose charged size differs from the encoder's output.
void replay_codec(const Capture& cap, const net::WireConfig& wire,
                  Layers& l) {
  const net::Codec codec(wire);
  std::size_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (const net::MessagePtr& m : cap.messages) sink += codec.wire_size(*m);
  l.size_s += seconds_since(t0);
  g_sink = sink;
  l.size_calls += static_cast<double>(cap.messages.size());

  net::WireConfig exact = wire;
  exact.metadata_entry_bytes = 0;  // queries carry no entries
  const net::Codec parity(exact);
  for (std::size_t i = 0; i < cap.messages.size(); ++i) {
    const net::Message& m = *cap.messages[i];
    if (m.is_query() && parity.wire_size(m) != parity.encode(m).size()) {
      l.size_mismatch += static_cast<double>(cap.frames[i]);
    }
  }
}

// Times match_metadata(Filter{}) over every node's end-state store.
void replay_store(Instance& inst, Layers& l) {
  const SimTime now = inst.sc().sim().now();
  std::vector<core::PdsNode*> nodes = inst.sc().nodes();
  std::size_t matched = 0;
  const Clock::time_point t0 = Clock::now();
  for (core::PdsNode* n : nodes) {
    matched += n->store().match_metadata(core::Filter{}, now).size();
  }
  l.store_match_s += seconds_since(t0);
  l.store_matched += static_cast<double>(matched);
  for (core::PdsNode* n : nodes) {
    l.store_records += static_cast<double>(n->store().metadata_count(now) +
                                           n->store().chunk_count() +
                                           n->store().item_count());
    l.lqt_entries += static_cast<double>(n->lqt().size());
    l.bloom_fill_max =
        std::max(l.bloom_fill_max, n->lqt().bloom_stats().max_fill);
  }
}

// One recorder reset followed by `rows` intervals on the end state: the
// collector's per-row cost.
void replay_telemetry(Instance& inst, std::size_t rows, Layers& l) {
  obs::TimeSeries ts(SimTime::millis(1000));
  inst.sc().attach_sampler(&ts);
  const SimTime now = inst.sc().sim().now();
  ts.reset(now);
  const Clock::time_point t0 = Clock::now();
  ts.advance_to(now + SimTime::millis(1000) * static_cast<double>(rows));
  l.telemetry_replay_s += seconds_since(t0);
  l.telemetry_replay_rows += static_cast<double>(ts.row_count());
  inst.sc().attach_sampler(inst.recorder.get());
}

double counter_sum(const obs::MetricsSnapshot& snap, const std::string& field) {
  double sum = 0.0;
  for (const auto& [name, value] : snap.counters) {
    if (name.ends_with(".transport." + field)) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

// -- Instances in child processes -------------------------------------------

// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One untraced instance's figures, as its child process reports them. The
// outcome travels without its harness views; the child checks those itself.
struct InstanceRun {
  double run_s = 0.0;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  Outcome out;
  std::vector<std::string> errors;
};

// First line: the numbers; then one line per failed check.
std::string encode(const InstanceRun& r) {
  std::vector<double> v = {
      r.run_s, r.setup_s, r.rss_mb,
      static_cast<double>(r.out.wanted), static_cast<double>(r.out.delivered),
      static_cast<double>(r.out.air_bytes), static_cast<double>(r.out.events),
      static_cast<double>(r.out.pdd_rounds), r.out.all_finished ? 1.0 : 0.0,
      static_cast<double>(r.out.latency_s.size())};
  v.insert(v.end(), r.out.latency_s.begin(), r.out.latency_s.end());
  v.push_back(static_cast<double>(r.out.arrival_p50_s.size()));
  v.insert(v.end(), r.out.arrival_p50_s.begin(), r.out.arrival_p50_s.end());
  std::string text;
  for (double x : v) text += json_number(x) + " ";
  text += "\n";
  for (const std::string& e : r.errors) text += e + "\n";
  return text;
}

std::optional<InstanceRun> decode(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  std::istringstream nums(line);
  InstanceRun r;
  double wanted = 0, delivered = 0, air = 0, events = 0, rounds = 0;
  double finished = 0, n = 0;
  nums >> r.run_s >> r.setup_s >> r.rss_mb >> wanted >> delivered >> air >>
      events >> rounds >> finished >> n;
  const auto read_list = [&nums](double count, std::vector<double>& out) {
    for (double i = 0; i < count && nums; ++i) {
      double x = 0;
      nums >> x;
      out.push_back(x);
    }
  };
  read_list(n, r.out.latency_s);
  nums >> n;
  read_list(n, r.out.arrival_p50_s);
  if (!nums) return std::nullopt;
  r.out.wanted = static_cast<std::uint64_t>(wanted);
  r.out.delivered = static_cast<std::uint64_t>(delivered);
  r.out.air_bytes = static_cast<std::uint64_t>(air);
  r.out.events = static_cast<std::uint64_t>(events);
  r.out.pdd_rounds = static_cast<std::uint64_t>(rounds);
  r.out.all_finished = finished != 0.0;
  while (std::getline(in, line)) r.errors.push_back(line);
  return r;
}

// Runs `work` in a forked child and returns the text it produced, or
// nullopt when the child failed. Waits for the child to end.
std::optional<std::string> in_child(const std::function<std::string()>& work) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::string text = work();
      std::size_t done = 0;
      while (done < text.size()) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      if (done == text.size()) code = 0;
    } catch (...) {
      // Reported to the parent through the exit code.
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return text;
}

// -- Passes ------------------------------------------------------------------

struct Runner {
  Workload w;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::vector<std::string> errors;
  std::vector<Outcome> first;  // pass 0's outcome per replica
  bool harness_checked = false;
  std::vector<double> setup_samples;  // every untraced instance's set-up

  // Set-up time of one pass: replicas × the median instance set-up, which
  // keeps one slow set-up (first touch of fresh memory) out of the figure.
  [[nodiscard]] double setup_s() const {
    return static_cast<double>(w.replicas) * median(setup_samples);
  }

  // Set-up, run and collect one untraced instance.
  struct Untraced {
    std::unique_ptr<Instance> inst;
    Outcome out;
    double run_s = 0.0;
  };
  Untraced run_untraced(int replica) {
    Untraced u;
    u.inst = set_up(w, replica_seed(seed, replica));
    start_sessions(w, *u.inst);
    const Clock::time_point t0 = Clock::now();
    u.inst->sc().run_until(w.horizon);
    u.run_s = seconds_since(t0);
    u.out = collect(w, *u.inst, errors);
    return u;
  }

  // One untraced instance in a child process, so that its peak RSS is its
  // own and its heap starts fresh, as in a user's single run. Replica 0 of
  // the first pass is also replayed through the library harness, after its
  // instance is freed and its peak RSS read.
  InstanceRun run_in_child(int replica) {
    const bool check = !harness_checked;
    harness_checked = true;
    const std::optional<std::string> text = in_child([&] {
      errors.clear();
      InstanceRun r;
      Untraced u = run_untraced(replica);
      r.run_s = u.run_s;
      r.setup_s = u.inst->grid_s + u.inst->publish_s;
      r.out = std::move(u.out);
      u.inst.reset();
      r.rss_mb = obs::peak_rss_mb();
      if (check) {
        check_against_harness(w, replica_seed(seed, replica), r.out, errors);
      }
      r.errors = errors;
      return encode(r);
    });
    std::optional<InstanceRun> r;
    if (text) r = decode(*text);
    if (!r) {
      errors.push_back("instance of replica " + std::to_string(replica) +
                       " failed in its child process");
      return InstanceRun{};
    }
    errors.insert(errors.end(), r->errors.begin(), r->errors.end());
    setup_samples.push_back(r->setup_s);
    expect_repeat(replica, r->out, "untraced");
    return *r;
  }

  void expect_repeat(int replica, const Outcome& out, const char* what) {
    const auto r = static_cast<std::size_t>(replica);
    if (first.size() <= r) {
      first.push_back(out);
    } else if (!(first[r] == out)) {
      errors.push_back(std::string(what) + " run of replica " +
                       std::to_string(replica) +
                       " differs from the first run of the same seed");
    }
  }

  // Replica 0 of the first pass is replayed through the library harness,
  // after its own instance is freed (one scenario alive at a time).
  void check_harness_once(const Outcome& out) {
    if (harness_checked) return;
    harness_checked = true;
    check_against_harness(w, replica_seed(seed, 0), out, errors);
  }

  Metrics end_to_end_pass() {
    double run_s = 0.0, rss_mb = 0.0;
    std::vector<Outcome> outs;
    for (int r = 0; r < w.replicas; ++r) {
      InstanceRun run = run_in_child(r);
      run_s += run.run_s;
      rss_mb += run.rss_mb;
      outs.push_back(std::move(run.out));
    }
    Metrics m;
    put(m, "run_s", run_s, "s");
    put(m, "setup_s", setup_s(), "s");
    put(m, "peak_rss_mb", rss_mb / static_cast<double>(w.replicas), "MB");
    put_simulated(m, outs);
    return m;
  }

  // One traced run of replica 0 with the profiler, a byte-counting TX
  // observer and the metrics registry attached; fills `l`.
  Outcome run_traced(Layers& l, double& run_s) {
    obs::Profiler profiler;
    std::unique_ptr<Instance> inst = set_up(w, replica_seed(seed, 0));
    wl::Scenario& sc = inst->sc();
    obs::MetricsRegistry registry;
    sc.register_metrics(registry);
    sc.set_profiler(&profiler);
    count_air_bytes(sc, l);
    start_sessions(w, *inst);
    const Clock::time_point t0 = Clock::now();
    sc.run_until(w.horizon);
    run_s = seconds_since(t0);
    sc.set_profiler(nullptr);
    sc.medium().set_tx_observer(nullptr);
    const Outcome out = collect(w, *inst, errors);
    expect_repeat(0, out, "traced");

    const std::vector<obs::Profiler::Entry> entries = profiler.snapshot();
    const std::map<std::string, double> self = self_seconds(entries);
    const auto self_of = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    l.scheduler_s = self_of("scheduler");
    l.radio_s = self_of("radio") + self_of("classify-shards");
    l.transport_s = self_of("transport");
    l.pdd_s = self_of("pdd");
    l.pdr_s = self_of("pdr");
    l.sim_self_s = self_of("sim");
    l.sim_scope_s = scope_seconds(entries, "sim");

    const sim::MediumStats& ms = sc.medium().stats();
    l.frames = static_cast<double>(ms.frames_transmitted);
    l.deliveries = static_cast<double>(ms.deliveries);
    l.losses = static_cast<double>(ms.losses_collision + ms.losses_noise +
                                   ms.losses_half_duplex + ms.losses_fault +
                                   ms.losses_burst);
    l.collisions = static_cast<double>(ms.losses_collision);
    l.os_drops = static_cast<double>(ms.os_buffer_drops);

    const obs::MetricsSnapshot snap = registry.snapshot();
    l.messages = counter_sum(snap, "messages_sent");
    l.fragments = counter_sum(snap, "fragments_sent");
    l.retransmissions = counter_sum(snap, "retransmissions");
    l.gave_up = counter_sum(snap, "deliveries_gave_up");
    l.overflow_drops = counter_sum(snap, "frames_dropped_overflow");

    if (inst->recorder) {
      l.telemetry_rows = static_cast<double>(inst->recorder->row_count());
    }
    return out;
  }

  // One run of replica 0 that captures every sent message, then the timed
  // replays on its still-live end state; fills `l`.
  Outcome run_captured(Layers& l) {
    Capture cap;
    std::unique_ptr<Instance> inst = set_up(w, replica_seed(seed, 0));
    capture_messages(inst->sc(), cap);
    start_sessions(w, *inst);
    inst->sc().run_until(w.horizon);
    inst->sc().medium().set_tx_observer(nullptr);
    const Outcome out = collect(w, *inst, errors);
    replay_codec(cap, pds_config().wire, l);
    replay_store(*inst, l);
    replay_telemetry(*inst, tiny ? 5 : 10, l);
    return out;
  }

  // Per-layer numbers come from replica 0 (--seed itself): one untraced
  // run for the reference outcome and run_s, one traced run, and one
  // capturing run for the replays. All three must agree.
  Metrics per_layer_pass() {
    Layers l;
    Untraced u = run_untraced(0);
    expect_repeat(0, u.out, "untraced");
    const double untraced_s = u.run_s;
    const double grid_s = u.inst->grid_s;
    const double publish_s = u.inst->publish_s;
    u.inst.reset();
    double traced_s = 0.0;
    const Outcome out = run_traced(l, traced_s);
    if (!(out == u.out)) {
      errors.push_back("traced run differs from the untraced run");
    }
    if (!(run_captured(l) == u.out)) {
      errors.push_back("capturing run differs from the untraced run");
    }
    check_harness_once(out);
    const auto events = static_cast<double>(out.events);
    const auto rounds = static_cast<double>(out.pdd_rounds);

    Metrics m;
    put(m, "sim.events", events, "count");
    put(m, "sim.events_per_s", ratio(events, untraced_s), "1/s");
    put(m, "sim.scheduler.self_s", l.scheduler_s, "s");
    put(m, "sim.radio.self_s", l.radio_s, "s");
    put(m, "sim.radio.frames", l.frames, "count");
    put(m, "sim.radio.delivery_ratio",
        ratio(l.deliveries, l.deliveries + l.losses), "ratio");
    put(m, "sim.radio.losses_collision", l.collisions, "count");
    put(m, "sim.radio.os_drops", l.os_drops, "count");
    put(m, "sim.radio.air_bytes.query", l.air_query, "B");
    put(m, "sim.radio.air_bytes.response", l.air_response, "B");
    put(m, "sim.radio.air_bytes.ack", l.air_ack, "B");
    put(m, "sim.radio.air_bytes.chunk", l.air_chunk, "B");
    put(m, "sim.radio.air_bytes.other", l.air_other, "B");
    put(m, "net.transport.self_s", l.transport_s, "s");
    put(m, "net.transport.messages", l.messages, "count");
    put(m, "net.transport.fragments", l.fragments, "count");
    put(m, "net.transport.retx_ratio",
        ratio(l.retransmissions, l.messages + l.fragments), "ratio");
    put(m, "net.transport.gave_up", l.gave_up, "count");
    put(m, "net.transport.overflow_drops", l.overflow_drops, "count");
    put(m, "net.codec.size_calls", l.size_calls, "count");
    put(m, "net.codec.size_ns", ratio(l.size_s * 1e9, l.size_calls), "ns");
    put(m, "net.codec.size_mismatch", l.size_mismatch, "count");
    put(m, "core.pdd.self_s", l.pdd_s, "s");
    put(m, "core.pdd.rounds", rounds, "count");
    put(m, "core.pdr.self_s", l.pdr_s, "s");
    put(m, "core.store.records", l.store_records, "count");
    put(m, "core.store.match_ns_per_record",
        ratio(l.store_match_s * 1e9, l.store_matched), "ns");
    put(m, "core.lqt.entries", l.lqt_entries, "count");
    put(m, "core.lqt.bloom_fill_max", l.bloom_fill_max, "ratio");
    put(m, "obs.telemetry.rows", l.telemetry_rows, "count");
    put(m, "obs.telemetry.row_us",
        ratio(l.telemetry_replay_s * 1e6, l.telemetry_replay_rows), "us");
    put(m, "workload.setup.grid_s", grid_s, "s");
    put(m, "workload.setup.publish_s", publish_s, "s");
    put(m, "profile.unattributed_share", ratio(l.sim_self_s, l.sim_scope_s),
        "ratio");
    put(m, "profile.overhead", ratio(traced_s, untraced_s), "ratio");
    return m;
  }
};

// Per-metric median over passes (every pass has the same names in order).
Metrics median_over(const std::vector<Metrics>& passes) {
  Metrics out = passes.front();
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::vector<double> v;
    for (const Metrics& p : passes) v.push_back(p[k].second.value);
    out[k].second.value = median(std::move(v));
  }
  return out;
}

int usage() {
  std::fputs(
      "usage: pds_bench --workload {pdd_dense|pdr_sequential|pdd_recorded}\n"
      "                 --seed N --seconds S --trace {0|1} [--tiny]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (a.starts_with("--") && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  if (!args.contains("workload") || !args.contains("seed") ||
      !args.contains("seconds") || !args.contains("trace")) {
    return usage();
  }
  const std::optional<Workload> w = make_workload(args["workload"], tiny);
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(args["seed"].c_str(), &end, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const std::string trace = args["trace"];
  if (!w || seed == 0 || *end != '\0' || !(seconds > 0.0) ||
      (trace != "0" && trace != "1")) {
    return usage();
  }

  Runner runner;
  runner.w = *w;
  runner.seed = seed;
  runner.tiny = tiny;
  const Clock::time_point t0 = Clock::now();
  // Another pass starts only while it is expected to end within --seconds;
  // a pass longer than that still runs once.
  std::vector<Metrics> passes;
  double pass_s = 0.0;
  do {
    const Clock::time_point p0 = Clock::now();
    passes.push_back(trace == "1" ? runner.per_layer_pass()
                                  : runner.end_to_end_pass());
    pass_s = seconds_since(p0);
  } while (seconds_since(t0) + pass_s <= seconds);
  Metrics metrics = median_over(passes);
  for (auto& [name, metric] : metrics) {
    if (name == "setup_s") metric.value = runner.setup_s();
  }

  std::uint64_t attempted = 0, delivered = 0;
  for (const Outcome& o : runner.first) {
    attempted += o.wanted;
    delivered += o.delivered;
  }
  const bool correct = runner.errors.empty();
  for (const std::string& e : runner.errors) {
    std::fprintf(stderr, "pds_bench: CHECK FAILED: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "pds_bench: %s seed=%llu replicas=%d passes=%zu wall=%.1fs\n",
               w->name.c_str(), seed, w->replicas, passes.size(),
               seconds_since(t0));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(attempted - delivered);
  json += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) json += ", ";
    json += "\"" + metrics[k].first + "\": {\"value\": " +
            json_number(metrics[k].second.value) + ", \"unit\": \"" +
            metrics[k].second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

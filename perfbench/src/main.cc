// k2_perfbench: the repository's end-to-end benchmark. A run mines the
// workload's dataset with the three batch drivers and checks every answer:
//
//   * the three drivers return one convoy set, whose count and
//     order-independent hash match the fingerprint stored per workload;
//   * 1-thread runs repeat their deterministic counters exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics of a separate traced run, which also serves a tick stream through
// an in-process k2_server under an open-loop query mix and checks that a
// fixed query set answered over the wire after the final kPublish is
// byte-identical to ConvoyQueryEngine over an in-process replay of the same
// stream. README.md maps each per-layer metric to the end-to-end metric and
// workload it should move. The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/convoy.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/k2hop.h"
#include "core/online.h"
#include "core/partition.h"
#include "gen/tdrive.h"
#include "gen/trucks.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/catalog.h"
#include "serve/net/server.h"
#include "serve/query.h"
#include "storage/memory_store.h"
#include "storage/store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using k2::Convoy;
using k2::Dataset;
using k2::MiningParams;
using k2::Status;
using k2::Timestamp;

// ---------------------------------------------------------------------------
// Workloads

enum class DataShape { kTrucks, kTDrive };

struct Workload {
  const char* name;
  DataShape shape;
  double scale;           ///< bench-harness scale (objects x scale)
  k2::StoreKind store;
  MiningParams params;
  /// Stored fingerprint of the mined convoy set (count, hash over object
  /// ids and lifespans relative to the first tick).
  size_t expect_convoys;
  uint64_t expect_hash;
};

// The traced run of both workloads serves the same stream (Trucks x1 at
// kServeParams, kTickRate ticks/s). Serving never touches the workload's
// store or the batch drivers, so a storage or batch-driver change must leave
// the serve metrics unchanged on both workloads.
//
// The generator seeds are the harness defaults on every run, because
// Trucks' pruning ranges from 3.6% to 24% across generator seeds and would
// change what the workload measures. --seed shifts the timeline (mining is
// invariant under it, so one fingerprint serves every seed) and drives the
// query mix.
const Workload kWorkloads[] = {
    {"mine-trucks-lsm", DataShape::kTrucks, 4.0, k2::StoreKind::kLsm,
     MiningParams{3, 200, 30.0}, 339, 14506822564602905821ULL},
    {"mine-tdrive-mem", DataShape::kTDrive, 4.0, k2::StoreKind::kMemory,
     MiningParams{3, 200, 60.0}, 206, 6100023937508419114ULL},
};

// Serving constants. The query-rate ladder of the traced run doubles every
// two steps (see MaxPassingQps).
const MiningParams kServeParams{3, 30, 30.0};
constexpr double kTickRate = 200.0;
// One worker: SO_REUSEPORT places connections on workers by a hash of the
// client port, so with two workers a run's query p99 depended on whether a
// query connection landed beside the feeder (0.3 ms vs 2 ms measured).
constexpr int kServerWorkers = 1;
constexpr double kServeShare = 0.5;  ///< of a traced run's --seconds
constexpr size_t kPublishEvery = 64;
constexpr double kBaseQps = 2000.0;
constexpr double kLatencyLimitMs = 10.0;
constexpr int kLadderSteps = 8;
constexpr size_t kVerifyQueries = 64;
constexpr size_t kMixSize = 1024;
constexpr int kSetupReps = 9;

Dataset GenerateData(DataShape shape, double scale) {
  if (shape == DataShape::kTrucks) {
    k2::TrucksParams p;
    p.num_trajectories = std::max(20, static_cast<int>(276 * scale));
    p.ticks = 1320;
    p.grid.side_speed = 18.0;
    p.grid.main_speed = 30.0;
    p.grid.highway_speed = 45.0;
    return k2::GenerateTrucks(p);
  }
  k2::TDriveParams p;
  p.scale = scale / 24.0;
  p.ticks = 1900;
  p.grid.side_speed = 150.0;
  p.grid.main_speed = 300.0;
  p.grid.highway_speed = 550.0;
  return k2::GenerateTDrive(p);
}

Dataset ShiftTicks(const Dataset& in, Timestamp delta) {
  k2::DatasetBuilder rows;
  rows.Reserve(in.num_points());
  for (const k2::PointRecord& r : in.records()) {
    rows.Add(r.t + delta, r.oid, r.x, r.y);
  }
  return rows.Build();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-independent hash of a convoy set with lifespans taken relative to
/// `origin`, so a shifted timeline hashes the same.
uint64_t ConvoyHash(const std::vector<Convoy>& convoys, Timestamp origin) {
  uint64_t sum = 0;
  for (const Convoy& c : convoys) {
    uint64_t h = Mix64(static_cast<uint64_t>(c.start - origin));
    h = Mix64(h ^ static_cast<uint64_t>(c.end - origin));
    for (k2::ObjectId oid : c.objects) h = Mix64(h ^ oid);
    sum += h;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// How many processors' worth of work the machine delivers right now: nproc
/// threads run a fixed integer loop together, timed against one thread
/// running it alone (the fastest of three tries each). Recorded in the run
/// metadata so that a shift in host capacity can be told apart from a
/// regression; on a shared 4-vCPU VM it was measured anywhere between 1 and
/// 4 within the same hour.
double MeasureParallelism() {
  std::atomic<uint64_t> sink{0};
  auto loop = [&sink] {
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink += x;
  };
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  double one = 1e18;
  double all = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t start = NowNs();
    loop();
    one = std::min(one, static_cast<double>(NowNs() - start));
    start = NowNs();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) threads.emplace_back(loop);
    for (std::thread& t : threads) t.join();
    all = std::min(all, static_cast<double>(NowNs() - start));
  }
  return n * one / all;
}

double PeakRssMb() {
  struct rusage ru = {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Result reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< 0 = a count or a single measurement
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  /// Counts one checked operation; records a failure when `ok` is false.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Mining

struct MineRun {
  std::vector<Convoy> convoys;
  double seconds = 0.0;
  k2::K2HopStats stats;                   // batch drivers
  k2::PartitionedK2HopStats pstats;       // sharded driver
  LayerCounts layers;                     // traced runs only
};

enum class Driver { kBatchT1, kBatchT4, kShardedT4 };

const char* DriverName(Driver d) {
  switch (d) {
    case Driver::kBatchT1:
      return "mine_t1";
    case Driver::kBatchT4:
      return "mine_t4";
    case Driver::kShardedT4:
      return "mine_sharded_t4";
  }
  return "?";
}

MineRun RunDriver(Driver d, k2::Store* store, const MiningParams& params) {
  MineRun run;
  LayerCounters::Get().Reset();
  const int64_t start = NowNs();
  k2::Result<std::vector<Convoy>> result = std::vector<Convoy>{};
  if (d == Driver::kShardedT4) {
    k2::PartitionedK2HopOptions options;
    options.num_shards = 4;
    options.num_threads = 4;
    result = k2::MinePartitionedK2Hop(store, params, options, &run.pstats);
  } else {
    k2::K2HopOptions options;
    options.num_threads = d == Driver::kBatchT1 ? 1 : 4;
    result = k2::MineK2Hop(store, params, options, &run.stats);
  }
  run.seconds = static_cast<double>(NowNs() - start) / 1e9;
  run.layers = LayerCounters::Get().Fold();
  if (!result.ok()) {
    std::cerr << DriverName(d) << ": " << result.status().ToString() << "\n";
    return run;
  }
  run.convoys = result.MoveValue();
  return run;
}

/// The counters of a 1-thread batch run that repeat exactly run to run.
bool SameDeterministicCounters(const k2::K2HopStats& a,
                               const k2::K2HopStats& b) {
  const k2::IoStats& x = a.io;
  const k2::IoStats& y = b.io;
  return x.snapshot_scans == y.snapshot_scans &&
         x.scanned_points == y.scanned_points &&
         x.point_queries == y.point_queries && x.point_hits == y.point_hits &&
         x.bytes_read == y.bytes_read && x.seeks == y.seeks &&
         x.pages_read == y.pages_read && x.pages_cached == y.pages_cached &&
         x.bloom_negative == y.bloom_negative &&
         x.sstables_touched == y.sstables_touched &&
         a.candidate_clusters == b.candidate_clusters &&
         a.spanning_convoys == b.spanning_convoys &&
         a.merged_convoys == b.merged_convoys &&
         a.prevalidation_convoys == b.prevalidation_convoys &&
         a.validation.candidates_in == b.validation.candidates_in &&
         a.validation.fc_accepted == b.validation.fc_accepted &&
         a.validation.split_rounds == b.validation.split_rounds &&
         a.validation.reclusterings == b.validation.reclusterings;
}

// ---------------------------------------------------------------------------
// Serving

/// The served stream: every tick of the dataset with its points, in order.
struct TickStream {
  explicit TickStream(const Dataset& data) : ticks(data.timestamps()) {
    for (Timestamp t : ticks) points.push_back(k2::SnapshotPoints(data, t));
  }
  std::vector<Timestamp> ticks;
  std::vector<std::vector<k2::SnapshotPoint>> points;
};

std::vector<WireQuery> MakeQueryMix(const Dataset& data, Timestamp first,
                                    Timestamp last, uint64_t seed,
                                    size_t n) {
  std::vector<k2::ObjectId> oids;
  k2::Rect box{data.records()[0].x, data.records()[0].y, data.records()[0].x,
               data.records()[0].y};
  for (const k2::PointRecord& r : data.records()) {
    box.min_x = std::min(box.min_x, r.x);
    box.max_x = std::max(box.max_x, r.x);
    box.min_y = std::min(box.min_y, r.y);
    box.max_y = std::max(box.max_y, r.y);
    oids.push_back(r.oid);
  }
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());

  k2::Rng rng(seed);
  const auto span = static_cast<uint64_t>(last - first + 1);
  std::vector<WireQuery> mix;
  mix.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WireQuery q;
    const k2::ObjectId oid = oids[rng.NextInt(oids.size())];
    const auto a = static_cast<Timestamp>(first + rng.NextInt(span));
    const k2::TimeRange window{
        a, static_cast<Timestamp>(a + rng.NextInt(span / 8 + 1))};
    const double x0 = rng.Uniform(box.min_x, box.max_x);
    const double y0 = rng.Uniform(box.min_y, box.max_y);
    const k2::Rect rect{x0, y0, x0 + (box.max_x - box.min_x) / 8,
                        y0 + (box.max_y - box.min_y) / 8};
    switch (i % 5) {
      case 0:
        q.query.object = oid;
        break;
      case 1:
        q.query.time_window = window;
        break;
      case 2:
        q.query.region = rect;
        break;
      case 3:
        q.query.object = oid;
        q.query.time_window = window;
        if (rng.Bernoulli(0.5)) q.query.region = rect;
        break;
      default:
        q.topk = true;
        q.rank = rng.Bernoulli(0.5) ? k2::ConvoyRank::kLongest
                                    : k2::ConvoyRank::kLargest;
        q.k = 10;
        if (rng.Bernoulli(0.5)) q.query.time_window = window;
        break;
    }
    mix.push_back(q);
  }
  return mix;
}

struct ServeOutcome {
  std::vector<LoadResult> passes;  ///< base-rate passes
  LoadResult ladder;               ///< traced run: the query-rate ladder
  std::vector<double> ladder_qps;  ///< query rate of each ladder step
  // The in-process replay of the stream (the reference answers).
  k2::OnlineK2HopStats online;
  uint64_t catalog_epochs = 0;
  uint64_t catalog_convoys = 0;
  std::vector<double> find_us;     ///< the mix through ConvoyQueryEngine
};

/// The highest ladder step reached with every step up to it passing: query
/// p99 and generator lateness p99 within kLatencyLimitMs, no failed
/// request, and an unanswered backlog that did not grow across the step.
double MaxPassingQps(const ServeOutcome& serve) {
  const std::vector<PhaseResult>& phases = serve.ladder.phases;
  double max_qps = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& ph = phases[p];
    const double qps = serve.ladder_qps[p];
    const bool growing = ph.backlog_end > 2 * ph.backlog_mid + 8;
    const double p99 = Percentile(ph.query_ms, 99);
    const bool pass = ph.errors == 0 && !growing && p99 <= kLatencyLimitMs &&
                      Percentile(ph.late_ms, 99) <= kLatencyLimitMs;
    std::cerr << "ladder qps=" << qps << " p99_ms=" << p99
              << " n=" << ph.query_ms.size() << " backlog "
              << ph.backlog_mid << "->" << ph.backlog_end
              << (pass ? " pass\n" : " fail\n");
    if (!pass) break;
    max_qps = qps;
  }
  return max_qps;
}

/// Query connections of the load generator: its one thread plus the feeder
/// and query connections stay within nproc (two query connections on four
/// or more processors).
unsigned QueryConnections() {
  return std::clamp(std::thread::hardware_concurrency(), 3u, 4u) - 2;
}

k2::Result<std::unique_ptr<k2::net::K2Server>> StartServer() {
  k2::net::K2ServerOptions options;
  options.port = 0;
  options.num_workers = kServerWorkers;
  options.params = kServeParams;
  options.publish_every = kPublishEvery;
  return k2::net::K2Server::Start(options);
}

/// Streams the whole dataset once through a fresh server under the query
/// mix, then checks the final catalog over the wire against `expected`.
Status ServePass(const TickStream& stream, const std::vector<WireQuery>& mix,
                 const std::vector<LoadPhase>& phases,
                 const std::vector<std::string>& expected,
                 const k2::net::ServerStats& expected_stats, Report* report,
                 LoadResult* load) {
  auto server = StartServer();
  if (!server.ok()) return server.status();
  const uint16_t port = server.value()->port();
  const unsigned num_query_conns = QueryConnections();
  auto feeder = WireConn::Connect(port);
  if (!feeder.ok()) return feeder.status();
  std::vector<std::unique_ptr<WireConn>> qconns;
  std::vector<WireConn*> qptrs;
  for (unsigned i = 0; i < num_query_conns; ++i) {
    auto c = WireConn::Connect(port);
    if (!c.ok()) return c.status();
    qconns.push_back(c.MoveValue());
    qptrs.push_back(qconns.back().get());
  }

  LoadPlan plan;
  plan.tick_rate = kTickRate;
  plan.num_ticks = stream.ticks.size();
  plan.tick_body = [&](size_t i) {
    return k2::net::EncodeIngest(stream.ticks[i], stream.points[i]);
  };
  plan.query = [&](uint64_t i) -> const WireQuery& {
    return mix[i % kMixSize];
  };
  plan.phases = phases;
  const Status ran = RunOpenLoop(plan, feeder.value().get(), qptrs, load);
  report->Check(ran.ok(), "open-loop load: " + ran.ToString());
  if (!ran.ok()) return ran;
  report->attempted += load->ticks_sent + load->queries_sent;
  const uint64_t wire_errors =
      load->ingest_errors + load->query_errors + load->topk_errors;
  report->failed += wire_errors;
  if (wire_errors > 0) {
    report->errors.push_back(std::to_string(wire_errors) + " kError replies");
  }

  // Final publish, then the verification set over the wire.
  auto published =
      feeder.value()->RoundTrip(k2::net::MessageType::kPublish, {});
  report->Check(published.ok() && published.value().type ==
                                      k2::net::MessageType::kPublishOk,
                "final kPublish");
  auto stats = feeder.value()->RoundTrip(k2::net::MessageType::kStats, {});
  k2::net::ServerStats got;
  if (stats.ok() && stats.value().type == k2::net::MessageType::kStatsOk) {
    auto parsed = k2::net::ParseServerStats(stats.value().body);
    if (parsed.ok()) got = parsed.value();
  }
  report->Check(got.epoch == expected_stats.epoch &&
                    got.catalog_convoys == expected_stats.catalog_convoys &&
                    got.ticks_ingested == expected_stats.ticks_ingested,
                "server stats differ from the in-process replay");
  for (size_t i = 0; i < expected.size(); ++i) {
    const WireQuery& q = mix[kMixSize + i];
    auto reply = qptrs[0]->RoundTrip(q.type(), q.EncodeBody());
    report->Check(reply.ok() &&
                      reply.value().type == k2::net::MessageType::kConvoys &&
                      reply.value().body == expected[i],
                  "wire answer " + std::to_string(i) +
                      " differs from in-process");
  }
  qconns.clear();
  feeder.value().reset();
  server.value()->RequestShutdown();
  server.value()->Wait();
  const Status serving = server.value()->serving_status();
  report->Check(serving.ok(), "server status: " + serving.ToString());
  return Status::OK();
}

Status RunServe(const Dataset& data, uint64_t seed, double serve_seconds,
                Report* report, ServeOutcome* out) {
  const TickStream stream(data);
  const std::vector<WireQuery> mix =
      MakeQueryMix(data, stream.ticks.front(), stream.ticks.back(), seed,
                   kMixSize + kVerifyQueries);

  // Reference: an in-process replay of the stream, fed the same way the
  // server feeds its catalog.
  k2::MemoryStore store;
  k2::ConvoyCatalog catalog;
  k2::OnlineK2HopOptions mining;
  mining.on_closed = catalog.OnClosedHook(&store, kPublishEvery);
  k2::OnlineK2HopMiner miner(&store, kServeParams, mining);
  catalog.Publish();
  for (size_t i = 0; i < stream.ticks.size(); ++i) {
    const Status s = miner.AppendTick(stream.ticks[i], stream.points[i]);
    if (!s.ok()) return s;
  }
  const auto snap = catalog.Publish();
  out->online = miner.stats();
  out->catalog_epochs = snap->epoch();
  out->catalog_convoys = snap->size();
  report->Check(snap->size() > 0, "replayed catalog is empty");
  k2::net::ServerStats expected_stats;
  expected_stats.epoch = snap->epoch();
  expected_stats.catalog_convoys = snap->size();
  expected_stats.ticks_ingested = stream.ticks.size();
  const k2::ConvoyQueryEngine engine(&catalog);
  auto answer = [&](const WireQuery& q) {
    return q.topk ? engine.TopK(q.query, q.rank, q.k) : engine.Find(q.query);
  };
  std::vector<std::string> expected;
  for (size_t i = 0; i < kVerifyQueries; ++i) {
    expected.push_back(k2::net::EncodeConvoys(answer(mix[kMixSize + i])));
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < kMixSize; ++i) {
      const int64_t start = NowNs();
      const std::vector<Convoy> r = answer(mix[i]);
      out->find_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
  }

  // Each pass streams the dataset once at kTickRate through a fresh server:
  // base passes at kBaseQps fill the share but the last pass's worth, and
  // the last pass climbs the query-rate ladder instead.
  const double pass_seconds =
      static_cast<double>(stream.ticks.size()) / kTickRate;
  const std::vector<LoadPhase> base = {LoadPhase{pass_seconds, kBaseQps}};
  const int passes =
      std::max(1, static_cast<int>(serve_seconds / pass_seconds) - 1);
  for (int p = 0; p < passes; ++p) {
    out->passes.emplace_back();
    K2_RETURN_NOT_OK(ServePass(stream, mix, base, expected, expected_stats,
                               report, &out->passes.back()));
  }
  std::vector<LoadPhase> ladder;
  for (int i = 0; i < kLadderSteps; ++i) {
    const double qps = kBaseQps * std::pow(2.0, 0.5 * i);
    ladder.push_back(LoadPhase{pass_seconds / kLadderSteps, qps});
    out->ladder_qps.push_back(qps);
  }
  return ServePass(stream, mix, ladder, expected, expected_stats, report,
                   &out->ladder);
}

// ---------------------------------------------------------------------------
// Main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::unique_ptr<k2::Store> LoadStore(const Workload& w, const Dataset& data,
                                     const std::string& dir,
                                     double* seconds) {
  std::filesystem::remove_all(dir);
  const int64_t start = NowNs();
  auto created = k2::CreateStore(w.store, dir);
  if (!created.ok()) return nullptr;
  std::unique_ptr<k2::Store> store = created.MoveValue();
  if (!store->BulkLoad(data).ok()) return nullptr;
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  return store;
}

struct MineOutcome {
  std::vector<double> loads;  ///< store set-up times, s
  MineRun ref;                ///< warm-up 1-thread run: the reference set
  std::map<std::string, std::vector<double>> times;  ///< per driver, s
  std::vector<MineRun> t1_runs;         ///< untraced 1-thread runs
  std::vector<MineRun> traced_t1_runs;  ///< traced 1-thread runs
  MineRun traced_p4;                    ///< traced sharded run
};

Status RunMine(const Workload& w, const Dataset& data, const Args& args,
               double budget, Report* report, SpanLog* spans, int root,
               MineOutcome* out) {
  // Set-up: bulk-load the store kSetupReps times; the last one is mined.
  int span = spans->Begin("setup", root);
  const std::string dir = args.data_dir + "/" + w.name;
  std::unique_ptr<k2::Store> store;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    double s = 0.0;
    store = LoadStore(w, data, dir, &s);
    if (store == nullptr) return Status::IOError("store set-up failed");
    out->loads.push_back(s);
  }
  spans->End(span);

  // Warm-up: caches fill and lazy set-up finishes. The 1-thread run goes
  // last and is the reference: the fingerprint check runs on it, and every
  // other run must return the same set.
  span = spans->Begin("warmup", root);
  const MineRun warm_t4 = RunDriver(Driver::kBatchT4, store.get(), w.params);
  const MineRun warm_p4 =
      RunDriver(Driver::kShardedT4, store.get(), w.params);
  out->ref = RunDriver(Driver::kBatchT1, store.get(), w.params);
  spans->End(span);
  const MineRun& ref = out->ref;
  const uint64_t hash = ConvoyHash(ref.convoys, data.time_range().start);
  report->Check(ref.convoys.size() == w.expect_convoys &&
                    hash == w.expect_hash,
                "convoy fingerprint: got " +
                    std::to_string(ref.convoys.size()) + " convoys, hash " +
                    std::to_string(hash));
  auto check_run = [&](const MineRun& r, const std::string& what) {
    report->Check(r.convoys == ref.convoys,
                  what + " convoys differ from the reference");
  };
  check_run(warm_t4, "mine_t4");
  check_run(warm_p4, "mine_sharded_t4");

  auto timed = [&](Driver d, k2::Store* s, const MiningParams& params,
                   const std::string& name) {
    const int id = spans->Begin(name, root);
    MineRun r = RunDriver(d, s, params);
    spans->End(id);
    check_run(r, name);
    out->times[name].push_back(r.seconds);
    return r;
  };
  // Rounds interleave the drivers so that machine drift within the run
  // reaches every median alike. The LSM block cache is small enough that a
  // 1-thread run repeats its counters after any predecessor.
  if (!args.trace) {
    const int rounds = std::clamp(
        static_cast<int>(budget / (ref.seconds + warm_t4.seconds)), 3, 200);
    for (int i = 0; i < rounds; ++i) {
      timed(Driver::kBatchT4, store.get(), w.params, "mine_t4");
      out->t1_runs.push_back(
          timed(Driver::kBatchT1, store.get(), w.params, "mine_t1"));
    }
  } else {
    // Each round runs the sharded driver, then a 1-thread run and its
    // traced twin, which starts from the cache state the untraced run
    // started from. The store decorator is made per run: it mirrors the
    // inner IoStats only when it forwards a call, so it must not outlive
    // direct use of the inner store.
    TracingClusterer clusterer(k2::DefaultClusterer());
    MiningParams traced_params = w.params;
    traced_params.clusterer = &clusterer;
    auto traced = [&](Driver d, const std::string& name) {
      TracingStore traced_store(store.get());
      return timed(d, &traced_store, traced_params, name);
    };
    const int rounds = std::clamp(
        static_cast<int>(budget / (2.2 * ref.seconds + warm_p4.seconds)), 3,
        100);
    for (int i = 0; i < rounds; ++i) {
      timed(Driver::kShardedT4, store.get(), w.params, "mine_sharded_t4");
      out->t1_runs.push_back(
          timed(Driver::kBatchT1, store.get(), w.params, "mine_t1"));
      out->traced_t1_runs.push_back(traced(Driver::kBatchT1, "mine_t1_traced"));
      report->Check(SameDeterministicCounters(out->t1_runs.back().stats,
                                              out->traced_t1_runs.back().stats),
                    "traced run changed the deterministic counters");
      report->Check(out->traced_t1_runs.back().layers.SameCounts(
                        out->traced_t1_runs.front().layers),
                    "traced layer call counts differ between runs");
    }
    traced(Driver::kBatchT4, "mine_t4_traced");
    out->traced_p4 = traced(Driver::kShardedT4, "mine_sharded_t4_traced");
  }
  for (const MineRun& r : out->t1_runs) {
    report->Check(SameDeterministicCounters(r.stats, ref.stats),
                  "1-thread deterministic counters differ between runs");
  }
  store.reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

/// Percentile `pct` of one sample series of each base-rate pass, median
/// across passes; the sample count is over all passes.
std::pair<double, size_t> PassPercentile(
    const ServeOutcome& serve, std::vector<double> PhaseResult::*samples,
    double pct) {
  std::vector<double> per_pass;
  size_t n = 0;
  for (const LoadResult& pass : serve.passes) {
    const std::vector<double>& v = pass.phases[0].*samples;
    per_pass.push_back(Percentile(v, pct));
    n += v.size();
  }
  return {Median(per_pass), n};
}

void AddEndToEnd(const MineOutcome& mine, Report* report) {
  report->Add("setup_s", Median(mine.loads), "s", mine.loads.size());
  for (const auto& [metric, driver] :
       {std::pair{"mine_s", "mine_t1"}, std::pair{"mine_t4_s", "mine_t4"}}) {
    const std::vector<double>& t = mine.times.at(driver);
    report->Add(metric, Median(t), "s", t.size());
  }
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

double Frac(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void AddLayers(const MineOutcome& mine, const ServeOutcome& serve,
               Report* report) {
  // Counts from the first traced 1-thread run (all runs agree, checked);
  // times are medians over the traced runs.
  const MineRun& t = mine.traced_t1_runs.front();
  const LayerCounts& lc = t.layers;
  const size_t n = mine.traced_t1_runs.size();
  auto traced_ms = [&](uint64_t LayerCounts::*ns, uint64_t LayerCounts::*sub) {
    std::vector<double> v;
    for (const MineRun& r : mine.traced_t1_runs) {
      const double sub_ns = sub == nullptr ? 0.0 : double(r.layers.*sub);
      v.push_back((double(r.layers.*ns) - sub_ns) / 1e6);
    }
    return Median(v);
  };
  // storage
  report->Add("storage.scan.calls", double(lc.scan_calls), "count");
  report->Add("storage.scan.ms", traced_ms(&LayerCounts::scan_ns, nullptr),
              "ms", n);
  report->Add("storage.scan.points", double(lc.scan_points), "count");
  report->Add("storage.get.calls", double(lc.get_calls), "count");
  report->Add("storage.get.ms", traced_ms(&LayerCounts::get_ns, nullptr),
              "ms", n);
  report->Add("storage.get.objects", double(lc.get_objects), "count");
  report->Add("storage.get.points", double(lc.get_points), "count");
  const k2::IoStats& io = t.stats.io;
  report->Add("storage.io.bytes_read", double(io.bytes_read), "B");
  report->Add("storage.io.pages_read", double(io.pages_read), "count");
  report->Add("storage.io.pages_cached", double(io.pages_cached), "count");
  report->Add("storage.io.seeks", double(io.seeks), "count");
  report->Add("storage.io.sstables_touched", double(io.sstables_touched),
              "count");
  report->Add("storage.io.bloom_negative", double(io.bloom_negative),
              "count");
  report->Add("storage.io.bytes_per_point",
              Frac(double(io.bytes_read), double(io.points_read())), "B");
  report->Add("storage.lsm.cache_hit_frac",
              Frac(double(io.pages_cached),
                   double(io.pages_read + io.pages_cached)),
              "frac");
  // cluster
  report->Add("cluster.full.calls", double(lc.full_calls), "count");
  report->Add("cluster.full.ms", traced_ms(&LayerCounts::full_ns, nullptr),
              "ms", n);
  report->Add("cluster.re.calls", double(lc.re_calls), "count");
  report->Add("cluster.re.ms", traced_ms(&LayerCounts::re_ns, nullptr), "ms",
              n);
  report->Add("cluster.re.objects", double(lc.re_objects), "count");
  report->Add("cluster.re.self_ms",
              traced_ms(&LayerCounts::re_ns, &LayerCounts::get_ns), "ms", n);
  report->Add("cluster.re.kept_frac",
              Frac(double(lc.re_kept), double(lc.re_objects)), "frac");
  // core: Fig. 8i phases, timed by the miner itself in the untraced runs.
  const std::pair<const char*, const char*> phases[] = {
      {"benchmark", "benchmark"},       {"candidates", "candidates"},
      {"HWMT", "hwmt"},                 {"merge", "merge"},
      {"extend-right", "extend_right"}, {"extend-left", "extend_left"},
      {"validation", "validation"}};
  for (const auto& [phase, key] : phases) {
    std::vector<double> v;
    for (const MineRun& r : mine.t1_runs) {
      v.push_back(r.stats.phases.Get(phase) * 1e3);
    }
    report->Add(std::string("core.phase.") + key + ".ms", Median(v), "ms",
                v.size());
  }
  const k2::K2HopStats& ks = t.stats;
  report->Add("core.candidate_clusters", double(ks.candidate_clusters),
              "count");
  report->Add("core.spanning_convoys", double(ks.spanning_convoys), "count");
  report->Add("core.merged_convoys", double(ks.merged_convoys), "count");
  report->Add("core.prevalidation_convoys", double(ks.prevalidation_convoys),
              "count");
  report->Add("core.convoys", double(t.convoys.size()), "count");
  report->Add("core.pruning_frac", ks.pruning_ratio(), "frac");
  // baselines: FC validation
  const k2::ValidationStats& vs = ks.validation;
  report->Add("validation.candidates_in", double(vs.candidates_in), "count");
  report->Add("validation.fc_accepted", double(vs.fc_accepted), "count");
  report->Add("validation.split_rounds", double(vs.split_rounds), "count");
  report->Add("validation.reclusterings", double(vs.reclusterings), "count");
  report->Add("validation.fc_accepted_frac",
              Frac(double(vs.fc_accepted), double(vs.candidates_in)), "frac");
  // core: the partitioned driver
  const std::vector<double>& sharded = mine.times.at("mine_sharded_t4");
  report->Add("mine_sharded_t4_s", Median(sharded), "s", sharded.size());
  const k2::PartitionedK2HopStats& ps = mine.traced_p4.pstats;
  report->Add("partition.plan.ms", ps.phases.Get("plan") * 1e3, "ms");
  report->Add("partition.shards.ms", ps.phases.Get("shards") * 1e3, "ms");
  report->Add("partition.stitch.ms", ps.phases.Get("stitch") * 1e3, "ms");
  std::vector<double> shard_ms;
  for (const k2::ShardRunStats& r : ps.shard_runs) {
    shard_ms.push_back(r.seconds * 1e3);
  }
  std::sort(shard_ms.begin(), shard_ms.end());
  report->Add("partition.shard_ms.min",
              shard_ms.empty() ? 0.0 : shard_ms.front(), "ms",
              shard_ms.size());
  report->Add("partition.shard_ms.max",
              shard_ms.empty() ? 0.0 : shard_ms.back(), "ms", shard_ms.size());
  report->Add("partition.seams_crossed", double(ps.seams_crossed), "count");
  report->Add("partition.stitch_replays", double(ps.stitch_replays), "count");
  // core: the online driver, over the in-process replay of the stream
  const std::pair<const char*, const char*> online_phases[] = {
      {"ingest", "ingest"},
      {"benchmark", "benchmark"},
      {"candidates", "candidates"},
      {"HWMT", "hwmt"},
      {"merge", "merge"},
      {"extend-right", "extend_right"},
      {"extend-left", "extend_left"},
      {"validation", "validation"}};
  for (const auto& [phase, key] : online_phases) {
    report->Add(std::string("online.phase.") + key + ".ms",
                serve.online.phases.Get(phase) * 1e3, "ms");
  }
  for (const auto& [key, pct] : {std::pair{"p50", 50.0}, {"p99", 99.0}}) {
    report->Add(std::string("online.append_ms.") + key,
                serve.online.append_percentiles.Percentile(pct) * 1e3, "ms",
                serve.online.ticks_ingested);
  }
  // serve: the query mix through ConvoyQueryEngine, no wire
  report->Add("serve.query.find_us.p50", Percentile(serve.find_us, 50), "us",
              serve.find_us.size());
  report->Add("serve.query.find_us.p99", Percentile(serve.find_us, 99), "us",
              serve.find_us.size());
  report->Add("serve.catalog.epochs", double(serve.catalog_epochs), "count");
  report->Add("serve.catalog.convoys", double(serve.catalog_convoys),
              "count");
  // serve/net
  const auto [late_p99, late_n] =
      PassPercentile(serve, &PhaseResult::late_ms, 99);
  report->Add("loadgen.late_ms.p99", late_p99, "ms", late_n);
  const auto [tick_p99, tick_n] =
      PassPercentile(serve, &PhaseResult::tick_ms, 99);
  report->Add("tick_p99_ms", tick_p99, "ms", tick_n);
  const auto [tick_p50, tick_p50_n] =
      PassPercentile(serve, &PhaseResult::tick_ms, 50);
  report->Add("tick_p50_ms", tick_p50, "ms", tick_p50_n);
  const auto [query_p50, query_p50_n] =
      PassPercentile(serve, &PhaseResult::query_ms, 50);
  report->Add("query_p50_ms", query_p50, "ms", query_p50_n);
  const auto [query_p99, query_n] =
      PassPercentile(serve, &PhaseResult::query_ms, 99);
  report->Add("query_p99_ms", query_p99, "ms", query_n);
  report->Add("serve_max_qps", MaxPassingQps(serve), "1/s");
  LoadResult wire;
  for (const LoadResult* pass : {&serve.passes.front(), &serve.ladder}) {
    wire.ingest_errors += pass->ingest_errors;
    wire.query_errors += pass->query_errors;
    wire.topk_errors += pass->topk_errors;
  }
  report->Add("net.query.errors", double(wire.query_errors), "count");
  report->Add("net.topk.errors", double(wire.topk_errors), "count");
  report->Add("net.ingest.errors", double(wire.ingest_errors), "count");
  report->Add("failed_frac",
              Frac(double(report->failed), double(report->attempted)),
              "frac");
  const std::vector<double>& untraced = mine.times.at("mine_t1");
  report->Add("trace.overhead_frac",
              Median(mine.times.at("mine_t1_traced")) / Median(untraced) - 1.0,
              "frac", untraced.size());
}

/// Prints one line per metric, the failures, the run metadata, and last the
/// result object.
void PrintResult(const Workload& w, const Args& args, double parallelism,
                 const Report& report) {
  for (const Metric& m : report.metrics) {
    const std::string n =
        m.samples > 0 ? " n=" + std::to_string(m.samples) : "";
    std::printf("%-32s %14.6g %-5s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), n.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"scale\":%g,\"seconds\":%g,\"trace\":%d,\"nproc\":%u,\"simd\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"parallelism\":%.2f,\"server_workers\":%d,\"query_connections\":%u,"
      "\"latency_limit_ms\":%g}\n",
      w.name, args.seed, w.scale, args.seconds, args.trace ? 1 : 0, nproc,
      k2::simd::LevelName(k2::simd::ActiveLevel()), __VERSION__,
      PERFBENCH_BUILD_TYPE, args.git_sha.c_str(), parallelism, kServerWorkers,
      QueryConnections(), kLatencyLimitMs);
  std::ostringstream json;
  json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << JsonNum(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: k2_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--data-dir <dir>] "
                 "[--trace-out <file>] [--git-sha <sha>]\n";
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *wp;
  const double parallelism = MeasureParallelism();
  Report report;
  SpanLog spans;
  const int root = spans.Begin(w.name);
  // The untraced run only mines; the traced run splits its time with the
  // serving part.
  const double serve_budget = args.trace ? args.seconds * kServeShare : 0.0;

  // Inputs (not part of set-up): the generated datasets, their timeline
  // shifted by the seed.
  int span = spans.Begin("generate", root);
  const auto delta = static_cast<Timestamp>((args.seed % 1000) * 4096);
  const Dataset data = ShiftTicks(GenerateData(w.shape, w.scale), delta);
  spans.End(span);

  MineOutcome mine;
  const Status mined = RunMine(w, data, args, args.seconds - serve_budget,
                               &report, &spans, root, &mine);
  if (!mined.ok()) {
    std::cerr << "mine: " << mined.ToString() << "\n";
    return 1;
  }
  if (args.trace) {
    span = spans.Begin("serve", root);
    const Dataset stream_data =
        ShiftTicks(GenerateData(DataShape::kTrucks, 1.0), delta);
    ServeOutcome serve;
    const Status served =
        RunServe(stream_data, args.seed, serve_budget, &report, &serve);
    spans.End(span);
    if (!served.ok()) {
      std::cerr << "serve: " << served.ToString() << "\n";
      return 1;
    }
    AddLayers(mine, serve, &report);
    spans.End(root);
    if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
      std::cerr << "could not write " << args.trace_out << "\n";
    }
  } else {
    AddEndToEnd(mine, &report);
  }
  PrintResult(w, args, parallelism, report);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

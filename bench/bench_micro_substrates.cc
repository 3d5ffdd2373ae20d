// Google-benchmark microbenchmarks of the substrates: DBSCAN, ObjectSet
// intersection, B+-tree point reads / range scans, LSM point reads, 7-object
// GetPoints on dense and holey ticks, memtable appends. These are not paper
// figures; they size the building blocks. Disk-backed stores live in a
// per-process directory under the system temp dir, removed at exit, so
// concurrent runs never share a store.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "cluster/dbscan.h"
#include "common/check.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "storage/bptree_store.h"
#include "storage/key.h"
#include "storage/lsm/memtable.h"
#include "storage/lsm_store.h"

namespace k2 {
namespace {

/// `<temp>/k2hop_micro_<pid>/<name>`; the directory goes at process exit.
std::string ScratchPath(const std::string& name) {
  static const struct ScratchDir {
    std::filesystem::path path;
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir{std::filesystem::temp_directory_path() /
        ("k2hop_micro_" + std::to_string(::getpid()))};
  std::filesystem::create_directories(dir.path);
  return (dir.path / name).string();
}

std::vector<SnapshotPoint> RandomSnapshot(size_t n, double area,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<SnapshotPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                rng.Uniform(0, area), rng.Uniform(0, area)});
  }
  return pts;
}

void BM_DbscanSnapshot(benchmark::State& state) {
  const auto pts = RandomSnapshot(static_cast<size_t>(state.range(0)), 1000.0, 7);
  DbscanScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(pts, 15.0, 3, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DbscanSnapshot)->Arg(16)->Arg(256)->Arg(4096);

void BM_ObjectSetIntersect(benchmark::State& state) {
  std::vector<ObjectId> a, b;
  for (ObjectId i = 0; i < state.range(0); ++i) {
    a.push_back(i * 2);
    b.push_back(i * 3);
  }
  const ObjectSet sa{std::move(a)}, sb{std::move(b)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ObjectSet::Intersect(sa, sb));
  }
}
BENCHMARK(BM_ObjectSetIntersect)->Arg(8)->Arg(128)->Arg(2048);

Dataset MicroDataset() {
  RandomWalkSpec spec;
  spec.num_objects = 200;
  spec.num_ticks = 500;
  spec.area = 5000.0;
  spec.seed = 99;
  return GenerateRandomWalk(spec);
}

void BM_BPlusTreeGet(benchmark::State& state) {
  static BPlusTreeStore* store = [] {
    auto* s = new BPlusTreeStore(ScratchPath("tree.db"), 256);
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(3);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(500));
    const ObjectId oid = static_cast<ObjectId>(rng.NextInt(200));
    K2_CHECK_OK(store->GetPoints(t, ObjectSet::Of({oid}), &out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_BPlusTreeScanTimestamp(benchmark::State& state) {
  static BPlusTreeStore* store = [] {
    auto* s = new BPlusTreeStore(ScratchPath("tree2.db"), 256);
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(4);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    K2_CHECK_OK(
        store->ScanTimestamp(static_cast<Timestamp>(rng.NextInt(500)), &out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_BPlusTreeScanTimestamp);

void BM_LsmGet(benchmark::State& state) {
  static LsmStore* store = [] {
    auto* s = new LsmStore(ScratchPath("lsm"));
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(5);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(500));
    const ObjectId oid = static_cast<ObjectId>(rng.NextInt(200));
    K2_CHECK_OK(store->GetPoints(t, ObjectSet::Of({oid}), &out));
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LsmGet);

// GetPoints of 7-object sets, the shape of an HWMT candidate's read, on
// ticks of 1,104 objects (a Trucks x4 tick). Dense ticks hold every object,
// so each oid's probe lands; holey ticks drop a quarter of the rows at
// random, so most probes miss and pay the binary-search fallback.
constexpr ObjectId kTickObjects = 1104;
constexpr Timestamp kGetTicks = 200;

Store* GetPointsStore(StoreKind kind, bool holey) {
  // Leaked like the other benches' stores: none may outlive ScratchPath's
  // directory, which static destruction removes.
  static auto* stores =
      new std::map<std::pair<StoreKind, bool>, std::unique_ptr<Store>>();
  std::unique_ptr<Store>& store = (*stores)[{kind, holey}];
  if (store == nullptr) {
    DatasetBuilder builder;
    Rng rng(11);
    for (Timestamp t = 0; t < kGetTicks; ++t) {
      for (ObjectId oid = 0; oid < kTickObjects; ++oid) {
        if (holey && rng.NextInt(4) == 0) continue;
        builder.Add(t, oid, rng.Uniform(0, 5000), rng.Uniform(0, 5000));
      }
    }
    auto created = CreateStore(
        kind, ScratchPath(std::string("get_") + StoreKindName(kind) +
                          (holey ? "_holey" : "_dense")));
    K2_CHECK_OK(created.status());
    store = created.MoveValue();
    K2_CHECK_OK(store->BulkLoad(builder.Build()));
  }
  return store.get();
}

void BM_GetPoints(benchmark::State& state) {
  const auto kind = static_cast<StoreKind>(state.range(0));
  const bool holey = state.range(1) != 0;
  Store* store = GetPointsStore(kind, holey);
  state.SetLabel(std::string(StoreKindName(kind)) +
                 (holey ? "/holey" : "/dense"));
  Rng rng(12);
  std::vector<std::pair<Timestamp, ObjectSet>> queries;
  for (int q = 0; q < 1024; ++q) {
    std::vector<ObjectId> oids;
    while (oids.size() < 7) {
      const auto oid = static_cast<ObjectId>(rng.NextInt(kTickObjects));
      if (std::find(oids.begin(), oids.end(), oid) == oids.end()) {
        oids.push_back(oid);
      }
    }
    queries.emplace_back(static_cast<Timestamp>(rng.NextInt(kGetTicks)),
                         ObjectSet(std::move(oids)));
  }
  std::vector<SnapshotPoint> out;
  size_t q = 0;
  for (auto _ : state) {
    const auto& [t, objects] = queries[q++ % queries.size()];
    K2_CHECK_OK(store->GetPoints(t, objects, &out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_GetPoints)
    ->ArgNames({"engine", "holey"})
    ->Args({static_cast<int64_t>(StoreKind::kMemory), 0})
    ->Args({static_cast<int64_t>(StoreKind::kMemory), 1})
    ->Args({static_cast<int64_t>(StoreKind::kLsm), 0})
    ->Args({static_cast<int64_t>(StoreKind::kLsm), 1});

void BM_MemtableAppend(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lsm::Memtable memtable;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      // Ticks of 64 objects, appended in (t, oid) order as Append writes.
      K2_CHECK(memtable.Append(MakeKey(i / 64, static_cast<ObjectId>(i % 64)),
                               lsm::LsmValue{1.0, 2.0}));
    }
    benchmark::DoNotOptimize(memtable.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemtableAppend)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace k2

BENCHMARK_MAIN();

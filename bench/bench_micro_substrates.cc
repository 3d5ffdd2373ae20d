// Google-benchmark microbenchmarks of the substrates: DBSCAN, ObjectSet
// intersection, B+-tree point reads / range scans, LSM point reads, memtable
// appends. These are not paper figures; they size the building blocks.
#include <benchmark/benchmark.h>

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
    auto* s = new BPlusTreeStore("/tmp/k2hop_micro_tree.db", 256);
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(3);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(500));
    const ObjectId oid = static_cast<ObjectId>(rng.NextInt(200));
    K2_CHECK_OK(store->GetPoints(t, ObjectSet::Of({oid}), &out));
  }
}
BENCHMARK(BM_BPlusTreeGet);

void BM_BPlusTreeScanTimestamp(benchmark::State& state) {
  static BPlusTreeStore* store = [] {
    auto* s = new BPlusTreeStore("/tmp/k2hop_micro_tree2.db", 256);
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(4);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    K2_CHECK_OK(
        store->ScanTimestamp(static_cast<Timestamp>(rng.NextInt(500)), &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_BPlusTreeScanTimestamp);

void BM_LsmGet(benchmark::State& state) {
  static LsmStore* store = [] {
    auto* s = new LsmStore("/tmp/k2hop_micro_lsm");
    K2_CHECK_OK(s->BulkLoad(MicroDataset()));
    return s;
  }();
  Rng rng(5);
  std::vector<SnapshotPoint> out;
  for (auto _ : state) {
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(500));
    const ObjectId oid = static_cast<ObjectId>(rng.NextInt(200));
    K2_CHECK_OK(store->GetPoints(t, ObjectSet::Of({oid}), &out));
  }
}
BENCHMARK(BM_LsmGet);

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

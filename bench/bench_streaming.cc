// Streaming ingest benchmark: feeds the Trucks workload tick by tick
// through OnlineK2HopMiner (ingest routed via Store::Append) and reports
// amortized per-tick latency, the p50/p99/p999 ingest tail, and the
// Finalize() cost — against the batch MineK2Hop wall time over the same
// bulk-loaded data. The online result is differential-checked against batch
// in-process.
//
// The LSM engine runs twice: with the WAL sync deferred (store-default
// durability of the other engines — the row comparable across snapshots)
// and with wal_sync_every_append, where every tick pays an fdatasync for
// per-tick durability ("k2hop-online-durable"). Both rows keep compaction
// on the background thread, which is what the tail percentiles measure.
#include "bench/harness.h"

#include <filesystem>
#include <sstream>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/online.h"
#include "storage/lsm_store.h"

using namespace k2;
using namespace k2::bench;

namespace {

struct StreamRun {
  std::string store_name;
  std::string miner;
  std::unique_ptr<Store> store;
};

/// Streams the workload through `run.store`, checks the result against the
/// batch convoys, and emits one table row + one JSON record.
void RunStreaming(StreamRun run, const Dataset& data,
                  const MiningParams& params,
                  const std::vector<Convoy>& batch_convoys,
                  TablePrinter* table) {
  OnlineK2HopMiner miner(run.store.get(), params);
  Stopwatch sw;
  for (Timestamp t : data.timestamps()) {
    K2_CHECK_OK(miner.AppendTick(t, SnapshotPoints(data, t)));
  }
  const double ingest_seconds = sw.ElapsedSeconds();
  Stopwatch finalize_sw;
  auto result = miner.Finalize();
  const double finalize_seconds = finalize_sw.ElapsedSeconds();
  K2_CHECK(result.ok());
  K2_CHECK(result.value() == batch_convoys);  // both in canonical order
  const OnlineK2HopStats& stats = miner.stats();
  const PercentileReservoir& tail = stats.append_percentiles;

  table->AddRow(
      {run.store_name, run.miner, Fmt(ingest_seconds + finalize_seconds),
       Fmt(stats.append_latency.mean() * 1e3), Fmt(tail.Percentile(50) * 1e3),
       Fmt(tail.Percentile(99) * 1e3), Fmt(tail.Percentile(99.9) * 1e3),
       Fmt(stats.append_latency.max() * 1e3), Fmt(finalize_seconds),
       std::to_string(stats.closed_convoys),
       std::to_string(stats.open_convoys),
       std::to_string(result.value().size())});

  JsonFields extra;
  extra.Int("ticks", stats.ticks_ingested)
      .Int("points_ingested", stats.points_ingested)
      .Num("append_ms_mean", stats.append_latency.mean() * 1e3)
      .Num("append_ms_p50", tail.Percentile(50) * 1e3)
      .Num("append_ms_p99", tail.Percentile(99) * 1e3)
      .Num("append_ms_p999", tail.Percentile(99.9) * 1e3)
      .Num("append_ms_max", stats.append_latency.max() * 1e3)
      .Num("finalize_ms", finalize_seconds * 1e3)
      .Int("closed_eagerly", stats.closed_convoys)
      .Int("open_at_finalize", stats.open_convoys);
  RecordMiningRun(run.miner, *run.store, params,
                  ingest_seconds + finalize_seconds, result.value().size(),
                  stats.mining_io, extra);
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = "/tmp/k2hop_bench/stores/streaming_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Streaming: online k/2-hop ingest vs batch");
  const Dataset& data = Trucks();
  std::cout << data.DebugString() << "\n\n";
  const MiningParams params{3, 200, 30.0};

  TablePrinter table({"store", "mode", "total_s", "tick_ms_mean", "tick_p50",
                      "tick_p99", "tick_p999", "tick_max", "finalize_s",
                      "closed", "open", "convoys"});
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kLsm}) {
    // Batch reference: bulk load + one-shot mine (keeping the convoy list
    // so the online result can be compared set-for-set, not just counted).
    auto batch_store = BuildStore(kind, data, "streaming_batch");
    K2HopStats batch_stats;
    Stopwatch batch_sw;
    auto batch_result = MineK2Hop(batch_store.get(), params,
                                  {.num_threads = 1}, &batch_stats);
    const double batch_seconds = batch_sw.ElapsedSeconds();
    K2_CHECK(batch_result.ok());
    const std::vector<Convoy>& batch_convoys = batch_result.value();
    RecordMiningRun("k2hop", *batch_store, params, batch_seconds,
                    batch_convoys.size(), batch_stats.io);
    table.AddRow({StoreKindName(kind), "batch", Fmt(batch_seconds),
                  Fmt(batch_seconds * 1e3 /
                      static_cast<double>(data.timestamps().size())),
                  "-", "-", "-", "-", "-", "-", "-",
                  std::to_string(batch_convoys.size())});

    // Streaming: empty store, tick-by-tick Append + incremental mining.
    if (kind == StoreKind::kLsm) {
      LsmStoreOptions deferred;
      deferred.wal_sync_every_append = false;
      RunStreaming({StoreKindName(kind), "k2hop-online",
                    std::make_unique<LsmStore>(FreshDir("lsmt") + "/lsm",
                                               deferred)},
                   data, params, batch_convoys, &table);
      LsmStoreOptions durable;  // store defaults: fdatasync per tick
      RunStreaming({StoreKindName(kind), "k2hop-online-durable",
                    std::make_unique<LsmStore>(FreshDir("lsmt_durable") +
                                                   "/lsm",
                                               durable)},
                   data, params, batch_convoys, &table);
      LsmStoreOptions foreground;  // pre-background-compaction configuration
      foreground.wal_sync_every_append = false;
      foreground.background_compaction = false;
      RunStreaming({StoreKindName(kind), "k2hop-online-fg",
                    std::make_unique<LsmStore>(FreshDir("lsmt_fg") + "/lsm",
                                               foreground)},
                   data, params, batch_convoys, &table);
    } else {
      auto store_result =
          CreateStore(kind, FreshDir(StoreKindName(kind)));
      K2_CHECK(store_result.ok());
      RunStreaming({StoreKindName(kind), "k2hop-online",
                    store_result.MoveValue()},
                   data, params, batch_convoys, &table);
    }
  }
  table.Print();
  std::cout << "\nonline == batch convoy sets (checked in-process); "
               "tick_ms_* amortize ingest + incremental mining per tick. "
               "lsmt/k2hop-online defers WAL sync (engine-default "
               "durability); -durable pays one fdatasync per tick.\n";
  return 0;
}

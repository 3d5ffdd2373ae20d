// Fig. 8l — data-size scalability: the same mining job on a ~4x pair of
// Brinkhoff datasets. Paper: VCoDA* grows sharply and crashes on the larger
// dataset; the k2-* engines grow sub-linearly. The paper's columns are
// one-thread runs. A second table pins 1, 2 and 4 threads per engine
// (records "k2hop@t<n>"), so the sharded driver's speedup is recorded, not
// anecdotal.
#include "bench/harness.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"

using namespace k2;
using namespace k2::bench;

namespace {

/// Mines `store` at 1, 2 and 4 threads (the convoys must agree) and adds
/// one row of wall times plus the 4-thread speedup to `sweep`.
void ThreadSweep(Store* store, const MiningParams& params,
                 const std::string& points, TablePrinter* sweep) {
  std::vector<std::string> row{points, store->name()};
  std::vector<Convoy> reference;
  double t1_seconds = 0.0;
  double seconds = 0.0;
  for (int threads : {1, 2, 4}) {
    K2HopStats stats;
    Stopwatch sw;
    auto mined =
        MineK2Hop(store, params, {.num_threads = threads}, &stats);
    seconds = sw.ElapsedSeconds();
    K2_CHECK(mined.ok());
    if (threads == 1) {
      reference = mined.value();
      t1_seconds = seconds;
    }
    K2_CHECK(mined.value() == reference);
    RecordMiningRun("k2hop@t" + std::to_string(threads), *store, params,
                    seconds, mined.value().size(), stats.io,
                    JsonFields().Int("threads", threads));
    row.push_back(Fmt(seconds));
  }
  row.push_back(Fmt(t1_seconds / std::max(1e-9, seconds), 2));
  sweep->AddRow(row);
}

void Measure(const Dataset& data, const std::string& tag,
             TablePrinter* table, TablePrinter* sweep) {
  const MiningParams params{3, 200, 60.0};
  const std::string points = std::to_string(data.num_points());
  std::string vcoda = "DNF(mem)";
  if (!VcodaExceedsMemoryBudget(data)) {
    auto file_store = BuildStore(StoreKind::kFile, data, tag);
    vcoda = Fmt(RunVcoda(file_store.get(), params, true).seconds);
  }
  // Mine each engine directly after building it, with one untimed warmup
  // mine first: the initial read of a freshly built store pays one-time
  // costs unrelated to the engine (first-touch page faults on just-written
  // tables, allocator growth after the previous engine's teardown) that
  // dwarf the millisecond-scale mines on the small dataset. The recorded
  // number is the steady state, measured identically for both engines.
  auto rdbms = BuildStore(StoreKind::kBPlusTree, data, tag);
  K2_CHECK(MineK2Hop(rdbms.get(), params, {.num_threads = 1}).ok());
  const std::string rdbms_s = Fmt(RunK2(rdbms.get(), params).seconds);
  ThreadSweep(rdbms.get(), params, points, sweep);
  rdbms.reset();
  auto lsmt = BuildStore(StoreKind::kLsm, data, tag);
  K2_CHECK(MineK2Hop(lsmt.get(), params, {.num_threads = 1}).ok());
  const std::string lsmt_s = Fmt(RunK2(lsmt.get(), params).seconds);
  ThreadSweep(lsmt.get(), params, points, sweep);
  table->AddRow({points, vcoda, rdbms_s, lsmt_s});
}

}  // namespace

int main(int argc, char** argv) {
  ParseArgs(argc, argv);
  PrintBanner("Fig 8l: data size scalability (Brinkhoff pair)");
  TablePrinter table({"points", "VCoDA*", "k2-RDBMS", "k2-LSMT"});
  TablePrinter sweep({"points", "store", "t1_s", "t2_s", "t4_s", "speedup"});
  Measure(BrinkhoffSmall(), "fig8l_small", &table, &sweep);
  Measure(Brinkhoff(), "fig8l_big", &table, &sweep);
  table.Print();
  std::cout << "\nPinned-thread sweep (speedup = t1 / t4):\n";
  sweep.Print();
  return 0;
}

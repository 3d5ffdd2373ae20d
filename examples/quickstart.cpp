// Quickstart: build a small movement dataset, mine fully connected convoys
// with k/2-hop, and inspect the result.
//
//   $ ./examples/quickstart
#include <iostream>

#include "common/convoy.h"
#include "core/k2hop.h"
#include "gen/synthetic.h"
#include "storage/memory_store.h"

int main() {
  // 1. Get a dataset. Here: 3 friends walking together for ticks 10..39,
  //    among 20 independently wandering objects. In a real application you
  //    would load a CSV with k2::ReadCsv("trace.csv").
  k2::PlantedConvoySpec spec;
  spec.num_noise_objects = 20;
  spec.num_ticks = 60;
  spec.groups = {k2::PlantedGroup{/*size=*/3, /*start=*/10, /*end=*/39,
                                  /*speed=*/5.0}};
  spec.seed = 2024;
  const k2::Dataset dataset = k2::GeneratePlantedConvoys(spec);
  std::cout << "dataset: " << dataset.DebugString() << "\n";

  // 2. Load it into a store. MemoryStore is the zero-setup choice; swap in
  //    BPlusTreeStore / LsmStore for disk-resident data (see the
  //    storage_backends example).
  k2::MemoryStore store(dataset);

  // 3. Pick the mining parameters (Def. 8 of the paper): at least m objects,
  //    within eps metres (density-connected), for at least k ticks.
  const k2::MiningParams params{/*m=*/3, /*k=*/20, /*eps=*/3.0};

  // 4. Mine. The stats object reports what the pruning achieved. One
  //    thread reads exactly the paper's points; the default (one time
  //    shard per core) also re-scans each shard's boundary tick.
  k2::K2HopStats stats;
  auto result = k2::MineK2Hop(&store, params, {.num_threads = 1}, &stats);
  if (!result.ok()) {
    std::cerr << "mining failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // 5. Use the convoys.
  std::cout << k2::ConvoysDebugString(result.value());
  std::cout << "pruned " << stats.pruning_ratio() * 100.0
            << "% of the data (processed " << stats.points_processed()
            << " of " << stats.total_points << " points)\n";
  return 0;
}

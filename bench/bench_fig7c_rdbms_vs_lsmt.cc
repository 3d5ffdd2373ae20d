// Fig. 7c — k2-RDBMS vs k2-LSMT on the Brinkhoff workload (the largest
// dataset), absolute seconds per k. Paper: k2-LSMT wins on the largest
// dataset; VCoDA could not finish on it at all.
#include "bench/harness.h"

using namespace k2;
using namespace k2::bench;

int main() {
  PrintBanner("Fig 7c: k2-RDBMS vs k2-LSMT (Brinkhoff)");
  const Dataset& data = Brinkhoff();
  std::cout << data.DebugString() << "\n";
  std::cout << "VCoDA on this dataset: "
            << (VcodaExceedsMemoryBudget(data)
                    ? "DNF (exceeds modelled memory budget, as in the paper)"
                    : "would fit")
            << "\n\n";

  auto rdbms = BuildStore(StoreKind::kBPlusTree, data, "fig7c");
  auto lsmt = BuildStore(StoreKind::kLsm, data, "fig7c");

  TablePrinter table({"k", "k2-RDBMS", "k2-LSMT", "convoys"});
  for (int k : {200, 400, 600, 800, 1000, 1200}) {
    const MiningParams params{3, k, 60.0};
    const MineOutcome r = RunK2(rdbms.get(), params);
    const MineOutcome l = RunK2(lsmt.get(), params);
    table.AddRow({std::to_string(k), Fmt(r.seconds), Fmt(l.seconds),
                  std::to_string(r.convoys)});
  }
  table.Print();
  return 0;
}

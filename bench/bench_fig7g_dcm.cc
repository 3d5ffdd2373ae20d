// Fig. 7g — k/2 gain over DCM with 1..4 "nodes" (temporal partitions mined
// by that many workers). Paper: k/2-hop stays ahead of DCM even as nodes are
// added (up to 140x), with the gain shrinking as DCM parallelizes.
#include "bench/harness.h"

using namespace k2;
using namespace k2::bench;

int main() {
  PrintBanner("Fig 7g: k/2 gain over DCM (nodes 1-4)");

  struct Workload {
    const char* name;
    const Dataset* data;
    MiningParams params;
  };
  const std::vector<Workload> workloads = {
      {"Trucks", &Trucks(), {3, 200, 30.0}},
      {"Brinkhoff", &Brinkhoff(), {3, 200, 60.0}},
      {"TDrive", &TDrive(), {3, 200, 60.0}},
  };

  // DCM emits partially connected convoys, so k/2-hop runs without the
  // final FC validation here — the same output class.
  K2HopOptions k2_options;
  k2_options.num_threads = 1;
  k2_options.validate = false;
  std::vector<double> k2_seconds;
  std::vector<std::unique_ptr<Store>> stores;
  for (const Workload& w : workloads) {
    auto rdbms = BuildStore(StoreKind::kBPlusTree, *w.data, "fig7g");
    k2_seconds.push_back(
        RunK2(rdbms.get(), w.params, nullptr, k2_options).seconds);
    stores.push_back(BuildStore(StoreKind::kMemory, *w.data, "fig7g"));
  }

  TablePrinter table({"nodes", "Trucks", "Brinkhoff", "TDrive"});
  for (int nodes : {1, 2, 3, 4}) {
    std::vector<std::string> row{std::to_string(nodes)};
    for (size_t i = 0; i < workloads.size(); ++i) {
      const MineOutcome dcm =
          RunDcm(stores[i].get(), workloads[i].params, nodes, nodes);
      row.push_back(Fmt(dcm.seconds / std::max(1e-6, k2_seconds[i]), 1) + "x");
    }
    table.AddRow(row);
  }
  table.Print();
  std::cout << "(gain = DCM time at N nodes / sequential k2-RDBMS time)\n";
  return 0;
}

// CMC — Convoy Mining using Clustering (Jeung et al., VLDB 2008) — and PCCD
// — Partially Connected Convoy Discovery (Yoon & Shahabi, ICDMW 2009), the
// corrected version of CMC. Both mine *partially connected* convoys: convoy
// objects may be density-connected through outsiders (paper Sec. 2).
#ifndef K2_BASELINES_CMC_H_
#define K2_BASELINES_CMC_H_

#include <vector>

#include "baselines/sweep.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Builds a ClustersAtFn that scans + clusters snapshots of `store`. The
/// store reference must outlive the returned callable, which owns its
/// clustering scratch (one copy serves one thread at a time).
ClustersAtFn StoreClustersFn(Store* store, const MiningParams& params);

/// Original CMC. Carries its published recall bug: a cluster that extended
/// some candidate does not open a fresh candidate of its own, so convoys
/// that start inside a bigger transient cluster are missed
/// (tests/cmc_test.cc constructs the counterexample).
Result<std::vector<Convoy>> MineCmc(Store* store, const MiningParams& params);

/// PCCD: the corrected sweep; finds exactly the maximal partially connected
/// convoys with lifespan >= k.
Result<std::vector<Convoy>> MinePccd(Store* store, const MiningParams& params);

}  // namespace k2

#endif  // K2_BASELINES_CMC_H_

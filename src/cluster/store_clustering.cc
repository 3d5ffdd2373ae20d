#include "cluster/store_clustering.h"

namespace k2 {

Result<std::vector<ObjectSet>> ClusterSnapshot(Store* store, Timestamp t,
                                               const MiningParams& params,
                                               SnapshotScratch* scratch) {
  return ResolveClusterer(params)->Cluster(store, t, params, scratch);
}

Result<std::vector<ObjectSet>> ReCluster(Store* store, Timestamp t,
                                         const ObjectSet& objects,
                                         const MiningParams& params,
                                         SnapshotScratch* scratch) {
  return ResolveClusterer(params)->ReCluster(store, t, objects, params,
                                             scratch);
}

}  // namespace k2

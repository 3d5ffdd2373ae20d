// DBSCAN over one snapshot, producing the (m,eps)-clusters of paper Def. 2:
// maximal density-connected object sets of size >= m. A point counts itself
// in its eps-neighbourhood (Sec. 3.1), matching the original DBSCAN minPts
// convention used by all convoy papers.
//
// Every entry point takes a caller-owned DbscanScratch: it owns all
// working state (grid index, visited bytes, seed queue, neighbor buffer,
// label array), so repeated clusterings through one scratch — the per-tick
// re-clusterings that dominate HWMT / extension / validation — allocate
// nothing in steady state.
#ifndef K2_CLUSTER_DBSCAN_H_
#define K2_CLUSTER_DBSCAN_H_

#include <span>
#include <vector>

#include "cluster/grid_index.h"
#include "common/object_set.h"
#include "common/types.h"

namespace k2 {

/// Per-point cluster labels; -1 = noise. Exposed for tests and for SPARE's
/// snapshot-clustering phase, which needs cluster identities, not just sets.
struct DbscanLabels {
  std::vector<int32_t> label;  // parallel to the input span
  int32_t num_clusters = 0;
};

/// Reusable working state for DBSCAN runs. One scratch serves one thread;
/// create one per worker when clustering concurrently. Contents are
/// implementation details.
struct DbscanScratch {
  GridIndex grid;
  std::vector<uint8_t> visited;
  std::vector<uint32_t> neighbors;
  std::vector<uint32_t> seeds;
  DbscanLabels labels;
  std::vector<std::vector<ObjectId>> members;
  std::vector<SnapshotPoint> filtered;
  // Batched-expansion buffers: the unvisited slice of the seed queue and
  // the flat neighbor lists (CSR offsets) its region queries fill.
  std::vector<uint32_t> batch;
  std::vector<uint32_t> nbr_flat;
  std::vector<uint32_t> nbr_offsets;
};

/// Clusters the snapshot and returns the (m,eps)-clusters as object-id sets
/// in canonical (lexicographic) order. Border points are attached to the
/// first cluster whose core reaches them, per the original DBSCAN.
std::vector<ObjectSet> Dbscan(std::span<const SnapshotPoint> points,
                              double eps, int min_pts,
                              DbscanScratch* scratch);

/// DBSCAN restricted to snapshot points whose object id occurs in `subset`
/// (the reCluster(DB[t]|O) primitive of Algorithm 2 / Sec. 4.3).
std::vector<ObjectSet> DbscanSubset(std::span<const SnapshotPoint> points,
                                    const ObjectSet& subset, double eps,
                                    int min_pts, DbscanScratch* scratch);

/// Labels every point; labels land in `out` (storage reused across calls).
void DbscanLabelled(std::span<const SnapshotPoint> points, double eps,
                    int min_pts, DbscanScratch* scratch, DbscanLabels* out);

}  // namespace k2

#endif  // K2_CLUSTER_DBSCAN_H_

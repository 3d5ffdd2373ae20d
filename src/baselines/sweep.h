// The per-timestamp candidate sweep shared by PCCD, VCoDA, DCM partitions
// and the validation fallback: given the clusters of every tick, maintain
// candidate convoys by intersecting them with the clusters of the next tick
// and emit candidates that can no longer be extended (Yoon & Shahabi's
// corrected candidate maintenance — every cluster always opens a fresh
// candidate, which is the fix over CMC).
#ifndef K2_BASELINES_SWEEP_H_
#define K2_BASELINES_SWEEP_H_

#include <functional>
#include <vector>

#include "common/convoy.h"
#include "common/object_set.h"
#include "common/status.h"
#include "common/types.h"

namespace k2 {

/// Supplies the (m,eps)-clusters of tick `t` (empty vector for a tick
/// without data).
using ClustersAtFn =
    std::function<Status(Timestamp t, std::vector<ObjectSet>* clusters)>;

class Dataset;

/// ClustersAtFn over an in-memory dataset (no store IO). The dataset must
/// outlive the callable. The callable owns its clustering scratch, so one
/// copy serves one thread at a time.
ClustersAtFn DatasetClustersFn(const Dataset* dataset,
                               const MiningParams& params);

struct SweepOptions {
  /// Minimum lifespan of emitted convoys.
  int min_length = 2;
  /// Additionally keep convoys that touch the left/right edge of the range
  /// regardless of length — required by DCM partitions, whose border pieces
  /// are merged with neighbouring partitions later.
  bool keep_left_border = false;
  bool keep_right_border = false;
};

/// Mines all maximal convoys inside `range` (every tick in the range is
/// consulted; ticks without clusters terminate every candidate). The result
/// is maximal (no element is a sub-convoy of another) and canonically
/// sorted.
Result<std::vector<Convoy>> MaximalConvoySweep(const ClustersAtFn& clusters_at,
                                               TimeRange range, int m,
                                               const SweepOptions& options);

}  // namespace k2

#endif  // K2_BASELINES_SWEEP_H_

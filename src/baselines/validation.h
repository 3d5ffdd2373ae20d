// Fully-connected-convoy validation (paper Sec. 4.6 / Algorithm 4). A
// candidate (O, T) is FC iff the dataset restricted to O clusters to exactly
// {O} at every tick of T. The checker probes ticks in binary-subdivision
// order (the HWMT* fast path); when the check fails it falls back to an
// exact sweep over the restriction and recurses on the resulting pieces —
// the paper's correction of DCVal. `recursive = false` reproduces the
// original one-pass DCVal (Yoon & Shahabi), which can emit non-FC convoys
// because split results are not re-validated. An optional FC ledger
// (cluster/fc_ledger.h) answers the probes of ticks the run has already
// proved for exactly the candidate's object set.
#ifndef K2_BASELINES_VALIDATION_H_
#define K2_BASELINES_VALIDATION_H_

#include <vector>

#include "cluster/fc_ledger.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

/// Tick probe order of HWMT*: range endpoints first, then recursive
/// midpoints in BFS (level) order; every tick of the range appears exactly
/// once. "The chance of objects being coincidentally together in adjacent
/// timestamps is higher than ... in distant timestamps" (Sec. 4.3).
std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range);

struct ValidationStats {
  size_t candidates_in = 0;
  size_t fc_accepted = 0;     ///< candidates that passed unchanged
  size_t split_rounds = 0;    ///< fallback sweeps executed
  size_t reclusterings = 0;   ///< restricted DBSCAN runs
  size_t proven_ticks = 0;    ///< probes answered by the FC ledger

  /// Adds `other`'s counters to these.
  void Accumulate(const ValidationStats& other);
};

/// Reduces `candidates` to the maximal fully connected convoys they
/// contain. All data access goes through `store` point reads. `ledger`
/// (optional, read only) must hold facts about `store`'s data under
/// `params`; a probe of (t, O) it proves is not re-clustered. The output
/// is the same with and without it.
Result<std::vector<Convoy>> ValidateFullyConnected(
    Store* store, std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive = true, ValidationStats* stats = nullptr,
    const FcLedger* ledger = nullptr);

}  // namespace k2

#endif  // K2_BASELINES_VALIDATION_H_

// k/2-hop — the paper's contribution (Sec. 4). Benchmark points every
// ⌊k/2⌋ ticks are fully clustered; everything else touches only candidate
// objects: candidate clusters (set-wise intersection of adjacent benchmark
// cluster sets), HWMT verification inside hop-windows, DCM merge across
// windows, right/left extension to exact lifespans, and recursive FC
// validation.
#ifndef K2_CORE_K2HOP_H_
#define K2_CORE_K2HOP_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/validation.h"
#include "cluster/fc_ledger.h"
#include "cluster/store_clustering.h"
#include "common/convoy.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "storage/store.h"

namespace k2 {

struct K2HopOptions {
  /// Time shards of the benchmark grid (core/partition.h); 0 = one per
  /// worker thread. Always clamped to the number of hop-windows (a shard
  /// mines at least one window).
  int num_shards = 0;
  /// Worker threads driving the shards and the per-convoy extension and
  /// validation work; 0 = hardware_concurrency. Each worker reads through
  /// its own Store::CreateReadSnapshot handle. 1 is the exact sequential
  /// path: no pool and no snapshot, every read goes to the caller's store.
  /// Results are byte-identical for every shard and thread count; IoStats
  /// are not (adjacent shards both cluster their shared benchmark tick).
  int num_threads = 0;
  /// HWMT probes hop-window ticks in binary-subdivision (farthest-first)
  /// order; false = naive left-to-right (ablation bench).
  bool hwmt_binary_order = true;
  /// Intersect adjacent benchmark cluster sets into candidate clusters
  /// (Lemma 5); false = feed benchmark clusters directly to HWMT and verify
  /// the right benchmark inside the window (ablation bench).
  bool candidate_pruning = true;
  /// Run the final FC validation; false stops after extension and returns
  /// the (partially connected) extended candidates.
  bool validate = true;
};

struct K2HopStats {
  /// Wall time per phase, in the paper's Fig. 8i vocabulary: "benchmark",
  /// "candidates", "HWMT", "merge", "extend-right", "extend-left",
  /// "validation".
  PhaseTimer phases;
  size_t benchmark_points = 0;
  size_t hop_windows = 0;
  size_t hop_windows_mined = 0;  ///< windows with a non-empty candidate set
  size_t candidate_clusters = 0;
  size_t spanning_convoys = 0;   ///< 1st-order spanning convoys (all windows)
  size_t merged_convoys = 0;     ///< maximal spanning convoys after merge
  size_t prevalidation_convoys = 0;  ///< Fig. 8j series
  ValidationStats validation;
  IoStats io;               ///< store IO consumed by the run
  uint64_t total_points = 0;  ///< rows in the store

  /// The paper's "points processed" (Table 5).
  uint64_t points_processed() const { return io.points_read(); }
  /// Fraction of the dataset never touched (Table 5's pruning %).
  double pruning_ratio() const { return PruningRatio(io, total_points); }
  std::string DebugString() const;
};

/// Mines all maximal fully connected (m,eps)-convoys with lifespan >= k
/// (Algorithm 1) on the time-sharded driver of core/partition.h, with
/// `options.num_shards` shards (default: one per thread). `stats` may be
/// null.
Result<std::vector<Convoy>> MineK2Hop(Store* store, const MiningParams& params,
                                      const K2HopOptions& options = {},
                                      K2HopStats* stats = nullptr);

// --- individual phases, exposed for tests and ablations -------------------

/// Benchmark ticks start + i*⌊k/2⌋ covering the store's range.
std::vector<Timestamp> BenchmarkPoints(TimeRange range, int k);

/// Candidate clusters CC_i of one hop-window: pairwise intersections of the
/// adjacent benchmark cluster sets, keeping sets of size >= m (Sec. 4.2).
/// `right` must be pairwise disjoint (clusters of one tick always are) —
/// the implementation joins through an object-id -> right-cluster map in
/// O(total ids) instead of intersecting all pairs.
std::vector<ObjectSet> CandidateClusters(const std::vector<ObjectSet>& left,
                                         const std::vector<ObjectSet>& right,
                                         int m);

/// Counters of one MineHopWindows run (a subset of K2HopStats, so callers
/// can fold several runs — one per shard — into their own totals).
struct HopWindowPipelineStats {
  PhaseTimer phases;  ///< "benchmark", "candidates", "HWMT"
  size_t benchmark_points = 0;
  size_t hop_windows = 0;
  size_t hop_windows_mined = 0;
  size_t candidate_clusters = 0;
  size_t spanning_convoys = 0;
};

/// Steps 1–3 of the k/2-hop pipeline — benchmark-point clustering,
/// candidate clusters, HWMT — over an injected benchmark sub-sequence:
/// `benchmarks` may be any contiguous slice of the global ⌊k/2⌋ grid, which
/// is how the sharded driver runs the pipeline per time shard. Sequential;
/// concurrent shards each pass their own store handle. Fills
/// `spanning->at(w)` with the spanning convoys of the window
/// [benchmarks[w], benchmarks[w+1]] for w in [0, benchmarks.size() - 1).
/// `stats` may be null. HWMT records its FC facts into `ledger` when one
/// is given.
Status MineHopWindows(Store* store, const MiningParams& params,
                      std::span<const Timestamp> benchmarks,
                      const K2HopOptions& options,
                      std::vector<std::vector<ObjectSet>>* spanning,
                      HopWindowPipelineStats* stats = nullptr,
                      FcLedger* ledger = nullptr);

/// HWMT (Algorithm 2): verifies candidates at every tick strictly inside
/// (b_left, b_right); when `verify_right_benchmark`, b_right is probed too
/// (used by the no-pruning ablation). Returns the surviving object sets.
/// `scratch` (optional) makes repeated calls allocation-free. Every probe
/// that re-clusters a set to exactly itself is recorded into `ledger`
/// (optional); HWMT never reads it, since its probes are all first-seen.
Result<std::vector<ObjectSet>> HwmtSpanning(
    Store* store, const MiningParams& params, Timestamp b_left,
    Timestamp b_right, const std::vector<ObjectSet>& candidates,
    bool binary_order = true, bool verify_right_benchmark = false,
    SnapshotScratch* scratch = nullptr, FcLedger* ledger = nullptr);

/// DCM merge (Sec. 4.4): folds per-window spanning convoys left to right
/// into maximal spanning convoys. `spanning[i]` spans
/// [benchmarks[i], benchmarks[i+1]].
std::vector<Convoy> MergeSpanningConvoys(
    const std::vector<std::vector<ObjectSet>>& spanning,
    const std::vector<Timestamp>& benchmarks, int m);

/// Incremental form of the DCM merge: feed the spanning convoys of one
/// closed hop-window at a time, left to right. A merged spanning convoy is
/// surfaced ("dies") the moment it fails to extend into the next window, so
/// the online miner can hand it to extension without waiting for the rest
/// of the stream. Feeding every window and then Finish() yields exactly the
/// convoy set of MergeSpanningConvoys (which is implemented on top of this
/// class): dominance between merged convoys can only occur between convoys
/// dying at the same window — an earlier death can never be dominated by a
/// later one, because an object set that dies at window w cannot have a
/// superset still spanning w.
class SpanningConvoyMerger {
 public:
  /// Object set -> earliest tick the set has been spanning since.
  using StartMap = std::unordered_map<ObjectSet, Timestamp, ObjectSetHash>;

  explicit SpanningConvoyMerger(int m) : m_(m) {}

  /// Folds the window that starts at benchmark `window_start`; appends to
  /// `*died` the merged spanning convoys (maximal among this window's
  /// deaths) whose lifespan ends at `window_start`.
  void AddWindow(Timestamp window_start, const std::vector<ObjectSet>& spanning,
                 std::vector<Convoy>* died);

  /// Ends the fold: appends every still-active convoy, closed at the final
  /// benchmark point `last_benchmark`, to `*died`.
  void Finish(Timestamp last_benchmark, std::vector<Convoy>* died);

  size_t active_size() const { return active_.size(); }

  /// State transfer for the partitioned seam stitch: a shard's local fold
  /// ends with an active map describing every convoy still spanning its
  /// right boundary; when nothing crossed into the shard, that map IS the
  /// global fold state at the seam and the stitcher adopts it wholesale
  /// instead of replaying the shard's windows.
  StartMap TakeActive() { return std::move(active_); }
  void SetActive(StartMap active) { active_ = std::move(active); }

 private:
  int m_;
  StartMap active_;
};

/// Resumable tick-by-tick extension of one convoy (Algorithm 3 and its
/// mirror — the inner loop of ExtendRight / ExtendLeft). `dir` = +1 walks
/// from seed.end toward larger ticks, -1 from seed.start toward smaller
/// ticks. Advance() consumes ticks up to a bound and may be called again
/// with a larger bound as more final ticks become available (the online
/// miner suspends right-walks at the ingest frontier and resumes them per
/// appended tick). Branches whose objects stop clustering together are
/// appended to `*completed` as finished convoys; Flush() closes the
/// surviving branches at the dataset boundary. With an FC ledger, a branch
/// the ledger proves at a tick steps forward without a re-clustering, and
/// every branch that re-clusters to exactly itself is recorded.
class ConvoyExtensionWalk {
 public:
  ConvoyExtensionWalk(const Convoy& seed, int dir);

  bool done() const { return frontier_.empty(); }
  /// The next tick Advance() will probe. 64-bit: a walk that has passed
  /// the last (or first) representable tick points one beyond it.
  int64_t next_tick() const { return next_t_; }
  size_t num_branches() const { return frontier_.size(); }

  /// Probes ticks from next_tick() through `upto` (inclusive, in walk
  /// direction), stopping early once every branch has died. `ledger` is
  /// optional.
  Status Advance(Store* store, const MiningParams& params, Timestamp upto,
                 std::vector<Convoy>* completed,
                 SnapshotScratch* scratch = nullptr,
                 FcLedger* ledger = nullptr);

  /// Closes every surviving branch at `limit` (the dataset boundary); the
  /// walk is done() afterwards.
  void Flush(Timestamp limit, std::vector<Convoy>* completed);

 private:
  int dir_;
  Timestamp other_side_;  ///< fixed boundary on the non-walking side
  int64_t next_t_;
  std::vector<ObjectSet> frontier_;  ///< live branches, sorted + unique
};

/// Algorithm 3 and its mirror: extends each convoy tick-by-tick until its
/// objects stop clustering together; splits continue as smaller convoys.
/// The walks read and write `ledger` (optional).
Result<std::vector<Convoy>> ExtendRight(Store* store,
                                        const MiningParams& params,
                                        std::vector<Convoy> convoys,
                                        Timestamp dataset_end,
                                        FcLedger* ledger = nullptr);
Result<std::vector<Convoy>> ExtendLeft(Store* store, const MiningParams& params,
                                       std::vector<Convoy> convoys,
                                       Timestamp dataset_start,
                                       FcLedger* ledger = nullptr);

}  // namespace k2

#endif  // K2_CORE_K2HOP_H_

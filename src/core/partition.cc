#include "core/partition.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace k2 {

std::string PartitionedK2HopStats::DebugString() const {
  std::ostringstream os;
  os << "PartitionedK2HopStats{shards=" << shards
     << ", windows=" << hop_windows << ", seams=" << seams << " (crossed "
     << seams_crossed << ")"
     << ", adopted_folds=" << adopted_folds
     << ", stitch_replays=" << stitch_replays
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", prevalidation=" << prevalidation_convoys
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)}";
  return os.str();
}

std::vector<ShardPlan> PlanShards(const std::vector<Timestamp>& benchmarks,
                                  int num_shards) {
  std::vector<ShardPlan> plan;
  if (benchmarks.size() < 2) return plan;
  const size_t windows = benchmarks.size() - 1;
  const size_t shards =
      std::min(windows, static_cast<size_t>(std::max(num_shards, 1)));
  const size_t base = windows / shards;
  const size_t remainder = windows % shards;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    ShardPlan p;
    p.first_window = next;
    p.num_windows = base + (s < remainder ? 1 : 0);
    next += p.num_windows;
    p.ticks = TimeRange{benchmarks[p.first_window],
                        benchmarks[p.first_window + p.num_windows]};
    plan.push_back(p);
  }
  return plan;
}

PartitionedK2HopMiner::PartitionedK2HopMiner(Store* store,
                                             const MiningParams& params,
                                             K2HopOptions options)
    : store_(store), params_(params), options_(options) {}

Result<std::vector<Convoy>> PartitionedK2HopMiner::Mine() {
  K2_RETURN_NOT_OK(ValidateMiningParams(params_));
  stats_ = PartitionedK2HopStats();
  const IoStats parent_before = store_->io_stats();
  stats_.total_points = store_->num_points();

  const TimeRange range = store_->time_range();
  if (range.length() < params_.k) return std::vector<Convoy>{};

  // --- plan: shard the benchmark grid, open per-slot read snapshots ------
  Stopwatch sw;
  const std::vector<Timestamp> benchmarks =
      BenchmarkPoints(range, params_.k);
  stats_.benchmark_points = benchmarks.size();

  const int threads =
      options_.num_threads > 0
          ? options_.num_threads
          : std::max(1,
                     static_cast<int>(std::thread::hardware_concurrency()));
  const int want_shards =
      options_.num_shards > 0 ? options_.num_shards : threads;
  const std::vector<ShardPlan> plan = PlanShards(benchmarks, want_shards);
  if (plan.empty()) return std::vector<Convoy>{};
  stats_.shards = plan.size();
  stats_.hop_windows = benchmarks.size() - 1;
  stats_.seams = plan.size() - 1;

  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);

  // One read snapshot per concurrent runner: shards (and later per-convoy
  // walks) on different slots never share a store handle, so they fetch
  // concurrently. Handles are created lazily on a slot's first task —
  // snapshot setup can be real IO (the LSM engine re-reads every table's
  // index and bloom), so idle slots (more cores than shards on a small
  // mine) must not pay it. A slot's snapshot is only ever touched by the
  // task currently holding that slot; the mutex merely serializes
  // concurrent *creations* against the shared parent store. Setup IO is
  // excluded from stats_.io by capturing each handle's counters right after
  // creation. Without a pool nothing runs concurrently, so the one slot
  // reads the caller's store: the sequential pipeline, read for read.
  const size_t slots = static_cast<size_t>(threads);
  std::vector<std::unique_ptr<Store>> snapshots(slots);
  std::vector<IoStats> snapshot_before(slots);
  std::vector<SnapshotScratch> slot_scratch(slots);
  Mutex snapshot_create_mu;
  auto slot_store = [&](size_t slot) -> Result<Store*> {
    if (!pool.has_value()) return store_;
    if (snapshots[slot] == nullptr) {
      MutexLock lock(snapshot_create_mu);
      K2_ASSIGN_OR_RETURN(snapshots[slot], store_->CreateReadSnapshot());
      snapshot_before[slot] = snapshots[slot]->io_stats();
    }
    return snapshots[slot].get();
  };

  // Runs fn(slot, i) for i in [0, n): on the pool when present, inline
  // otherwise. Two items on the same slot never run concurrently, so
  // slot-indexed snapshots and scratches stay single-threaded.
  auto for_each_indexed =
      [&](size_t n,
          const std::function<Status(size_t, size_t)>& fn) -> Status {
    if (!pool.has_value()) {
      for (size_t i = 0; i < n; ++i) K2_RETURN_NOT_OK(fn(0, i));
      return Status::OK();
    }
    std::vector<Status> statuses(n);
    pool->ParallelFor(n, [&](size_t slot, size_t i) {
      statuses[i] = fn(slot, i);
    });
    for (Status& status : statuses) K2_RETURN_NOT_OK(status);
    return Status::OK();
  };
  stats_.phases.Add("plan", sw.ElapsedSeconds());

  // --- shards: full per-window pipeline + local DCM merge, concurrently --
  sw.Restart();
  std::vector<std::vector<std::vector<ObjectSet>>> spanning(plan.size());
  std::vector<std::vector<Convoy>> local_died(plan.size());
  std::vector<SpanningConvoyMerger::StartMap> local_active(plan.size());
  stats_.shard_runs.assign(plan.size(), {});
  K2_RETURN_NOT_OK(for_each_indexed(
      plan.size(), [&](size_t slot, size_t i) -> Status {
        Stopwatch shard_sw;
        const ShardPlan& shard = plan[i];
        ShardRunStats& run = stats_.shard_runs[i];
        run.ticks = shard.ticks;
        K2_ASSIGN_OR_RETURN(Store* shard_store, slot_store(slot));
        const IoStats before = shard_store->io_stats();
        const std::span<const Timestamp> shard_benchmarks(
            benchmarks.data() + shard.first_window, shard.num_benchmarks());
        K2_RETURN_NOT_OK(MineHopWindows(shard_store, params_,
                                        shard_benchmarks, options_,
                                        &spanning[i], &run.pipeline));
        // Local DCM merge. The fold starts empty, so deaths are only
        // locally maximal and starts are only locally earliest; the stitch
        // below decides whether that local view is globally valid (nothing
        // crossed the left seam) or must be replayed. Entries still
        // spanning the right boundary are exported, not closed.
        Stopwatch merge_sw;
        SpanningConvoyMerger merger(params_.m);
        for (size_t w = 0; w < shard.num_windows; ++w) {
          merger.AddWindow(shard_benchmarks[w], spanning[i][w],
                           &local_died[i]);
        }
        local_active[i] = merger.TakeActive();
        run.pipeline.phases.Add("merge", merge_sw.ElapsedSeconds());
        run.local_merged = local_died[i].size();
        run.seam_active = local_active[i].size();
        run.seconds = shard_sw.ElapsedSeconds();
        run.io = IoStats::Delta(shard_store->io_stats(), before);
        return Status::OK();
      }));
  for (const ShardRunStats& run : stats_.shard_runs) {
    stats_.spanning_convoys += run.pipeline.spanning_convoys;
  }
  stats_.phases.Add("shards", sw.ElapsedSeconds());

  // --- stitch: carry the spanning-convoy fold across the seams ----------
  // Invariant: entering shard i, `global` holds the true fold state of all
  // windows left of the shard. When that state is empty, the shard's local
  // fold (which started empty) IS the global fold over its windows — its
  // deaths and exported active map are adopted wholesale, an O(1) seam.
  // Otherwise convoys cross the seam: their continuations are intersection
  // chains the local fold cannot see (and the local fold's own entries may
  // inherit earlier starts from them), so the shard's windows are replayed
  // through the global merger — pure set algebra over the already-mined
  // spanning sets, no store IO.
  sw.Restart();
  std::vector<Convoy> died;
  SpanningConvoyMerger global(params_.m);
  for (size_t i = 0; i < plan.size(); ++i) {
    if (global.active_size() == 0) {
      ++stats_.adopted_folds;
      for (Convoy& v : local_died[i]) died.push_back(std::move(v));
      global.SetActive(std::move(local_active[i]));
    } else {
      ++stats_.stitch_replays;
      const ShardPlan& shard = plan[i];
      for (size_t w = 0; w < shard.num_windows; ++w) {
        global.AddWindow(benchmarks[shard.first_window + w], spanning[i][w],
                         &died);
      }
    }
    if (i + 1 < plan.size() && global.active_size() > 0) {
      ++stats_.seams_crossed;
    }
  }
  global.Finish(benchmarks.back(), &died);
  // First batch maximality barrier (the one inside MergeSpanningConvoys).
  MaximalConvoySet merged_set;
  for (Convoy& v : died) merged_set.Insert(std::move(v));
  std::vector<Convoy> merged = merged_set.TakeSorted();
  stats_.merged_convoys = merged.size();
  stats_.phases.Add("stitch", sw.ElapsedSeconds());

  // --- extension: per-convoy resumable walks, concurrently --------------
  // Walks read arbitrary ticks through the slot's snapshot and freely cross
  // shard seams. Results are gathered by seed index and folded through the
  // same MaximalConvoySet barrier as batch ExtendRight/ExtendLeft, so the
  // outcome is identical for every slot count.
  auto extend_all = [&](std::vector<Convoy> seeds, Timestamp limit, int dir,
                        const char* phase) -> Result<std::vector<Convoy>> {
    Stopwatch phase_sw;
    std::vector<std::vector<Convoy>> completed(seeds.size());
    K2_RETURN_NOT_OK(for_each_indexed(
        seeds.size(), [&](size_t slot, size_t i) -> Status {
          K2_ASSIGN_OR_RETURN(Store* walk_store, slot_store(slot));
          ConvoyExtensionWalk walk(seeds[i], dir);
          K2_RETURN_NOT_OK(walk.Advance(walk_store, params_, limit,
                                        &completed[i], &slot_scratch[slot]));
          walk.Flush(limit, &completed[i]);
          return Status::OK();
        }));
    MaximalConvoySet results;
    for (std::vector<Convoy>& pieces : completed) {
      for (Convoy& c : pieces) results.Insert(std::move(c));
    }
    stats_.phases.Add(phase, phase_sw.ElapsedSeconds());
    return results.TakeSorted();
  };
  K2_ASSIGN_OR_RETURN(
      merged, extend_all(std::move(merged), range.end, +1, "extend-right"));
  K2_ASSIGN_OR_RETURN(
      merged, extend_all(std::move(merged), range.start, -1, "extend-left"));
  merged = FilterMinLength(std::move(merged), params_.k);
  stats_.prevalidation_convoys = merged.size();

  // --- validation: FC checks, per convoy when concurrent ---------------
  // Sequentially, one batch call validates every candidate; it skips a
  // split piece already validated for an earlier candidate, which the
  // independent per-convoy calls cannot.
  std::vector<Convoy> result;
  if (!options_.validate) {
    result = std::move(merged);
  } else {
    sw.Restart();
    if (!pool.has_value()) {
      K2_ASSIGN_OR_RETURN(result,
                          ValidateFullyConnected(store_, std::move(merged),
                                                 params_, /*recursive=*/true,
                                                 &stats_.validation));
    } else {
      std::vector<std::vector<Convoy>> validated(merged.size());
      std::vector<ValidationStats> validation_stats(merged.size());
      K2_RETURN_NOT_OK(for_each_indexed(
          merged.size(), [&](size_t slot, size_t i) -> Status {
            K2_ASSIGN_OR_RETURN(Store* validate_store, slot_store(slot));
            K2_ASSIGN_OR_RETURN(
                validated[i],
                ValidateFullyConnected(validate_store, {merged[i]}, params_,
                                       /*recursive=*/true,
                                       &validation_stats[i]));
            return Status::OK();
          }));
      // Second batch barrier: global maximality over the validated pieces.
      MaximalConvoySet out;
      for (std::vector<Convoy>& pieces : validated) {
        for (Convoy& c : pieces) out.Insert(std::move(c));
      }
      for (const ValidationStats& vs : validation_stats) {
        stats_.validation.candidates_in += vs.candidates_in;
        stats_.validation.fc_accepted += vs.fc_accepted;
        stats_.validation.split_rounds += vs.split_rounds;
        stats_.validation.reclusterings += vs.reclusterings;
      }
      result = out.TakeSorted();
    }
    stats_.phases.Add("validation", sw.ElapsedSeconds());
  }

  // IO total: parent delta (the sequential path and fallback snapshots
  // read there) plus every native snapshot's own counters since creation.
  stats_.io = IoStats::Delta(store_->io_stats(), parent_before);
  for (size_t i = 0; i < slots; ++i) {
    if (snapshots[i] == nullptr) continue;  // slot never ran a task
    stats_.io.Accumulate(
        IoStats::Delta(snapshots[i]->io_stats(), snapshot_before[i]));
  }
  return result;
}

// k2-lint: allow(validate-mining-params): the wrapped
// PartitionedK2HopMiner::Mine() validates as its first statement.
Result<std::vector<Convoy>> MinePartitionedK2Hop(
    Store* store, const MiningParams& params,
    const K2HopOptions& options, PartitionedK2HopStats* stats) {
  PartitionedK2HopMiner miner(store, params, options);
  auto result = miner.Mine();
  if (stats != nullptr) *stats = miner.stats();
  return result;
}

}  // namespace k2

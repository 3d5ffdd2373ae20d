#include "core/k2hop.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "core/partition.h"

namespace k2 {

std::string K2HopStats::DebugString() const {
  std::ostringstream os;
  os << "K2HopStats{benchmarks=" << benchmark_points
     << ", windows=" << hop_windows << " (mined " << hop_windows_mined << ")"
     << ", candidate_clusters=" << candidate_clusters
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", prevalidation=" << prevalidation_convoys
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)}";
  return os.str();
}

std::vector<Timestamp> BenchmarkPoints(TimeRange range, int k) {
  std::vector<Timestamp> points;
  if (range.empty() || k < 2) return points;
  // 64-bit cursor: the step past the last benchmark may leave int32 when
  // the data ends within ⌊k/2⌋ of INT32_MAX.
  const int64_t hop = std::max(1, k / 2);
  for (int64_t b = range.start; b <= range.end; b += hop) {
    points.push_back(static_cast<Timestamp>(b));
  }
  return points;
}

std::vector<ObjectSet> CandidateClusters(const std::vector<ObjectSet>& left,
                                         const std::vector<ObjectSet>& right,
                                         int m) {
  std::vector<ObjectSet> out;
  if (left.empty() || right.empty()) return out;
  // Clusters of one tick are pairwise disjoint, so every object id belongs
  // to at most one right cluster: one oid -> right-cluster-index map turns
  // the all-pairs O(|left|·|right|) set intersections into a single
  // O(total ids) hash join. The ids of a left cluster bucketed by right
  // cluster ARE Intersect(left, right[r]) — and they arrive in the left
  // cluster's sorted order, so each bucket is already a valid ObjectSet.
  size_t total_right_ids = 0;
  for (const ObjectSet& b : right) total_right_ids += b.size();
  std::unordered_map<ObjectId, uint32_t> right_of;
  right_of.reserve(total_right_ids);
  for (uint32_t r = 0; r < right.size(); ++r) {
    for (ObjectId oid : right[r]) right_of.emplace(oid, r);
  }

  std::vector<std::vector<ObjectId>> buckets(right.size());
  std::vector<uint32_t> touched;
  for (const ObjectSet& a : left) {
    touched.clear();
    for (ObjectId oid : a) {
      const auto it = right_of.find(oid);
      if (it == right_of.end()) continue;
      std::vector<ObjectId>& bucket = buckets[it->second];
      if (bucket.empty()) touched.push_back(it->second);
      bucket.push_back(oid);
    }
    for (uint32_t r : touched) {
      std::vector<ObjectId>& bucket = buckets[r];
      if (bucket.size() >= static_cast<size_t>(m)) {
        out.push_back(ObjectSet::FromSorted(std::move(bucket)));
        bucket = {};
      } else {
        bucket.clear();
      }
    }
  }
  // The surviving intersections are pairwise disjoint; canonical order only.
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<ObjectSet>> HwmtSpanning(
    Store* store, const MiningParams& params, Timestamp b_left,
    Timestamp b_right, const std::vector<ObjectSet>& candidates,
    bool binary_order, bool verify_right_benchmark, SnapshotScratch* scratch,
    FcLedger* ledger) {
  std::vector<ObjectSet> surviving = candidates;
  if (surviving.empty()) return surviving;
  std::optional<SnapshotScratch> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch.emplace();

  // Probe order over the window interior (the HWMT of Fig. 4, processed
  // level by level == BinarySubdivisionOrder minus the endpoints).
  std::vector<Timestamp> order;
  if (binary_order) {
    const std::vector<Timestamp> with_endpoints =
        BinarySubdivisionOrder({b_left, b_right});
    order.assign(with_endpoints.begin() + std::min<size_t>(
                                              2, with_endpoints.size()),
                 with_endpoints.end());
  } else {
    for (Timestamp t = b_left + 1; t < b_right; ++t) order.push_back(t);
  }
  if (verify_right_benchmark) order.insert(order.begin(), b_right);

  for (Timestamp t : order) {
    std::vector<ObjectSet> next;
    for (const ObjectSet& candidate : surviving) {
      K2_ASSIGN_OR_RETURN(
          std::vector<ObjectSet> clusters,
          ReCluster(store, t, candidate, params, scratch));
      if (ledger != nullptr && clusters.size() == 1 &&
          clusters[0] == candidate) {
        ledger->Record(candidate, t);
      }
      for (ObjectSet& c : clusters) next.push_back(std::move(c));
    }
    if (next.empty()) return next;  // no spanning convoy in this window
    surviving = std::move(next);
  }
  std::sort(surviving.begin(), surviving.end());
  return surviving;
}

namespace {

void AddEarliest(SpanningConvoyMerger::StartMap* map, ObjectSet set,
                 Timestamp start);

}  // namespace

void SpanningConvoyMerger::AddWindow(Timestamp window_start,
                                     const std::vector<ObjectSet>& spanning,
                                     std::vector<Convoy>* died) {
  StartMap next;
  // Deaths of one window can dominate each other (active entries overlap);
  // deaths of different windows never can, so a per-window maximal set is
  // enough to reproduce the global merge result.
  MaximalConvoySet window_died;
  for (const auto& [set, start] : active_) {
    bool fully_extended = false;
    for (const ObjectSet& s : spanning) {
      ObjectSet x = ObjectSet::Intersect(set, s);
      if (x.size() < static_cast<size_t>(m_)) continue;
      if (x == set) fully_extended = true;
      AddEarliest(&next, std::move(x), start);
    }
    if (!fully_extended) {
      window_died.Insert(Convoy(set, start, window_start));
    }
  }
  for (const ObjectSet& s : spanning) {
    AddEarliest(&next, s, window_start);
  }
  active_ = std::move(next);
  for (Convoy& v : window_died.TakeSorted()) died->push_back(std::move(v));
}

void SpanningConvoyMerger::Finish(Timestamp last_benchmark,
                                  std::vector<Convoy>* died) {
  MaximalConvoySet closing;
  for (auto& [set, start] : active_) {
    closing.Insert(Convoy(set, start, last_benchmark));
  }
  active_.clear();
  for (Convoy& v : closing.TakeSorted()) died->push_back(std::move(v));
}

std::vector<Convoy> MergeSpanningConvoys(
    const std::vector<std::vector<ObjectSet>>& spanning,
    const std::vector<Timestamp>& benchmarks, int m) {
  MaximalConvoySet results;
  SpanningConvoyMerger merger(m);
  std::vector<Convoy> died;
  for (size_t w = 0; w < spanning.size(); ++w) {
    merger.AddWindow(benchmarks[w], spanning[w], &died);
  }
  if (!benchmarks.empty()) merger.Finish(benchmarks.back(), &died);
  for (Convoy& v : died) results.Insert(std::move(v));
  return results.TakeSorted();
}

namespace {

/// Merge/extension bookkeeping: object set -> earliest start seen.
void AddEarliest(SpanningConvoyMerger::StartMap* map, ObjectSet set,
                 Timestamp start) {
  auto [it, inserted] = map->try_emplace(std::move(set), start);
  if (!inserted && start < it->second) it->second = start;
}

}  // namespace

ConvoyExtensionWalk::ConvoyExtensionWalk(const Convoy& seed, int dir)
    : dir_(dir),
      other_side_(dir > 0 ? seed.start : seed.end),
      next_t_(dir > 0 ? int64_t{seed.end} + 1 : int64_t{seed.start} - 1),
      frontier_{seed.objects} {}

Status ConvoyExtensionWalk::Advance(Store* store, const MiningParams& params,
                                    Timestamp upto,
                                    std::vector<Convoy>* completed,
                                    SnapshotScratch* scratch,
                                    FcLedger* ledger) {
  std::optional<SnapshotScratch> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch.emplace();
  while (!frontier_.empty() && (dir_ > 0 ? next_t_ <= upto : next_t_ >= upto)) {
    // In range: next_t_ lies between the seed and `upto`, both int32 ticks.
    const auto t = static_cast<Timestamp>(next_t_);
    std::vector<ObjectSet> next;
    for (ObjectSet& set : frontier_) {
      if (ledger != nullptr && ledger->Proven(set, t)) {
        // Proven FC at t: ReCluster would return exactly {set}.
        next.push_back(std::move(set));
        continue;
      }
      K2_ASSIGN_OR_RETURN(std::vector<ObjectSet> clusters,
                          ReCluster(store, t, set, params, scratch));
      bool found_self = false;
      for (ObjectSet& c : clusters) {
        if (c == set) found_self = true;
        next.push_back(std::move(c));
      }
      if (found_self && ledger != nullptr) ledger->Record(set, t);
      if (!found_self) {
        // The branch could not be extended in its current shape: emit it.
        const Timestamp cur_end = t - dir_;
        completed->push_back(dir_ > 0
                                 ? Convoy(std::move(set), other_side_, cur_end)
                                 : Convoy(std::move(set), cur_end, other_side_));
      }
    }
    // All branches of one walk share other_side_, so deduplication is by
    // object set alone.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier_ = std::move(next);
    next_t_ += dir_;
  }
  return Status::OK();
}

void ConvoyExtensionWalk::Flush(Timestamp limit,
                                std::vector<Convoy>* completed) {
  for (ObjectSet& set : frontier_) {
    completed->push_back(dir_ > 0 ? Convoy(std::move(set), other_side_, limit)
                                  : Convoy(std::move(set), limit, other_side_));
  }
  frontier_.clear();
}

namespace {

/// Shared walker for ExtendRight / ExtendLeft. `dir` = +1 walks toward
/// `limit` on the right, -1 toward the left. Each convoy is walked
/// independently; the shared MaximalConvoySet only deduplicates results.
Result<std::vector<Convoy>> ExtendDirected(Store* store,
                                           const MiningParams& params,
                                           std::vector<Convoy> convoys,
                                           Timestamp limit, int dir,
                                           FcLedger* ledger) {
  MaximalConvoySet results;
  SnapshotScratch scratch;
  std::vector<Convoy> completed;
  for (Convoy& v : convoys) {
    completed.clear();
    ConvoyExtensionWalk walk(v, dir);
    K2_RETURN_NOT_OK(
        walk.Advance(store, params, limit, &completed, &scratch, ledger));
    walk.Flush(limit, &completed);
    for (Convoy& c : completed) results.Insert(std::move(c));
  }
  return results.TakeSorted();
}

}  // namespace

Result<std::vector<Convoy>> ExtendRight(Store* store,
                                        const MiningParams& params,
                                        std::vector<Convoy> convoys,
                                        Timestamp dataset_end,
                                        FcLedger* ledger) {
  return ExtendDirected(store, params, std::move(convoys), dataset_end, +1,
                        ledger);
}

Result<std::vector<Convoy>> ExtendLeft(Store* store, const MiningParams& params,
                                       std::vector<Convoy> convoys,
                                       Timestamp dataset_start,
                                       FcLedger* ledger) {
  return ExtendDirected(store, params, std::move(convoys), dataset_start, -1,
                        ledger);
}

// k2-lint: allow(validate-mining-params): internal pipeline stage — the
// public entries (MineK2Hop, MinePartitionedK2Hop) validate before
// dispatching here, and the DCHECK below restates the contract.
Status MineHopWindows(Store* store, const MiningParams& params,
                      std::span<const Timestamp> benchmarks,
                      const K2HopOptions& options,
                      std::vector<std::vector<ObjectSet>>* spanning,
                      HopWindowPipelineStats* stats, FcLedger* ledger) {
  // Entry-point validation (ValidateMiningParams) happened in the caller;
  // shard drivers reaching this directly must uphold the same contract.
  K2_DCHECK(params.m >= 2 && params.k >= 2);
  HopWindowPipelineStats local_stats;
  HopWindowPipelineStats* s = stats != nullptr ? stats : &local_stats;
  SnapshotScratch scratch;

  // Step 1: cluster the benchmark points.
  Stopwatch sw;
  s->benchmark_points = benchmarks.size();
  std::vector<std::vector<ObjectSet>> benchmark_clusters(benchmarks.size());
  for (size_t i = 0; i < benchmarks.size(); ++i) {
    K2_ASSIGN_OR_RETURN(
        benchmark_clusters[i],
        ClusterSnapshot(store, benchmarks[i], params, &scratch));
  }
  s->phases.Add("benchmark", sw.ElapsedSeconds());

  // Step 2: candidate clusters per hop-window.
  sw.Restart();
  const size_t num_windows =
      benchmarks.empty() ? 0 : benchmarks.size() - 1;
  s->hop_windows = num_windows;
  std::vector<std::vector<ObjectSet>> candidates(num_windows);
  for (size_t w = 0; w < num_windows; ++w) {
    if (options.candidate_pruning) {
      candidates[w] = CandidateClusters(benchmark_clusters[w],
                                        benchmark_clusters[w + 1], params.m);
    } else {
      candidates[w] = benchmark_clusters[w];  // ablation: no intersection
    }
    s->candidate_clusters += candidates[w].size();
    if (!candidates[w].empty()) ++s->hop_windows_mined;
  }
  s->phases.Add("candidates", sw.ElapsedSeconds());

  // Step 3: HWMT inside each window.
  sw.Restart();
  spanning->assign(num_windows, {});
  for (size_t w = 0; w < num_windows; ++w) {
    if (candidates[w].empty()) continue;
    K2_ASSIGN_OR_RETURN(
        (*spanning)[w],
        HwmtSpanning(store, params, benchmarks[w], benchmarks[w + 1],
                     candidates[w], options.hwmt_binary_order,
                     /*verify_right_benchmark=*/!options.candidate_pruning,
                     &scratch, ledger));
    s->spanning_convoys += (*spanning)[w].size();
  }
  s->phases.Add("HWMT", sw.ElapsedSeconds());
  return Status::OK();
}

Result<std::vector<Convoy>> MineK2Hop(Store* store, const MiningParams& params,
                                      const K2HopOptions& options,
                                      K2HopStats* stats) {
  K2_RETURN_NOT_OK(ValidateMiningParams(params));
  PartitionedK2HopMiner miner(store, params, options);
  Result<std::vector<Convoy>> result = miner.Mine();
  if (stats == nullptr) return result;

  // Fig. 8i vocabulary: the shards' pipeline phases summed (CPU time when
  // shards overlap), the seam stitch as "merge", the rest as timed.
  const PartitionedK2HopStats& p = miner.stats();
  *stats = K2HopStats();
  for (const ShardRunStats& run : p.shard_runs) {
    for (const auto& [name, seconds] : run.pipeline.phases.phases()) {
      stats->phases.Add(name, seconds);
    }
    stats->hop_windows_mined += run.pipeline.hop_windows_mined;
    stats->candidate_clusters += run.pipeline.candidate_clusters;
  }
  for (const auto& [name, seconds] : p.phases.phases()) {
    if (name == "stitch") {
      stats->phases.Add("merge", seconds);
    } else if (name != "plan" && name != "shards") {
      stats->phases.Add(name, seconds);
    }
  }
  stats->benchmark_points = p.benchmark_points;
  stats->hop_windows = p.hop_windows;
  stats->spanning_convoys = p.spanning_convoys;
  stats->merged_convoys = p.merged_convoys;
  stats->prevalidation_convoys = p.prevalidation_convoys;
  stats->validation = p.validation;
  stats->io = p.io;
  stats->total_points = p.total_points;
  return result;
}

}  // namespace k2

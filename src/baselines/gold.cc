#include "baselines/gold.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "cluster/dbscan.h"
#include "common/check.h"

namespace k2 {

namespace {

/// Distinct object ids of the dataset, ascending.
std::vector<ObjectId> Universe(const Dataset& dataset) {
  std::vector<ObjectId> ids;
  for (const PointRecord& rec : dataset.records()) ids.push_back(rec.oid);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

ObjectSet MaskToSet(uint32_t mask, const std::vector<ObjectId>& universe) {
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < universe.size(); ++i) {
    if (mask & (1u << i)) ids.push_back(universe[i]);
  }
  return ObjectSet::FromSorted(std::move(ids));
}

/// Per tick: cluster label of every universe member (-1 = unclustered).
struct TickLabels {
  std::vector<int32_t> label;  // indexed by universe position
};

std::vector<TickLabels> FullClusterLabels(const Dataset& dataset,
                                          const std::vector<ObjectId>& universe,
                                          const MiningParams& params,
                                          TimeRange range) {
  std::unordered_map<ObjectId, size_t> position;
  for (size_t i = 0; i < universe.size(); ++i) position[universe[i]] = i;

  std::vector<TickLabels> out(static_cast<size_t>(range.length()));
  std::vector<SnapshotPoint> points;
  DbscanScratch scratch;
  // 64-bit cursor: ++ past a range ending at INT32_MAX must not wrap.
  for (int64_t tick = range.start; tick <= range.end; ++tick) {
    const auto t = static_cast<Timestamp>(tick);
    TickLabels& labels = out[t - range.start];
    labels.label.assign(universe.size(), -1);
    points.clear();
    for (const PointRecord& rec : dataset.Snapshot(t)) {
      points.push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
    }
    const std::vector<ObjectSet> clusters =
        Dbscan(points, params.eps, params.m, &scratch);
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (ObjectId oid : clusters[c]) {
        labels.label[position.at(oid)] = static_cast<int32_t>(c);
      }
    }
  }
  return out;
}

/// Emits the maximal runs of `ok` (indexed by tick offset) as convoys.
void EmitRuns(const std::vector<bool>& ok, const ObjectSet& objects,
              TimeRange range, int k, std::vector<Convoy>* out) {
  size_t i = 0;
  while (i < ok.size()) {
    if (!ok[i]) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j + 1 < ok.size() && ok[j + 1]) ++j;
    const auto len = static_cast<int64_t>(j - i + 1);
    if (len >= k) {
      out->emplace_back(objects, range.start + static_cast<Timestamp>(i),
                        range.start + static_cast<Timestamp>(j));
    }
    i = j + 1;
  }
}

}  // namespace

std::vector<Convoy> GoldMaximalConvoys(const Dataset& dataset,
                                       const MiningParams& params) {
  const std::vector<ObjectId> universe = Universe(dataset);
  K2_CHECK(universe.size() <= kGoldMaxObjects);
  const TimeRange range = dataset.time_range();
  if (range.empty()) return {};
  const auto labels = FullClusterLabels(dataset, universe, params, range);

  std::vector<Convoy> found;
  const uint32_t limit = 1u << universe.size();
  std::vector<bool> ok(static_cast<size_t>(range.length()));
  for (uint32_t mask = 0; mask < limit; ++mask) {
    if (std::popcount(mask) < params.m) continue;
    // ok[t] := all members present and sharing one cluster at t.
    for (size_t ti = 0; ti < ok.size(); ++ti) {
      const TickLabels& tick = labels[ti];
      int32_t shared = -2;  // -2 = unset
      bool good = true;
      for (size_t i = 0; i < universe.size() && good; ++i) {
        if (!(mask & (1u << i))) continue;
        const int32_t label = tick.label[i];
        if (label < 0) {
          good = false;
        } else if (shared == -2) {
          shared = label;
        } else if (label != shared) {
          good = false;
        }
      }
      ok[ti] = good;
    }
    EmitRuns(ok, MaskToSet(mask, universe), range, params.k, &found);
  }
  return FilterMaximal(std::move(found));
}

std::vector<Convoy> GoldFullyConnectedConvoys(const Dataset& dataset,
                                              const MiningParams& params) {
  const std::vector<ObjectId> universe = Universe(dataset);
  K2_CHECK(universe.size() <= kGoldMaxObjects);
  const TimeRange range = dataset.time_range();
  if (range.empty()) return {};
  const auto labels = FullClusterLabels(dataset, universe, params, range);

  std::vector<Convoy> found;
  const uint32_t limit = 1u << universe.size();
  std::vector<bool> ok(static_cast<size_t>(range.length()));
  std::vector<SnapshotPoint> subset_points;
  DbscanScratch scratch;
  for (uint32_t mask = 0; mask < limit; ++mask) {
    if (std::popcount(mask) < params.m) continue;
    const ObjectSet objects = MaskToSet(mask, universe);
    for (size_t ti = 0; ti < ok.size(); ++ti) {
      // Cheap necessary condition first: FC together implies together in
      // the full clustering.
      const TickLabels& tick = labels[ti];
      int32_t shared = -2;
      bool together = true;
      for (size_t i = 0; i < universe.size() && together; ++i) {
        if (!(mask & (1u << i))) continue;
        const int32_t label = tick.label[i];
        if (label < 0 || (shared != -2 && label != shared)) together = false;
        shared = label;
      }
      if (!together) {
        ok[ti] = false;
        continue;
      }
      // Definition check: DB[t]|O must cluster to exactly {O}.
      const Timestamp t = range.start + static_cast<Timestamp>(ti);
      subset_points.clear();
      for (const PointRecord& rec : dataset.Snapshot(t)) {
        if (objects.Contains(rec.oid)) {
          subset_points.push_back(SnapshotPoint{rec.oid, rec.x, rec.y});
        }
      }
      const std::vector<ObjectSet> clusters =
          Dbscan(subset_points, params.eps, params.m, &scratch);
      ok[ti] = clusters.size() == 1 && clusters[0] == objects;
    }
    EmitRuns(ok, objects, range, params.k, &found);
  }
  return FilterMaximal(std::move(found));
}

}  // namespace k2

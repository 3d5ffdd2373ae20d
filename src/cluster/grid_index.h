// Uniform-grid spatial index over one snapshot. With cell size = eps, the
// eps-neighbourhood of a point is contained in the 3x3 block of cells around
// it, so DBSCAN's region queries run in expected O(1) per point instead of
// the O(n) scan that the paper identifies as the bottleneck of the baselines.
//
// Layout: flat sorted CSR over the snapshot's bounding box. Points are
// counting-sorted into cells (`cell_starts_` / `point_ids_`), cells are
// row-major with x as the minor dimension, and coordinates are kept as
// structure-of-arrays (`xs_` / `ys_`) in CSR order. A region query scans
// three contiguous row segments — no hashing, no per-cell vectors, and the
// inner distance loop vectorizes.
#ifndef K2_CLUSTER_GRID_INDEX_H_
#define K2_CLUSTER_GRID_INDEX_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace k2 {

class GridIndex {
 public:
  /// An empty index; call Build() before querying.
  GridIndex() = default;

  /// Indexes `points` with square cells of side >= `cell_size` (> 0).
  GridIndex(std::span<const SnapshotPoint> points, double cell_size) {
    Build(points, cell_size);
  }

  /// (Re)indexes `points`, reusing previously allocated buffers — rebuilding
  /// the same GridIndex across snapshots is allocation-free in steady state.
  /// The effective cell size is grown above `cell_size` when the bounding
  /// box would otherwise shatter into more than ~4x|points| cells, which
  /// keeps memory linear for any eps; queries stay correct for any
  /// `eps` <= the requested `cell_size`.
  void Build(std::span<const SnapshotPoint> points, double cell_size);

  /// Appends to `out` the indices of all points within `eps` of point `i`
  /// (including `i` itself), matching NH(p, eps) of paper Sec. 3.1.
  ///
  /// Contract: `eps` must be <= the cell size requested at Build() — the
  /// query scans only the 3x3 cell block around the point, so a larger eps
  /// silently drops neighbors beyond that block. Enforced with a debug
  /// CHECK (K2_DCHECK) here and in NeighborsOf; release builds trust the
  /// caller. Use Region() for radius-independent rectangle queries.
  void Neighbors(size_t i, double eps, std::vector<uint32_t>* out) const {
    NeighborsOf(px_[i], py_[i], eps, out);
  }

  /// Same query for an arbitrary location. Same `eps` contract as
  /// Neighbors(): debug-CHECKed against the Build() cell size.
  void NeighborsOf(double x, double y, double eps,
                   std::vector<uint32_t>* out) const;

  /// Batched Neighbors(): for each point index in `queries`, appends its
  /// eps-neighborhood to `flat`; on return, query q's neighbors occupy
  /// `[(*offsets)[q], (*offsets)[q + 1])` of `flat`. Both outputs are
  /// overwritten (not appended to). Byte-identical to calling Neighbors()
  /// per query — this exists so DBSCAN can fill a whole seed queue's
  /// neighbor lists in one pass: consecutive seeds come from one
  /// neighborhood, so the row segments they scan stay cache-hot across the
  /// batch. Same `eps` contract as Neighbors().
  void NeighborsBatch(std::span<const uint32_t> queries, double eps,
                      std::vector<uint32_t>* flat,
                      std::vector<uint32_t>* offsets) const;

  /// Appends to `out` the indices of all points inside `rect` (inclusive
  /// bounds), in CSR scan order (row-major by cell, snapshot order within a
  /// cell). Exact for any cell size — the rect test is applied per point —
  /// so the eps the grid was built for does not constrain region queries
  /// (the serving layer's footprint index relies on this).
  void Region(const Rect& rect, std::vector<uint32_t>* out) const;

  size_t num_points() const { return px_.size(); }
  /// Number of non-empty cells.
  size_t num_cells() const { return num_occupied_cells_; }

 private:
  // Cell coordinate of `v` on an axis whose minimum is 2 * `half_min`, in
  // floating point so that a far-away query cannot overflow a cast. Every
  // offset is taken at half scale, v/2 - min/2, which stays finite for any
  // finite coordinates (v - min overflows once points span more than
  // DBL_MAX); halving is exact, so for any smaller span the cell equals
  // floor((v - min) / cell).
  double CellCoord(double v, double half_min) const {
    return std::floor((v * 0.5 - half_min) * inv_half_cell_);
  }
  int64_t CellX(double x) const {
    return static_cast<int64_t>(CellCoord(x, half_min_x_));
  }
  int64_t CellY(double y) const {
    return static_cast<int64_t>(CellCoord(y, half_min_y_));
  }

  // Grid geometry: half the bounding box's minimum corner, and
  // inv_half_cell_ = 2 / effective cell size. requested_cell_ is the cell
  // size the caller asked Build() for (the effective size only grows above
  // it), kept to debug-CHECK the eps query contract.
  double half_min_x_ = 0.0, half_min_y_ = 0.0;
  double inv_half_cell_ = 0.0;
  double requested_cell_ = 0.0;
  int64_t nx_ = 0, ny_ = 0;
  size_t num_occupied_cells_ = 0;

  // CSR: points of cell c occupy [cell_starts_[c], cell_starts_[c + 1]) of
  // point_ids_ / xs_ / ys_. point_ids_ holds the original point indices;
  // xs_ / ys_ their coordinates, so the distance scan never touches the
  // input array.
  std::vector<uint32_t> cell_starts_;  // nx_ * ny_ + 1 entries
  std::vector<uint32_t> point_ids_;
  std::vector<double> xs_, ys_;

  // Input coordinates in original order, for Neighbors(i, ...).
  std::vector<double> px_, py_;

  // Build-time scratch, kept to make rebuilds allocation-free.
  std::vector<uint32_t> cell_of_;
};

}  // namespace k2

#endif  // K2_CLUSTER_GRID_INDEX_H_

// Unit tests for the clustering substrate: grid index region queries and
// DBSCAN semantics ((m,eps)-clusters of paper Def. 2).
#include <gtest/gtest.h>

#include "cluster/dbscan.h"
#include "cluster/grid_index.h"
#include "common/object_set.h"
#include "common/rng.h"

namespace k2 {
namespace {

std::vector<SnapshotPoint> Points1D(const std::vector<double>& xs) {
  std::vector<SnapshotPoint> pts;
  for (size_t i = 0; i < xs.size(); ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i), xs[i], 0.0});
  }
  return pts;
}

// ---------------------------------------------------------------------------
// GridIndex
// ---------------------------------------------------------------------------

TEST(GridIndexTest, FindsNeighborsIncludingSelf) {
  const auto pts = Points1D({0.0, 0.5, 3.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

TEST(GridIndexTest, EpsBoundaryIsInclusive) {
  const auto pts = Points1D({0.0, 1.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(GridIndexTest, NegativeCoordinates) {
  std::vector<SnapshotPoint> pts{{0, -0.4, -0.4}, {1, 0.4, 0.4}, {2, -5, -5}};
  GridIndex index(pts, 2.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 2.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

TEST(GridIndexTest, NeighborsOfArbitraryLocation) {
  const auto pts = Points1D({0.0, 10.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.NeighborsOf(9.5, 0.0, 1.0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1}));
}

std::vector<uint32_t> BruteForceNeighborsOf(
    const std::vector<SnapshotPoint>& pts, double x, double y, double eps) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < pts.size(); ++j) {
    const double dx = pts[j].x - x;
    const double dy = pts[j].y - y;
    if (dx * dx + dy * dy <= eps * eps) {
      out.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

// Property test for the CSR layout: region queries must match brute force
// over random point sets, eps values, and query locations — including a
// reused (rebuilt) index and an eps far below the coordinate spread, which
// exercises the cell cap.
TEST(GridIndexTest, RandomizedMatchesBruteForce) {
  GridIndex reused;  // rebuilt every round: exercises buffer reuse
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.NextInt(250);
    const double spread = rng.Uniform(1.0, 2000.0);
    std::vector<SnapshotPoint> pts;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                  rng.Uniform(-spread, spread),
                                  rng.Uniform(-spread, spread)});
    }
    const double eps_choices[] = {0.001, 0.9, 7.5, spread / 3.0, 3 * spread};
    const double eps = eps_choices[rng.NextInt(5)];
    reused.Build(pts, eps);
    EXPECT_EQ(reused.num_points(), n);

    for (size_t i = 0; i < std::min<size_t>(n, 40); ++i) {
      std::vector<uint32_t> got;
      reused.Neighbors(i, eps, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteForceNeighborsOf(pts, pts[i].x, pts[i].y, eps))
          << "seed=" << seed << " i=" << i << " eps=" << eps;
    }
    // Arbitrary query locations, including far outside the bounding box.
    for (int q = 0; q < 10; ++q) {
      const double x = rng.Uniform(-3 * spread, 3 * spread);
      const double y = rng.Uniform(-3 * spread, 3 * spread);
      std::vector<uint32_t> got;
      reused.NeighborsOf(x, y, eps, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteForceNeighborsOf(pts, x, y, eps))
          << "seed=" << seed << " query=(" << x << "," << y << ")";
    }
  }
}

std::vector<uint32_t> BruteForceRegion(const std::vector<SnapshotPoint>& pts,
                                       const Rect& rect) {
  std::vector<uint32_t> out;
  for (size_t j = 0; j < pts.size(); ++j) {
    if (rect.Contains(pts[j].x, pts[j].y)) {
      out.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

TEST(GridIndexTest, RegionBoundsAreInclusive) {
  const auto pts = Points1D({0.0, 1.0, 2.0, 3.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Region(Rect{1.0, 0.0, 2.0, 0.0}, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));
}

TEST(GridIndexTest, RegionFarOutsideBoundingBoxIsEmpty) {
  const auto pts = Points1D({0.0, 1.0});
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Region(Rect{1e12, 1e12, 2e12, 2e12}, &out);
  EXPECT_TRUE(out.empty());
  index.Region(Rect{-2e12, -2e12, -1e12, -1e12}, &out);
  EXPECT_TRUE(out.empty());
  index.Region(Rect{}, &out);  // default rect is empty
  EXPECT_TRUE(out.empty());
}

TEST(GridIndexTest, RandomizedRegionMatchesBruteForce) {
  GridIndex reused;
  for (uint64_t seed = 100; seed <= 115; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.NextInt(250);
    const double spread = rng.Uniform(1.0, 2000.0);
    std::vector<SnapshotPoint> pts;
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                  rng.Uniform(-spread, spread),
                                  rng.Uniform(-spread, spread)});
    }
    // The cell size the grid was built for must not matter for Region.
    reused.Build(pts, rng.Uniform(0.001, spread));
    for (int q = 0; q < 25; ++q) {
      const double x0 = rng.Uniform(-2 * spread, 2 * spread);
      const double y0 = rng.Uniform(-2 * spread, 2 * spread);
      const Rect rect{x0, y0, x0 + rng.Uniform(0.0, 2 * spread),
                      y0 + rng.Uniform(0.0, 2 * spread)};
      std::vector<uint32_t> got;
      reused.Region(rect, &got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteForceRegion(pts, rect))
          << "seed=" << seed << " rect=[" << rect.min_x << "," << rect.min_y
          << "," << rect.max_x << "," << rect.max_y << "]";
    }
  }
}

TEST(GridIndexTest, TinyEpsOnWideSpreadStaysLinear) {
  // 100 points spread over kilometres with eps in millimetres: the cell cap
  // must keep the grid small instead of allocating a bounding-box grid with
  // billions of cells.
  std::vector<SnapshotPoint> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i), i * 1000.0,
                                (i % 10) * 2000.0});
  }
  pts.push_back(SnapshotPoint{100, 0.0, 0.0});  // duplicate of point 0
  GridIndex index(pts, 1e-3);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1e-3, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 100}));
}

TEST(GridIndexTest, DiagonalCellsCovered) {
  // Two points in diagonal cells, within eps of each other.
  std::vector<SnapshotPoint> pts{{0, 0.95, 0.95}, {1, 1.05, 1.05}};
  GridIndex index(pts, 1.0);
  std::vector<uint32_t> out;
  index.Neighbors(0, 1.0, &out);
  EXPECT_EQ(out.size(), 2u);
}

// Points at x = -1.7e308 and 1.7e308 are finite — every reader and Append
// accepts them — but their span overflows to inf. The grid sizes its cells
// from half spans, so it stays small and its queries exact; it used to end
// with an infinite cell and throw std::length_error from Build.
TEST(GridIndexTest, SpanBeyondDblMaxStaysSmallAndExact) {
  const std::vector<SnapshotPoint> pts{{0, -1.7e308, 0.0}, {1, 1.7e308, 0.0},
                                       {2, 0.0, -1.7e308}, {3, 0.5, 0.5},
                                       {4, 1.0, 0.5},      {5, 1.7e308, 0.5}};
  GridIndex index(pts, 1.0);
  EXPECT_LE(index.num_cells(), pts.size());
  std::vector<uint32_t> out;
  index.Neighbors(3, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 4}));
  out.clear();
  index.Neighbors(1, 1.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 5}));
  out.clear();
  index.Region(Rect{-1.0, -1.0, 1.7e308, 1.0}, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

TEST(DbscanTest, EmptyInput) {
  EXPECT_TRUE(Dbscan({}, 1.0, 2).empty());
}

TEST(DbscanTest, SingleGroupClusters) {
  const auto pts = Points1D({0.0, 0.8, 1.6});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1, 2}));
}

TEST(DbscanTest, TwoSeparatedGroups) {
  const auto pts = Points1D({0.0, 0.5, 100.0, 100.5});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], ObjectSet::Of({0, 1}));
  EXPECT_EQ(clusters[1], ObjectSet::Of({2, 3}));
}

TEST(DbscanTest, ChainConnectivity) {
  // A chain where only consecutive points are within eps: density-connected
  // into one cluster when every point is core.
  const auto pts = Points1D({0.0, 0.9, 1.8, 2.7, 3.6});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 5u);
}

TEST(DbscanTest, MinPtsCountsSelf) {
  // |NH(p, eps)| >= m includes p itself (Sec. 3.1): two mutual neighbours
  // with m = 2 are both core.
  const auto pts = Points1D({0.0, 0.5});
  EXPECT_EQ(Dbscan(pts, 1.0, 2).size(), 1u);
  // With m = 3, no core points -> no clusters.
  EXPECT_TRUE(Dbscan(pts, 1.0, 3).empty());
}

TEST(DbscanTest, NoisePointsExcluded) {
  const auto pts = Points1D({0.0, 0.5, 50.0});
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_FALSE(clusters[0].Contains(2));
}

TEST(DbscanTest, BorderPointJoinsCluster) {
  // m = 3: points at 0, 0.5, 1.0 make 0.5 core; 1.4 is border (within eps
  // of the core at 1.0 only after expansion).
  const auto pts = Points1D({0.0, 0.5, 1.0, 1.9});
  const auto clusters = Dbscan(pts, 1.0, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_TRUE(clusters[0].Contains(3));  // border point included
}

TEST(DbscanTest, DuplicatePositionsCluster) {
  std::vector<SnapshotPoint> pts{{0, 5, 5}, {1, 5, 5}, {2, 5, 5}};
  const auto clusters = Dbscan(pts, 0.5, 3);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(DbscanTest, SubsetRestrictsClustering) {
  // Objects 0,1,2 are chained through 1; removing 1 disconnects them.
  const auto pts = Points1D({0.0, 0.9, 1.8});
  const auto all = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(all.size(), 1u);
  const auto sub = DbscanSubset(pts, ObjectSet::Of({0, 2}), 1.0, 2);
  EXPECT_TRUE(sub.empty());  // 0 and 2 are 1.8 apart
}

TEST(DbscanTest, LabelledOutputConsistentWithClusters) {
  const auto pts = Points1D({0.0, 0.5, 10.0, 10.5, 50.0});
  const DbscanLabels labels = DbscanLabelled(pts, 1.0, 2);
  EXPECT_EQ(labels.num_clusters, 2);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_EQ(labels.label[2], labels.label[3]);
  EXPECT_NE(labels.label[0], labels.label[2]);
  EXPECT_EQ(labels.label[4], -1);  // noise
}

TEST(DbscanTest, ClustersAreDisjoint) {
  // Randomish blob: every object must appear in at most one cluster.
  std::vector<SnapshotPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(SnapshotPoint{static_cast<ObjectId>(i),
                                (i * 37 % 19) * 0.7, (i * 53 % 23) * 0.7});
  }
  const auto clusters = Dbscan(pts, 1.0, 3);
  std::vector<ObjectId> seen;
  for (const auto& c : clusters) {
    for (ObjectId oid : c) seen.push_back(oid);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DbscanTest, LargeEpsMergesEverything) {
  const auto pts = Points1D({0.0, 3.0, 6.0, 9.0});
  const auto clusters = Dbscan(pts, 100.0, 2);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 4u);
}

TEST(DbscanTest, ExtremeButFiniteCoordinatesCluster) {
  // Three chains of 12 points (36 > the brute-force cutoff, so the grid
  // runs): at each end of the double range and at the origin.
  const double xs[] = {-1.7e308, 0.0, 1.7e308};
  std::vector<SnapshotPoint> pts;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 12; ++i) {
      pts.push_back(SnapshotPoint{static_cast<ObjectId>(pts.size()), xs[g],
                                  0.5 * i});
    }
  }
  const auto clusters = Dbscan(pts, 1.0, 2);
  ASSERT_EQ(clusters.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    std::vector<ObjectId> ids;
    for (int i = 0; i < 12; ++i) ids.push_back(static_cast<ObjectId>(12 * g + i));
    EXPECT_EQ(clusters[g], ObjectSet(std::move(ids))) << "group " << g;
  }
}

}  // namespace
}  // namespace k2

// Per-layer attribution measured from outside the program, through its
// public seams only:
//
//   TracingStore      forwards every Store virtual to the store under test
//                     and times ScanTimestamp / GetPoints ("storage");
//   TracingClusterer  forwards every SnapshotClusterer virtual to the
//                     default clusterer and times Cluster / ReCluster
//                     ("cluster"); installed through MiningParams::clusterer.
//
// Trucks makes ~1.4M point reads per mining run, so no span is recorded per
// call: each thread adds count, busy nanoseconds and items to its own
// counter slot, and Fold() sums the slots once the traced call has returned
// (every miner joins its pool before returning).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "common/mutex.h"
#include "storage/store.h"

namespace perfbench {

/// Call counters of one thread (or, after Fold, of all threads).
struct LayerCounts {
  uint64_t scan_calls = 0, scan_ns = 0, scan_points = 0;
  uint64_t get_calls = 0, get_ns = 0, get_objects = 0, get_points = 0;
  uint64_t full_calls = 0, full_ns = 0;
  uint64_t re_calls = 0, re_ns = 0, re_objects = 0, re_kept = 0;

  void Add(const LayerCounts& o);
  /// The deterministic part (counts and items, no times).
  bool SameCounts(const LayerCounts& o) const;
};

/// Process-wide registry of per-thread counter slots. A slot is written
/// only by its thread; Fold/Reset must run while no traced call is active.
class LayerCounters {
 public:
  static LayerCounters& Get();
  LayerCounts& Local();
  LayerCounts Fold() const;
  void Reset();

 private:
  struct alignas(64) Slot {
    LayerCounts counts;
  };
  mutable k2::Mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_ K2_GUARDED_BY(mu_);
};

/// Forwarding Store decorator. After every forwarded call it copies the
/// inner store's IoStats into its own, because the miners read the
/// non-virtual io_stats() of the pointer they were handed. The copy is only
/// as fresh as the last forwarded call, so make one decorator per traced
/// run rather than keeping it across direct use of the inner store.
class TracingStore final : public k2::Store {
 public:
  /// Borrows `inner`, which must outlive the decorator.
  explicit TracingStore(k2::Store* inner);
  /// Owns `inner` (a read snapshot handed out by CreateReadSnapshot).
  explicit TracingStore(std::unique_ptr<k2::Store> inner);

  std::string name() const override { return inner_->name(); }
  k2::Status BulkLoad(const k2::Dataset& dataset) override;
  k2::Status Append(k2::Timestamp t,
                    const std::vector<k2::SnapshotPoint>& points) override;
  k2::Status ScanTimestamp(k2::Timestamp t,
                           std::vector<k2::SnapshotPoint>* out) override;
  k2::Status GetPoints(k2::Timestamp t, const k2::ObjectSet& objects,
                       std::vector<k2::SnapshotPoint>* out) override;
  k2::TimeRange time_range() const override { return inner_->time_range(); }
  const std::vector<k2::Timestamp>& timestamps() const override {
    return inner_->timestamps();
  }
  uint64_t num_points() const override { return inner_->num_points(); }
  /// Wraps the inner engine's own snapshot handle, so each reader keeps its
  /// lock-free native read path (the base-class fallback would serialize
  /// the shards on one mutex and measure a different program).
  k2::Result<std::unique_ptr<k2::Store>> CreateReadSnapshot() override;

 private:
  void SyncIoStats() { io_stats_ = inner_->io_stats(); }

  std::unique_ptr<k2::Store> owned_;
  k2::Store* inner_;
};

/// Forwarding SnapshotClusterer decorator. Stateless apart from the
/// per-thread counters, so it is safe to call from pool threads.
class TracingClusterer final : public k2::SnapshotClusterer {
 public:
  explicit TracingClusterer(const k2::SnapshotClusterer* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  k2::Status ValidateParams(const k2::MiningParams& params) const override {
    return inner_->ValidateParams(params);
  }
  k2::Result<std::vector<k2::ObjectSet>> Cluster(
      k2::Store* store, k2::Timestamp t, const k2::MiningParams& params,
      k2::SnapshotScratch* scratch, k2::Mutex* store_mu) const override;
  k2::Result<std::vector<k2::ObjectSet>> ReCluster(
      k2::Store* store, k2::Timestamp t, const k2::ObjectSet& objects,
      const k2::MiningParams& params, k2::SnapshotScratch* scratch,
      k2::Mutex* store_mu) const override;

 private:
  const k2::SnapshotClusterer* inner_;
};

/// Spans at two levels only: the workload and each driver call. Kept in
/// memory and written out as Chrome trace events when the run ends.
class SpanLog {
 public:
  SpanLog();
  /// Opens a span; `parent` is the id of the enclosing span or -1.
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  /// Writes {"traceEvents": [...]} to `path`; returns false on IO error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  int64_t origin_ns_;
  std::vector<Span> spans_;
};

/// steady_clock in nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

#include "core/online.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace k2 {

std::string OnlineK2HopStats::DebugString() const {
  std::ostringstream os;
  os << "OnlineK2HopStats{ticks=" << ticks_ingested
     << ", points=" << points_ingested << ", benchmarks=" << benchmark_points
     << ", windows=" << hop_windows << " (mined " << hop_windows_mined << ")"
     << ", candidate_clusters=" << candidate_clusters
     << ", spanning=" << spanning_convoys << ", merged=" << merged_convoys
     << ", walks=" << walks_started << " (peak open " << open_walks_peak << ")"
     << ", closed=" << closed_convoys << ", open=" << open_convoys
     << ", points_processed=" << points_processed() << "/" << total_points
     << " (pruned " << pruning_ratio() * 100.0 << "%)"
     << ", append_latency{" << append_latency.DebugString() << "}}";
  return os.str();
}

OnlineK2HopMiner::OnlineK2HopMiner(Store* store, const MiningParams& params,
                                   OnlineK2HopOptions options)
    : store_(store),
      params_(params),
      options_(std::move(options)),
      hop_(std::max(1, params.k / 2)),
      merger_(params.m) {
  if (Status valid = ValidateMiningParams(params_); !valid.ok()) {
    status_ = std::move(valid);
  } else if (store_->num_points() != 0) {
    status_ = Status::Invalid(
        "OnlineK2HopMiner requires an empty store; route all data through "
        "AppendTick");
  }
}

Status OnlineK2HopMiner::Mined(const char* phase,
                               const std::function<Status()>& fn) {
  Stopwatch sw;
  const IoStats before = store_->io_stats();
  Status s = fn();
  stats_.phases.Add(phase, sw.ElapsedSeconds());
  stats_.mining_io.Accumulate(IoStats::Delta(store_->io_stats(), before));
  return s;
}

Status OnlineK2HopMiner::AppendTick(Timestamp t,
                                    std::vector<SnapshotPoint> points) {
  K2_RETURN_NOT_OK(status_);
  if (finalized()) {
    return Status::Invalid("AppendTick after Finalize");
  }
  // ticks_ingested, not the frontier, tells whether a tick arrived yet:
  // kInvalidTimestamp (INT32_MIN) is itself a valid first tick.
  const bool first_tick = stats_.ticks_ingested == 0;
  if (!first_tick && t <= frontier_) {
    return Status::Invalid("AppendTick out of order: tick " +
                           std::to_string(t) + " is not past the frontier " +
                           std::to_string(frontier_));
  }
  Stopwatch tick_sw;
  std::stable_sort(points.begin(), points.end(),
                   [](const SnapshotPoint& a, const SnapshotPoint& b) {
                     return a.oid < b.oid;
                   });
  points.erase(std::unique(points.begin(), points.end(),
                           [](const SnapshotPoint& a, const SnapshotPoint& b) {
                             return a.oid == b.oid;
                           }),
               points.end());
  if (points.empty()) {
    // A tick nobody reported at is not part of the dataset (it neither
    // advances the frontier nor ends up in the store); batch mining over
    // the final data treats it exactly like a gap.
    ++stats_.empty_ticks;
    return Status::OK();
  }
  {
    Stopwatch sw;
    const IoStats before = store_->io_stats();
    Status append_status = store_->Append(t, points);
    stats_.phases.Add("ingest", sw.ElapsedSeconds());
    stats_.ingest_io.Accumulate(IoStats::Delta(store_->io_stats(), before));
    if (!append_status.ok()) {
      // Precondition failures leave the store untouched and are retryable;
      // anything else may have mutated state mid-way and poisons the miner.
      if (append_status.code() != StatusCode::kInvalid) {
        status_ = append_status;
      }
      return append_status;
    }
  }
  if (first_tick) {
    start_ = t;
    next_benchmark_ = t;
  }
  frontier_ = t;
  ++stats_.ticks_ingested;
  stats_.points_ingested += points.size();
  status_ = Drain();
  const double elapsed = tick_sw.ElapsedSeconds();
  stats_.append_latency.Add(elapsed);
  stats_.append_percentiles.Add(elapsed);
  return status_;
}

Status OnlineK2HopMiner::Drain() {
  // Every tick <= frontier_ is final (appends are strictly increasing), so
  // all benchmark points the frontier has passed can be clustered and their
  // hop-windows mined now.
  while (next_benchmark_ <= frontier_) {
    K2_RETURN_NOT_OK(ProcessBenchmark(static_cast<Timestamp>(next_benchmark_)));
    next_benchmark_ += hop_;
  }
  return AdvanceWalks(frontier_);
}

Status OnlineK2HopMiner::ProcessBenchmark(Timestamp b) {
  // Benchmarks land on the arithmetic grid start + i*hop whether or not the
  // tick carries data — an empty snapshot clusters to nothing, exactly as
  // in the batch miner.
  std::vector<ObjectSet> clusters;
  K2_RETURN_NOT_OK(Mined("benchmark", [&]() -> Status {
    auto result = ClusterSnapshot(store_, b, params_, &scratch_);
    K2_RETURN_NOT_OK(result.status());
    clusters = result.MoveValue();
    return Status::OK();
  }));
  ++stats_.benchmark_points;
  if (have_prev_benchmark_) {
    K2_RETURN_NOT_OK(
        CloseWindow(prev_benchmark_, b, prev_benchmark_clusters_, clusters));
  }
  prev_benchmark_clusters_ = std::move(clusters);
  prev_benchmark_ = b;
  have_prev_benchmark_ = true;
  last_benchmark_ = b;
  return Status::OK();
}

Status OnlineK2HopMiner::CloseWindow(Timestamp b_left, Timestamp b_right,
                                     const std::vector<ObjectSet>& left,
                                     const std::vector<ObjectSet>& right) {
  ++stats_.hop_windows;
  std::vector<ObjectSet> candidates;
  {
    Stopwatch sw;
    candidates = options_.candidate_pruning
                     ? CandidateClusters(left, right, params_.m)
                     : left;  // ablation: feed benchmark clusters directly
    stats_.phases.Add("candidates", sw.ElapsedSeconds());
  }
  stats_.candidate_clusters += candidates.size();
  std::vector<ObjectSet> spanning;
  if (!candidates.empty()) {
    ++stats_.hop_windows_mined;
    K2_RETURN_NOT_OK(Mined("HWMT", [&]() -> Status {
      auto result = HwmtSpanning(
          store_, params_, b_left, b_right, candidates,
          options_.hwmt_binary_order,
          /*verify_right_benchmark=*/!options_.candidate_pruning, &scratch_);
      K2_RETURN_NOT_OK(result.status());
      spanning = result.MoveValue();
      return Status::OK();
    }));
  }
  stats_.spanning_convoys += spanning.size();
  std::vector<Convoy> died;
  {
    Stopwatch sw;
    merger_.AddWindow(b_left, spanning, &died);
    stats_.phases.Add("merge", sw.ElapsedSeconds());
  }
  stats_.merged_convoys += died.size();
  for (Convoy& v : died) {
    ++stats_.walks_started;
    walks_.emplace_back(v, +1);
  }
  return Status::OK();
}

Status OnlineK2HopMiner::AdvanceWalks(Timestamp upto) {
  if (walks_.empty()) return Status::OK();
  std::vector<Convoy> completed;
  K2_RETURN_NOT_OK(Mined("extend-right", [&]() -> Status {
    size_t keep = 0;
    for (size_t i = 0; i < walks_.size(); ++i) {
      K2_RETURN_NOT_OK(
          walks_[i].Advance(store_, params_, upto, &completed, &scratch_));
      if (!walks_[i].done()) {
        if (keep != i) walks_[keep] = std::move(walks_[i]);
        ++keep;
      }
    }
    walks_.erase(walks_.begin() + static_cast<ptrdiff_t>(keep), walks_.end());
    return Status::OK();
  }));
  stats_.open_walks_peak = std::max(stats_.open_walks_peak, walks_.size());
  for (Convoy& c : completed) {
    K2_RETURN_NOT_OK(OnRightResult(std::move(c)));
  }
  return Status::OK();
}

Status OnlineK2HopMiner::OnRightResult(Convoy r) {
  if (!right_seen_.insert(r).second) return Status::OK();
  // During Finalize the eager channel stays quiet: everything left is
  // either an open convoy or resolved by the barriers right after.
  if (!options_.eager || finalizing_) return Status::OK();
  K2_ASSIGN_OR_RETURN(const std::vector<Convoy>* lefts, LeftPieces(r));
  for (const Convoy& f : *lefts) {
    if (f.length() < params_.k) continue;
    if (!options_.validate) {
      Emit(f);
      continue;
    }
    K2_ASSIGN_OR_RETURN(const std::vector<Convoy>* pieces, ValidatedPieces(f));
    for (const Convoy& p : *pieces) Emit(p);
  }
  return Status::OK();
}

void OnlineK2HopMiner::Emit(const Convoy& closed) {
  if (!emitted_.insert(closed).second) return;
  closed_.push_back(closed);
  ++stats_.closed_convoys;
  if (options_.on_closed) options_.on_closed(closed);
}

Result<const std::vector<Convoy>*> OnlineK2HopMiner::LeftPieces(
    const Convoy& r) {
  auto it = left_cache_.find(r);
  if (it != left_cache_.end()) return &it->second;
  // Every tick left of r.start is final, so the walk result can never
  // change — compute once, reuse at the Finalize barrier.
  std::vector<Convoy> pieces;
  K2_RETURN_NOT_OK(Mined("extend-left", [&]() -> Status {
    auto result = ExtendLeft(store_, params_, {r}, start_);
    K2_RETURN_NOT_OK(result.status());
    pieces = result.MoveValue();
    return Status::OK();
  }));
  it = left_cache_.emplace(r, std::move(pieces)).first;
  return &it->second;
}

Result<const std::vector<Convoy>*> OnlineK2HopMiner::ValidatedPieces(
    const Convoy& f) {
  auto it = validate_cache_.find(f);
  if (it != validate_cache_.end()) return &it->second;
  std::vector<Convoy> pieces;
  K2_RETURN_NOT_OK(Mined("validation", [&]() -> Status {
    ValidationStats vs;
    auto result = ValidateFullyConnected(store_, {f}, params_,
                                         /*recursive=*/true, &vs);
    K2_RETURN_NOT_OK(result.status());
    pieces = result.MoveValue();
    stats_.validation.Accumulate(vs);
    return Status::OK();
  }));
  it = validate_cache_.emplace(f, std::move(pieces)).first;
  return &it->second;
}

Result<std::vector<Convoy>> OnlineK2HopMiner::Finalize() {
  if (final_result_.has_value()) return *final_result_;
  K2_RETURN_NOT_OK(status_);
  finalizing_ = true;
  stats_.total_points = store_->num_points();
  const TimeRange range{start_, frontier_};
  if (stats_.ticks_ingested == 0 || range.length() < params_.k) {
    final_result_.emplace();
    return *final_result_;
  }

  auto fail = [&](Status s) {
    status_ = std::move(s);
    return status_;
  };

  // 1. Flush the merge at the final benchmark point; the still-active
  //    spanning convoys become right-extension seeds like any other death.
  std::vector<Convoy> died;
  {
    Stopwatch sw;
    merger_.Finish(last_benchmark_, &died);
    stats_.phases.Add("merge", sw.ElapsedSeconds());
  }
  stats_.merged_convoys += died.size();
  for (Convoy& v : died) {
    ++stats_.walks_started;
    walks_.emplace_back(v, +1);
  }
  Status s = AdvanceWalks(frontier_);
  if (!s.ok()) return fail(std::move(s));

  // 2. Branches that survived to the frontier are the open convoys: close
  //    them at the dataset boundary, as batch ExtendRight does at range.end.
  std::vector<Convoy> open;
  for (ConvoyExtensionWalk& w : walks_) w.Flush(frontier_, &open);
  walks_.clear();
  stats_.open_convoys = open.size();
  for (Convoy& c : open) {
    s = OnRightResult(std::move(c));
    if (!s.ok()) return fail(std::move(s));
  }

  // 3. Replay the batch pipeline's global barriers over the accumulated
  //    per-convoy results. All heavy per-convoy work (right walks, left
  //    walks, validation) is already cached; only the set algebra runs here.
  MaximalConvoySet rset;
  for (const Convoy& r : right_seen_) rset.Insert(r);
  right_seen_.clear();
  const std::vector<Convoy> right_maximal = rset.TakeSorted();

  MaximalConvoySet lset;
  for (const Convoy& r : right_maximal) {
    auto lp = LeftPieces(r);
    if (!lp.ok()) return fail(lp.status());
    for (const Convoy& f : *lp.value()) lset.Insert(f);
  }
  std::vector<Convoy> merged = FilterMinLength(lset.TakeSorted(), params_.k);

  std::vector<Convoy> result;
  if (!options_.validate) {
    result = std::move(merged);
  } else {
    MaximalConvoySet out;
    for (const Convoy& f : merged) {
      auto vp = ValidatedPieces(f);
      if (!vp.ok()) return fail(vp.status());
      for (const Convoy& p : *vp.value()) out.Insert(p);
    }
    result = out.TakeSorted();
  }
  final_result_ = std::move(result);
  return *final_result_;
}

}  // namespace k2

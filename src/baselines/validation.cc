#include "baselines/validation.h"

#include <deque>
#include <unordered_set>

#include "baselines/sweep.h"
#include "cluster/store_clustering.h"

namespace k2 {

std::vector<Timestamp> BinarySubdivisionOrder(TimeRange range) {
  std::vector<Timestamp> order;
  if (range.empty()) return order;
  order.push_back(range.start);
  if (range.end != range.start) order.push_back(range.end);
  // BFS over segments; the midpoint of each segment is emitted, then the two
  // halves are queued. Every interior tick is the midpoint of exactly one
  // segment of the subdivision.
  std::deque<TimeRange> queue{range};
  while (!queue.empty()) {
    const TimeRange seg = queue.front();
    queue.pop_front();
    const int64_t span = int64_t{seg.end} - seg.start;  // no int32 overflow
    if (span < 2) continue;
    const auto mid = static_cast<Timestamp>(seg.start + span / 2);
    order.push_back(mid);
    queue.push_back({seg.start, mid});
    queue.push_back({mid, seg.end});
  }
  return order;
}

namespace {

uint64_t ConvoyKey(const Convoy& v) {
  uint64_t h = v.objects.Hash();
  h ^= (static_cast<uint64_t>(static_cast<uint32_t>(v.start)) << 32) |
       static_cast<uint32_t>(v.end);
  h *= 0x9E3779B97F4A7C15ULL;
  return h;
}

/// Per-candidate context: re-clusterings of DB[t]|O, probed lazily and
/// cached so the fallback sweep reuses what the fast path computed. A tick
/// the ledger proves for O is answered with {O} instead.
class RestrictionProber {
 public:
  RestrictionProber(Store* store, const Convoy& candidate,
                    const MiningParams& params, ValidationStats* stats,
                    SnapshotScratch* scratch, const FcLedger* ledger)
      : store_(store),
        candidate_(candidate),
        params_(params),
        stats_(stats),
        scratch_(scratch),
        facts_(ledger != nullptr ? ledger->Facts(candidate.objects)
                                 : FcLedger::SetFacts()),
        cache_(static_cast<size_t>(candidate.length()), nullptr) {}

  /// True when DB[t]|O clusters to exactly {O} for every t (FC property).
  Result<bool> IsFullyConnected() {
    for (Timestamp t : BinarySubdivisionOrder(candidate_.lifespan())) {
      K2_ASSIGN_OR_RETURN(const std::vector<ObjectSet>* cs, ClustersAt(t));
      if (cs->size() != 1 || (*cs)[0] != candidate_.objects) return false;
    }
    return true;
  }

  /// Maximal convoys of the restricted dataset with lifespan >= k.
  Result<std::vector<Convoy>> SweepRestriction() {
    if (stats_ != nullptr) ++stats_->split_rounds;
    SweepOptions options;
    options.min_length = params_.k;
    return MaximalConvoySweep(
        [this](Timestamp t, std::vector<ObjectSet>* out) -> Status {
          K2_ASSIGN_OR_RETURN(const std::vector<ObjectSet>* cs, ClustersAt(t));
          *out = *cs;
          return Status::OK();
        },
        candidate_.lifespan(), params_.m, options);
  }

 private:
  Result<const std::vector<ObjectSet>*> ClustersAt(Timestamp t) {
    const std::vector<ObjectSet>*& cs =
        cache_[static_cast<size_t>(int64_t{t} - candidate_.start)];
    if (cs != nullptr) return cs;
    if (facts_.Proven(t)) {
      if (stats_ != nullptr) ++stats_->proven_ticks;
      cs = &self_;
    } else {
      K2_ASSIGN_OR_RETURN(
          std::vector<ObjectSet> clusters,
          ReCluster(store_, t, candidate_.objects, params_, scratch_));
      if (stats_ != nullptr) ++stats_->reclusterings;
      cs = &computed_.emplace_back(std::move(clusters));
    }
    return cs;
  }

  Store* store_;
  const Convoy& candidate_;
  const MiningParams& params_;
  ValidationStats* stats_;
  SnapshotScratch* scratch_;
  const FcLedger::SetFacts facts_;
  const std::vector<ObjectSet> self_{candidate_.objects};  ///< {O}
  std::deque<std::vector<ObjectSet>> computed_;  ///< stable addresses
  /// Indexed by t - candidate.start; the probes cover the lifespan
  /// anyway (BinarySubdivisionOrder lists every tick of it).
  std::vector<const std::vector<ObjectSet>*> cache_;
};

}  // namespace

void ValidationStats::Accumulate(const ValidationStats& other) {
  candidates_in += other.candidates_in;
  fc_accepted += other.fc_accepted;
  split_rounds += other.split_rounds;
  reclusterings += other.reclusterings;
  proven_ticks += other.proven_ticks;
}

Result<std::vector<Convoy>> ValidateFullyConnected(
    Store* store, std::vector<Convoy> candidates, const MiningParams& params,
    bool recursive, ValidationStats* stats, const FcLedger* ledger) {
  if (stats != nullptr) stats->candidates_in = candidates.size();
  MaximalConvoySet accepted;
  SnapshotScratch scratch;
  std::deque<Convoy> work(candidates.begin(), candidates.end());
  std::unordered_set<uint64_t> seen;

  while (!work.empty()) {
    Convoy v = std::move(work.front());
    work.pop_front();
    if (v.objects.size() < static_cast<size_t>(params.m) ||
        v.length() < params.k) {
      continue;
    }
    if (!seen.insert(ConvoyKey(v)).second) continue;

    RestrictionProber prober(store, v, params, stats, &scratch, ledger);
    K2_ASSIGN_OR_RETURN(bool is_fc, prober.IsFullyConnected());
    if (is_fc) {
      if (stats != nullptr) ++stats->fc_accepted;
      accepted.Insert(std::move(v));
      continue;
    }
    K2_ASSIGN_OR_RETURN(std::vector<Convoy> pieces, prober.SweepRestriction());
    if (recursive) {
      for (Convoy& piece : pieces) work.push_back(std::move(piece));
    } else {
      // Original one-pass DCVal: split results are emitted unvalidated
      // (recursive = false is only ever entered with first-level
      // candidates, since nothing is pushed back).
      for (Convoy& piece : pieces) accepted.Insert(std::move(piece));
    }
  }
  return accepted.TakeSorted();
}

}  // namespace k2

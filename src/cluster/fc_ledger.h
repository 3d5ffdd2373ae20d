// The FC ledger of one mining run: every (tick, object set) pair at which a
// restricted re-clustering of exactly that set returned exactly {that set}.
// That outcome IS the fully-connected property of the set at the tick
// (Sec. 4.6), and ReCluster is a pure function of (DB[t], O, params), so a
// later probe of the same pair can substitute {O} without re-clustering —
// exact by construction, no tolerance involved. A fact about a superset of
// O, or about O at another tick, says nothing about (O, t) and is never
// consulted.
//
// Writers are HWMT and the extension walks; readers are the walks and FC
// validation. A ledger is not thread-safe for writing: the concurrent
// driver gives each pool slot its own log whose `sealed` parent holds the
// facts of earlier phases, and merges the logs into the parent at its phase
// barriers (core/partition.cc).
//
// Facts are keyed by interned object set, and each set keeps its proven
// ticks as sorted, coalesced runs: the walks and HWMT prove consecutive
// ticks, so a set's facts are a handful of runs. Memory is bounded by the
// number of facts, never by the tick range, and every lookup touches one
// small per-set vector.
#ifndef K2_CLUSTER_FC_LEDGER_H_
#define K2_CLUSTER_FC_LEDGER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/object_set.h"
#include "common/types.h"

namespace k2 {

class FcLedger {
  /// Sorted, disjoint, non-adjacent tick runs.
  using Runs = std::vector<TimeRange>;

 public:
  /// The facts about one object set, looked up once and then probed per
  /// tick. Valid until the next Record or Absorb on either ledger.
  class SetFacts {
   public:
    bool Proven(Timestamp t) const;

   private:
    friend class FcLedger;
    const Runs* own_ = nullptr;
    const Runs* sealed_ = nullptr;
  };

  /// `sealed` (optional, borrowed) is a read-only ledger whose facts count
  /// as proven here too; it has no parent of its own and must not be
  /// written while this ledger reads it.
  explicit FcLedger(const FcLedger* sealed = nullptr);

  /// Records that ReCluster(DB[t]|objects) returned exactly {objects}.
  void Record(const ObjectSet& objects, Timestamp t);

  /// True when (objects, t) was recorded here or in the sealed parent.
  bool Proven(const ObjectSet& objects, Timestamp t) const {
    return Facts(objects).Proven(t);
  }

  /// Every fact about exactly `objects`, here and in the sealed parent.
  SetFacts Facts(const ObjectSet& objects) const;

  /// Moves every fact of `log` into this ledger and leaves `log` empty
  /// (its sealed parent pointer is kept).
  void Absorb(FcLedger* log);

  /// Facts recorded in this ledger itself (the parent's are not counted).
  uint64_t num_facts() const;

 private:
  /// Two ids per multiply: every probe hashes its set, and the sets HWMT
  /// and the walks carry are large enough that ObjectSet::Hash's
  /// byte-wise FNV chain showed in the phase times.
  struct WideHash {
    size_t operator()(const ObjectSet& objects) const;
  };

  const FcLedger* sealed_;
  std::unordered_map<ObjectSet, Runs, WideHash> runs_;

  const Runs* Find(const ObjectSet& objects) const;
};

}  // namespace k2

#endif  // K2_CLUSTER_FC_LEDGER_H_

// Lower-bound search over a strictly increasing run of integer keys that
// first probes the slot a key would hold if the run were dense. Every tick
// of a movement dataset usually holds every object, so the rows of one tick
// are consecutive oids and the probe lands: one key load instead of a
// binary search. The point-read path of every store engine (SSTable blocks,
// the LSM memtable, a tick's rows in memory) and Dataset::Find use it.
#ifndef K2_COMMON_PROBE_SEARCH_H_
#define K2_COMMON_PROBE_SEARCH_H_

#include <cstddef>
#include <cstdint>

namespace k2 {

/// The slot `key` would hold in a run of consecutive keys that holds
/// `anchor_key` at slot `anchor`, modulo 2^64: a key below the anchor counts
/// back from it, and a key far from it yields a slot outside any run.
inline uint64_t DenseSlot(uint64_t anchor, uint64_t anchor_key,
                          uint64_t key) {
  return anchor + (key - anchor_key);
}

/// Index of the first of the strictly increasing keys key_at(lo), ...,
/// key_at(hi - 1) that is >= key, or hi when there is none.
///
/// The search loads key_at(guess) first, but only when lo <= guess < hi:
/// a hit ends it, a miss narrows [lo, hi) to one side of the guess, and a
/// binary search finishes inside. A guess outside [lo, hi) costs nothing,
/// so no guess can steer a load outside the range. A sparse run pays one
/// extra key load per search. On keys that are not sorted (a damaged
/// block) the result is still some index in [lo, hi].
template <typename KeyAt>
size_t ProbedLowerBound(size_t lo, size_t hi, uint64_t guess, uint64_t key,
                        KeyAt key_at) {
  if (guess >= lo && guess < hi) {
    const uint64_t probed = key_at(static_cast<size_t>(guess));
    if (probed == key) return static_cast<size_t>(guess);
    if (probed < key) {
      lo = static_cast<size_t>(guess) + 1;
    } else {
      hi = static_cast<size_t>(guess);
    }
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace k2

#endif  // K2_COMMON_PROBE_SEARCH_H_

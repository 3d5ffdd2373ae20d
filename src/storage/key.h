// Composite clustered key (t, oid) packed into one order-preserving uint64,
// the key layout shared by the B+-tree and LSM engines (paper Sec. 5.2:
// "we create a composite key (t,oid) ... the data is sorted by keys").
#ifndef K2_STORAGE_KEY_H_
#define K2_STORAGE_KEY_H_

#include <cstdint>
#include <limits>

#include "common/probe_search.h"
#include "common/types.h"

namespace k2 {

/// Packs (t, oid); the sign bit of t is flipped so that unsigned comparison
/// of packed keys matches signed comparison of timestamps.
inline uint64_t MakeKey(Timestamp t, ObjectId oid) {
  const uint32_t biased_t = static_cast<uint32_t>(t) ^ 0x80000000u;
  return (static_cast<uint64_t>(biased_t) << 32) | oid;
}

inline Timestamp KeyTime(uint64_t key) {
  return static_cast<Timestamp>(static_cast<uint32_t>(key >> 32) ^
                                0x80000000u);
}

inline ObjectId KeyOid(uint64_t key) {
  return static_cast<ObjectId>(key & 0xffffffffu);
}

/// Smallest and largest keys of tick `t`: the range scanned by
/// ScanTimestamp ("from (t,0) to (t,max(oid))").
inline uint64_t MinKeyOf(Timestamp t) { return MakeKey(t, 0); }
inline uint64_t MaxKeyOf(Timestamp t) {
  return MakeKey(t, std::numeric_limits<ObjectId>::max());
}

/// The probe for `key` in a run of `count` ascending keys from `first_key`
/// to `last_key` (an SSTable block, the memtable): the slot `key` would hold
/// if its tick's oids were consecutive, counted from the first key when it
/// shares the tick, else back from the last key (a run that ends inside the
/// tick). A tick that neither end shares gets no probe.
inline uint64_t DenseKeySlot(uint64_t first_key, uint64_t last_key,
                             uint64_t count, uint64_t key) {
  return KeyTime(key) == KeyTime(first_key)
             ? DenseSlot(0, first_key, key)
             : DenseSlot(count - 1, last_key, key);
}

}  // namespace k2

#endif  // K2_STORAGE_KEY_H_

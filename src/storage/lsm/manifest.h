// LSM MANIFEST: the single source of truth for which files are live.
// Recovery never trusts a directory listing — an interrupted flush or
// compaction leaves half-written or obsolete files behind, and only the
// MANIFEST says which SSTables belong to which tier and which WAL segments
// still hold unflushed data.
//
// The format is a full snapshot (not a log of edits — table counts at our
// scale make rewrites cheap), human-readable, with a CRC trailer:
//
//   k2lsm-manifest v1
//   next_seq <N>
//   wal <seq>            (one line per live WAL segment, oldest first)
//   table <tier> <seq> <filename> <entries>
//   crc32c <hex of everything above>
//
// Every write goes to MANIFEST.tmp, is fsynced, and renamed over MANIFEST
// (rename + parent-dir fsync = atomic, durable commit point).
#ifndef K2_STORAGE_LSM_MANIFEST_H_
#define K2_STORAGE_LSM_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace k2::lsm {

inline constexpr char kManifestName[] = "MANIFEST";
/// Tiers a MANIFEST may name. Size-tiered compaction with a fan-out of at
/// least 2 needs 2^t flushes to reach tier t, so no store gets near this.
inline constexpr uint32_t kMaxTiers = 64;

struct ManifestTable {
  uint32_t tier = 0;
  uint64_t seq = 0;
  std::string file;  // name within the store directory
  uint64_t num_entries = 0;
};

struct ManifestState {
  uint64_t next_seq = 1;
  std::vector<uint64_t> live_wals;     ///< WAL seqs still holding data.
  std::vector<ManifestTable> tables;   ///< Live SSTables, any order.
};

/// Atomically replaces `dir`/MANIFEST with `state`.
Status WriteManifest(Env* env, const std::string& dir,
                     const ManifestState& state);

/// Reads and validates `dir`/MANIFEST. NotFound when absent (a fresh
/// directory); Invalid with a named message on checksum or parse failure,
/// or when a table's tier is not below kMaxTiers, a table's file is not a
/// plain name inside `dir`, or a table or WAL seq is reused or not below
/// next_seq.
/// Recovery sizes its tier list by the tiers read and deletes table files
/// by name, so a checksummed but forged MANIFEST must not get past here.
Result<ManifestState> ReadManifest(Env* env, const std::string& dir);

}  // namespace k2::lsm

#endif  // K2_STORAGE_LSM_MANIFEST_H_

//===- persist/CacheStore.h - Durable result cache --------------*- C++ -*-===//
///
/// \file
/// Disk backing for the service result cache: a binary *snapshot* file
/// (the compacted base image, replaced atomically) plus an append-only
/// *WAL* of insertions since the last compaction. Restart recovery is
/// `load()` — snapshot records, then WAL records in append order (later
/// wins on key collisions, matching in-memory insert semantics). Every
/// record is CRC-framed (`persist/Wal.h`), so torn or flipped bytes cost
/// individual records, never the store.
///
/// Records mirror the in-memory `CachedSolution`: the 64-bit fingerprint
/// key, the canonical matrix bytes that make hash collisions harmless,
/// the solved tree and its cost. The service layer owns the conversion —
/// this layer knows nothing about `src/service` (no dependency cycle).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_PERSIST_CACHESTORE_H
#define MUTK_PERSIST_CACHESTORE_H

#include "persist/Wal.h"
#include "tree/PhyloTree.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mutk::persist {

/// Cache namespaces a durable record can belong to. Stored explicitly —
/// the key spaces are salted apart in memory, but a reader of the state
/// files should not need the salt to tell the tiers apart.
enum class CacheNamespace : std::uint8_t {
  Whole = 0, ///< Whole-matrix result (salted key).
  Block = 1, ///< Per-condensed-block subtree (raw fingerprint key).
};

/// One durable cache entry (canonical-label tree + identity bytes).
struct DurableCacheRecord {
  std::uint64_t Key = 0;
  /// Canonical matrix bytes (exact identity), followed in a whole-matrix
  /// record by the two knob bytes that key it (condense mode, polish).
  std::vector<std::uint8_t> CanonicalBytes;
  PhyloTree Tree;
  double Cost = 0.0;
  bool Exact = true;
  CacheNamespace Space = CacheNamespace::Whole;
};

std::vector<std::uint8_t> encodeCacheRecord(const DurableCacheRecord &Rec);
/// Decodes a record from the WAL, the snapshot or a peer. nullopt on
/// malformed bytes, and on a record the service could not have written:
/// canonical bytes whose length disagrees with their species-count
/// header, or a tree whose leaves are not exactly 0..n-1.
std::optional<DurableCacheRecord>
decodeCacheRecord(const std::vector<std::uint8_t> &Bytes);

/// The snapshot + WAL pair under one state directory. `write`,
/// `syncThrough`, `append` and the size queries are thread-safe (the
/// WAL's group commit); `load` and `compact` must not overlap a write,
/// because a record written during a compaction would be truncated away
/// with the WAL.
class CacheStore {
public:
  /// Files live at `<StateDir>/cache.snapshot` and `<StateDir>/cache.wal`
  /// (the directory is created on demand).
  explicit CacheStore(const std::string &StateDir);

  struct LoadResult {
    /// Snapshot records then WAL records, append order preserved.
    std::vector<DurableCacheRecord> Records;
    std::size_t SnapshotRecords = 0;
    std::size_t WalRecords = 0;
    /// Frames that parsed but did not decode as cache records.
    std::size_t DroppedRecords = 0;
    /// A torn/corrupt tail was skipped (and truncated away).
    bool WalDamaged = false;
    bool SnapshotDamaged = false;
    /// Header mismatch (other format version or build flavor): previous
    /// state discarded entirely.
    bool ColdStart = false;
  };
  /// Recovers all records, repairs a damaged WAL tail in place, resets
  /// incompatible files, and updates the `mutk_persist_*` gauges.
  LoadResult load();

  /// Journals one insertion. \p Sync forces fdatasync (the default: a
  /// cache record is the product of an expensive solve).
  bool append(const DurableCacheRecord &Rec, bool Sync = true);

  /// Journals one insertion without waiting for it to be durable.
  /// \returns its WAL sequence number, 0 when the write failed.
  std::uint64_t write(const DurableCacheRecord &Rec);
  /// Waits until every record up to \p Seq is durable (`Wal::syncThrough`).
  bool syncThrough(std::uint64_t Seq) { return Log.syncThrough(Seq); }
  /// Sequence number of the newest record written.
  std::uint64_t lastSeq() const { return Log.lastSeq(); }

  /// Rewrites the snapshot to exactly \p All and truncates the WAL.
  bool compact(const std::vector<DurableCacheRecord> &All);

  std::uint64_t walBytes() const { return Log.bytes(); }
  std::uint64_t snapshotBytes() const { return Snapshot.bytes(); }

private:
  void publishSizes();

  Wal Snapshot; ///< Only ever `rewrite()`n (atomic replace).
  Wal Log;      ///< Append-only between compactions.
};

} // namespace mutk::persist

#endif // MUTK_PERSIST_CACHESTORE_H

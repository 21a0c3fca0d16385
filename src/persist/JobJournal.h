//===- persist/JobJournal.h - Crash-safe job journal ------------*- C++ -*-===//
///
/// \file
/// A WAL of in-flight service work: `Submitted(id, encoded request)`
/// when a build request enters the queue, `Completed(id)` when its
/// response is ready. After a crash, `load()` returns exactly the jobs
/// that were accepted but never finished — the daemon re-enqueues them
/// on startup so accepted work survives restarts. Requests are stored in
/// the wire encoding (`service/Protocol.h`), which already round-trips
/// every field; this layer treats them as opaque bytes.
///
/// The journal stays bounded while the process runs: it remembers where
/// each pending job's `Submitted` frame sits in the file, and once the
/// file passes 8 MiB it rewrites itself with only those frames, read
/// back from disk (no request is kept in memory). It is thread-safe;
/// concurrent `syncThrough` calls share one flush (`Wal::syncThrough`).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_PERSIST_JOBJOURNAL_H
#define MUTK_PERSIST_JOBJOURNAL_H

#include "persist/Wal.h"
#include "support/Mutex.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mutk::persist {

/// A journaled job that never completed.
struct PendingJob {
  std::uint64_t Id = 0;
  std::vector<std::uint8_t> EncodedRequest;
};

class JobJournal {
public:
  /// The journal lives at `<StateDir>/jobs.wal`.
  explicit JobJournal(const std::string &StateDir);

  /// Replays the journal and returns submitted-but-not-completed jobs in
  /// submission order. Repairs a damaged tail, resets an incompatible
  /// file, and compacts the journal down to the survivors (completed
  /// pairs are dead weight after recovery).
  std::vector<PendingJob> load() MUTK_EXCLUDES(Mu);

  /// Journals acceptance of \p EncodedRequest under \p Id without
  /// waiting for it to be durable. \returns the frame's sequence number
  /// for `syncThrough`, 0 when the write failed.
  std::uint64_t write(std::uint64_t Id,
                      const std::vector<std::uint8_t> &EncodedRequest)
      MUTK_EXCLUDES(Mu);
  /// Waits until every frame up to \p Seq is durable (`Wal::syncThrough`;
  /// concurrent callers share one flush).
  bool syncThrough(std::uint64_t Seq) { return Log.syncThrough(Seq); }

  /// `write`, then `syncThrough` the new frame. The service splits the
  /// pair: it writes `Submitted` before the job is queued, so no
  /// `Completed` can come first, and flushes it while a worker already
  /// solves — it answers no caller before the frame is durable.
  bool submitted(std::uint64_t Id,
                 const std::vector<std::uint8_t> &EncodedRequest)
      MUTK_EXCLUDES(Mu);

  /// Journals completion of \p Id (not synced — replaying a completed
  /// job is wasted work, not lost work).
  bool completed(std::uint64_t Id) MUTK_EXCLUDES(Mu);

  /// Rewrites the journal down to the pending `Submitted` records; with
  /// no job pending it leaves an empty journal.
  bool compact() MUTK_EXCLUDES(Mu);

  std::uint64_t bytes() const { return Log.bytes(); }

private:
  /// Where a pending job's `Submitted` frame sits in the file.
  struct FrameSpan {
    std::uint64_t Offset = 0;
    std::uint64_t Size = 0;
  };

  bool compactLocked() MUTK_REQUIRES(Mu);
  /// Compacts once the file has passed 8 MiB, or twice its size after
  /// the last compaction when the pending jobs alone are that large.
  void boundLocked() MUTK_REQUIRES(Mu);

  /// Orders `Spans` with the writes they describe; taken before the
  /// Wal's lock.
  Mutex Mu{"persist.journal"};
  /// The pending jobs' `Submitted` frames, by job id.
  std::unordered_map<std::uint64_t, FrameSpan> Spans MUTK_GUARDED_BY(Mu);
  /// The file's size after the last compaction (or failed attempt).
  std::uint64_t CompactedBytes MUTK_GUARDED_BY(Mu) = 0;
  Wal Log;
};

} // namespace mutk::persist

#endif // MUTK_PERSIST_JOBJOURNAL_H

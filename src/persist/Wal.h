//===- persist/Wal.h - Append-only write-ahead log --------------*- C++ -*-===//
///
/// \file
/// The framed-record machinery every durable file shares. A *frame* is
/// `u32 payload-length | u32 crc32(payload) | payload` (little-endian);
/// a WAL file is a header frame — magic, format version, build flavor —
/// followed by data frames. Appends are O_APPEND writes of whole frames,
/// so concurrent readers and crashes can only ever observe a *prefix*
/// plus possibly one torn frame at the tail. Replay therefore walks
/// frames until the first length/CRC violation and drops everything
/// after it: a damaged tail costs the records in the tail, never an
/// abort and never a silently-wrong record.
///
/// Header mismatches (unknown magic, newer format version, different
/// build flavor) mark the log *incompatible*; the owner discards it and
/// starts cold rather than guessing at the byte layout.
///
/// A `Wal` is thread-safe and group-commits: `write` appends a frame
/// under the Wal's own lock and returns its sequence number, and
/// `syncThrough` makes frames durable with as few `fdatasync` calls as
/// the callers allow — one flush, issued outside every lock, covers every
/// frame written before it started, and a caller whose frame an
/// in-flight flush covers waits for that flush instead of issuing one.
/// There is no batching timer: a flush starts as soon as someone needs
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_PERSIST_WAL_H
#define MUTK_PERSIST_WAL_H

#include "persist/Files.h"
#include "support/Mutex.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mutk::persist {

/// Appends one frame (`len | crc | payload`) to \p Out.
void appendFrame(std::vector<std::uint8_t> &Out,
                 const std::vector<std::uint8_t> &Payload);

/// Walks frames from \p Offset until the buffer ends or a frame fails
/// its length or CRC check.
struct FrameScan {
  std::vector<std::vector<std::uint8_t>> Payloads;
  /// Bytes of the intact prefix (frames that parsed and checksummed).
  std::size_t CleanBytes = 0;
  /// True when bytes remained after the intact prefix (torn or corrupt
  /// tail — the caller should log and may truncate).
  bool Damaged = false;
};
FrameScan scanFrames(const std::vector<std::uint8_t> &Bytes,
                     std::size_t Offset = 0);

/// An append-only log of frames with a self-identifying header frame.
class Wal {
public:
  /// \p Magic names the log type (e.g. "MUTKCWAL"), \p Version its
  /// payload format; bump the version on any layout change.
  Wal(std::string Path, std::string Magic, std::uint32_t Version);

  struct ReplayResult {
    /// Data-frame payloads in append order (header frame excluded).
    std::vector<std::vector<std::uint8_t>> Records;
    /// A torn/corrupt tail was dropped.
    bool Damaged = false;
    /// Header missing or mismatched — contents unusable, start cold.
    bool Incompatible = false;
    /// True when the file did not exist at all.
    bool Missing = false;
  };
  /// Reads and validates the whole log. Does not modify the file.
  ReplayResult replay() const;

  /// Where `write` put a frame.
  struct Written {
    /// Sequence number: 1 for the Wal's first frame, counting on across
    /// `rewrite()`; 0 when the write failed.
    std::uint64_t Seq = 0;
    /// Byte offset of the frame in the file (valid until the next
    /// `rewrite()`).
    std::uint64_t Offset = 0;
  };
  /// Appends one data frame without waiting for it to be durable,
  /// creating the file (with its header frame) on first use. A failed
  /// write is cut back off the file so later frames stay reachable; if
  /// even that fails the Wal refuses writes until the next `rewrite()`.
  /// Failures count in `mutk_persist_wal_append_errors_total`.
  Written write(const std::vector<std::uint8_t> &Payload) MUTK_EXCLUDES(Mu);

  /// Returns once every frame up to \p Seq is durable: at once if it
  /// already is, after the in-flight flush if that one covers it, and
  /// otherwise after one `fdatasync` this call issues over everything
  /// written so far. \returns false when the flush covering \p Seq
  /// failed.
  bool syncThrough(std::uint64_t Seq) MUTK_EXCLUDES(Mu);

  /// `write`, then with \p Sync `syncThrough` the new frame.
  bool append(const std::vector<std::uint8_t> &Payload, bool Sync);

  /// Sequence number of the newest frame written (0 before the first).
  std::uint64_t lastSeq() const MUTK_EXCLUDES(Mu);

  /// Atomically rewrites the log as header + \p Payloads. Used to
  /// truncate a damaged tail and to compact after a snapshot. Waits for
  /// an in-flight flush; on success every frame written so far counts
  /// as durable (the new file is synced, and what it dropped is meant
  /// to go) and \p Offsets, when given, receives each payload's frame
  /// offset.
  bool rewrite(const std::vector<std::vector<std::uint8_t>> &Payloads,
               std::vector<std::uint64_t> *Offsets = nullptr)
      MUTK_EXCLUDES(Mu);

  /// Size of the log in bytes: tracked while the file is open for
  /// writing (its size at open plus every frame since), else the size on
  /// disk.
  std::uint64_t bytes() const MUTK_EXCLUDES(Mu);

  const std::string &path() const { return LogPath; }

private:
  std::vector<std::uint8_t> headerFrame() const;
  bool headerMatches(const std::vector<std::uint8_t> &Payload) const;
  bool openLocked() MUTK_REQUIRES(Mu);
  bool appendLocked(const std::vector<std::uint8_t> &Frame) MUTK_REQUIRES(Mu);

  std::string LogPath;
  std::string Magic;
  std::uint32_t Version;

  /// A leaf: nothing is locked while it is held, and the flush runs
  /// without it.
  mutable Mutex Mu{"persist.wal"};
  /// Signalled when a flush ends.
  CondVar FlushDone;
  AppendFile Out MUTK_GUARDED_BY(Mu);
  /// The file's size while `Out` is open.
  std::uint64_t End MUTK_GUARDED_BY(Mu) = 0;
  std::uint64_t LastSeq MUTK_GUARDED_BY(Mu) = 0;
  std::uint64_t DurableSeq MUTK_GUARDED_BY(Mu) = 0;
  /// The in-flight flush (if `Flushing`) and what it will make durable.
  bool Flushing MUTK_GUARDED_BY(Mu) = false;
  std::uint64_t FlushTarget MUTK_GUARDED_BY(Mu) = 0;
  /// Flushes finished so far, and whether the latest one succeeded.
  std::uint64_t FlushesDone MUTK_GUARDED_BY(Mu) = 0;
  bool LastFlushOk MUTK_GUARDED_BY(Mu) = true;
  /// A failed write could not be cut back off: writing more would hide
  /// it behind torn bytes, so writes fail until `rewrite()` replaces the
  /// file.
  bool Refusing MUTK_GUARDED_BY(Mu) = false;
};

} // namespace mutk::persist

#endif // MUTK_PERSIST_WAL_H

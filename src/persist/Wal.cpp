//===- persist/Wal.cpp - Append-only write-ahead log ----------------------===//

#include "persist/Wal.h"

#include "mp/Serialize.h"
#include "obs/Instruments.h"
#include "obs/Log.h"
#include "persist/Crc32.h"

#include <algorithm>
#include <utility>

using namespace mutk;
using namespace mutk::persist;

namespace {

/// Upper bound on one frame's payload; anything larger is treated as
/// corruption (a flipped length byte must not trigger a huge allocation).
constexpr std::uint32_t MaxFramePayload = 1u << 28; // 256 MiB

std::uint32_t readLe32(const std::uint8_t *P) {
  return static_cast<std::uint32_t>(P[0]) |
         (static_cast<std::uint32_t>(P[1]) << 8) |
         (static_cast<std::uint32_t>(P[2]) << 16) |
         (static_cast<std::uint32_t>(P[3]) << 24);
}

void writeLe32(std::vector<std::uint8_t> &Out, std::uint32_t V) {
  Out.push_back(static_cast<std::uint8_t>(V));
  Out.push_back(static_cast<std::uint8_t>(V >> 8));
  Out.push_back(static_cast<std::uint8_t>(V >> 16));
  Out.push_back(static_cast<std::uint8_t>(V >> 24));
}

} // namespace

void mutk::persist::appendFrame(std::vector<std::uint8_t> &Out,
                                const std::vector<std::uint8_t> &Payload) {
  writeLe32(Out, static_cast<std::uint32_t>(Payload.size()));
  writeLe32(Out, crc32(Payload));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

FrameScan mutk::persist::scanFrames(const std::vector<std::uint8_t> &Bytes,
                                    std::size_t Offset) {
  FrameScan Scan;
  Scan.CleanBytes = Offset;
  std::size_t Pos = Offset;
  while (Pos + 8 <= Bytes.size()) {
    std::uint32_t Len = readLe32(Bytes.data() + Pos);
    std::uint32_t Crc = readLe32(Bytes.data() + Pos + 4);
    if (Len > MaxFramePayload || Pos + 8 + Len > Bytes.size())
      break; // torn or corrupt length
    if (crc32(Bytes.data() + Pos + 8, Len) != Crc)
      break; // payload corrupt
    Scan.Payloads.emplace_back(Bytes.begin() + static_cast<std::ptrdiff_t>(Pos + 8),
                               Bytes.begin() +
                                   static_cast<std::ptrdiff_t>(Pos + 8 + Len));
    Pos += 8 + Len;
    Scan.CleanBytes = Pos;
  }
  Scan.Damaged = Scan.CleanBytes != Bytes.size();
  return Scan;
}

Wal::Wal(std::string Path, std::string Magic, std::uint32_t Version)
    : LogPath(std::move(Path)), Magic(std::move(Magic)), Version(Version) {}

std::vector<std::uint8_t> Wal::headerFrame() const {
  ByteWriter Writer;
  Writer.writeString(Magic);
  Writer.writeU32(Version);
  Writer.writeString(buildFlavor());
  std::vector<std::uint8_t> Frame;
  appendFrame(Frame, Writer.bytes());
  return Frame;
}

bool Wal::headerMatches(const std::vector<std::uint8_t> &Payload) const {
  ByteReader Reader(Payload);
  std::string GotMagic, GotFlavor;
  std::uint32_t GotVersion = 0;
  if (!Reader.readString(GotMagic) || !Reader.readU32(GotVersion) ||
      !Reader.readString(GotFlavor))
    return false;
  return GotMagic == Magic && GotVersion == Version &&
         GotFlavor == buildFlavor();
}

Wal::ReplayResult Wal::replay() const {
  ReplayResult Result;
  std::optional<std::vector<std::uint8_t>> Bytes = readFile(LogPath);
  if (!Bytes) {
    Result.Missing = true;
    return Result;
  }
  FrameScan Scan = scanFrames(*Bytes);
  Result.Damaged = Scan.Damaged;
  if (Scan.Payloads.empty()) {
    // No intact header: an empty file is just "new", anything else is
    // unusable bytes.
    Result.Incompatible = !Bytes->empty();
    return Result;
  }
  if (!headerMatches(Scan.Payloads.front())) {
    Result.Incompatible = true;
    return Result;
  }
  Result.Records.assign(std::make_move_iterator(Scan.Payloads.begin() + 1),
                        std::make_move_iterator(Scan.Payloads.end()));
  return Result;
}

bool Wal::appendLocked(const std::vector<std::uint8_t> &Frame) {
  if (Out.append(Frame)) {
    End += Frame.size();
    return true;
  }
  // A short write can leave part of the frame behind; a later frame
  // appended after it would be unreachable on replay.
  if (!Out.truncate(End))
    Refusing = true;
  return false;
}

bool Wal::openLocked() {
  if (Refusing)
    return false;
  if (Out.isOpen())
    return true;
  if (!Out.open(LogPath))
    return false;
  End = fileSize(LogPath);
  if (End == 0 && !appendLocked(headerFrame())) {
    Out.close(); // reopen (and retry the header) on the next write
    return false;
  }
  return true;
}

Wal::Written Wal::write(const std::vector<std::uint8_t> &Payload) {
  std::vector<std::uint8_t> Frame;
  Frame.reserve(8 + Payload.size());
  appendFrame(Frame, Payload);
  Written W;
  {
    MutexLock Lock(Mu);
    if (openLocked()) {
      const std::uint64_t Offset = End;
      if (appendLocked(Frame)) {
        W.Seq = ++LastSeq;
        W.Offset = Offset;
      }
    }
  }
  obs::PersistInstruments &I = obs::persistInstruments();
  if (W.Seq == 0) {
    I.WalAppendErrors.inc();
    obs::log(obs::LogLevel::Warn, "persist", "WAL append failed")
        .kv("path", LogPath);
    return W;
  }
  I.WalAppends.inc();
  I.WalAppendBytes.inc(Frame.size());
  return W;
}

bool Wal::syncThrough(std::uint64_t Seq) {
  MutexLock Lock(Mu);
  for (;;) {
    if (Seq <= DurableSeq)
      return true;
    if (!Flushing)
      break;
    // Wait out the flush in flight; if it covers Seq, its result is ours.
    const std::uint64_t Done = FlushesDone;
    const bool Covered = FlushTarget >= Seq;
    while (FlushesDone == Done)
      FlushDone.wait(Lock);
    if (Covered && !LastFlushOk)
      return false;
  }
  // Lead one flush over everything written so far. `rewrite()` waits
  // for it before it closes the descriptor.
  const std::uint64_t Target = LastSeq;
  Flushing = true;
  FlushTarget = Target;
  const int Fd = Out.fd();
  Lock.unlock();
  const bool Ok = syncDescriptor(Fd);
  obs::PersistInstruments &I = obs::persistInstruments();
  I.WalSyncs.inc();
  if (!Ok) {
    I.WalAppendErrors.inc();
    obs::log(obs::LogLevel::Warn, "persist", "WAL flush failed")
        .kv("path", LogPath);
  }
  Lock.lock();
  if (Ok)
    DurableSeq = std::max(DurableSeq, Target);
  Flushing = false;
  ++FlushesDone;
  LastFlushOk = Ok;
  FlushDone.notify_all();
  return Ok;
}

bool Wal::append(const std::vector<std::uint8_t> &Payload, bool Sync) {
  const Written W = write(Payload);
  return W.Seq != 0 && (!Sync || syncThrough(W.Seq));
}

std::uint64_t Wal::lastSeq() const {
  MutexLock Lock(Mu);
  return LastSeq;
}

std::uint64_t Wal::bytes() const {
  MutexLock Lock(Mu);
  return Out.isOpen() ? End : fileSize(LogPath);
}

bool Wal::rewrite(const std::vector<std::vector<std::uint8_t>> &Payloads,
                  std::vector<std::uint64_t> *Offsets) {
  std::vector<std::uint8_t> Bytes = headerFrame();
  if (Offsets)
    Offsets->clear();
  for (const std::vector<std::uint8_t> &Payload : Payloads) {
    if (Offsets)
      Offsets->push_back(Bytes.size());
    appendFrame(Bytes, Payload);
  }
  MutexLock Lock(Mu);
  while (Flushing)
    FlushDone.wait(Lock);
  if (!writeFileAtomic(LogPath, Bytes))
    return false;
  // The O_APPEND descriptor (if any) still points at the replaced inode;
  // close it so the next write reopens the new file.
  Out.close();
  DurableSeq = LastSeq;
  Refusing = false;
  return true;
}

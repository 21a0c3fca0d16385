//===- persist/CacheStore.cpp - Durable result cache ----------------------===//

#include "persist/CacheStore.h"

#include "mp/Serialize.h"
#include "obs/Instruments.h"
#include "obs/Log.h"

using namespace mutk;
using namespace mutk::persist;

namespace {
// Version 2 added the namespace byte (whole-matrix vs block tier).
// Version-1 state recovers as a documented cold start — the Wal header
// check rejects it wholesale, which is the intended behavior for a
// format change.
constexpr std::uint32_t CacheFormatVersion = 2;
} // namespace

std::vector<std::uint8_t>
mutk::persist::encodeCacheRecord(const DurableCacheRecord &Rec) {
  ByteWriter Writer;
  Writer.writeU64(Rec.Key);
  Writer.writeBytes(Rec.CanonicalBytes);
  Writer.writeF64(Rec.Cost);
  Writer.writeU8(Rec.Exact ? 1 : 0);
  Writer.writeU8(static_cast<std::uint8_t>(Rec.Space));
  writePhyloTree(Writer, Rec.Tree);
  return Writer.take();
}

std::optional<DurableCacheRecord>
mutk::persist::decodeCacheRecord(const std::vector<std::uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  DurableCacheRecord Rec;
  std::uint8_t Exact = 0;
  std::uint8_t Space = 0;
  if (!Reader.readU64(Rec.Key) || !Reader.readBytes(Rec.CanonicalBytes) ||
      !Reader.readF64(Rec.Cost) || !Reader.readU8(Exact) ||
      !Reader.readU8(Space) || !readPhyloTree(Reader, Rec.Tree) ||
      !Reader.atEnd())
    return std::nullopt;
  if (Space > static_cast<std::uint8_t>(CacheNamespace::Block))
    return std::nullopt;
  Rec.Exact = Exact != 0;
  Rec.Space = static_cast<CacheNamespace>(Space);
  return Rec;
}

CacheStore::CacheStore(const std::string &StateDir)
    : Snapshot(StateDir + "/cache.snapshot", "MUTKSNAP", CacheFormatVersion),
      Log(StateDir + "/cache.wal", "MUTKCWAL", CacheFormatVersion) {
  ensureDir(StateDir);
}

void CacheStore::publishSizes() {
  obs::PersistInstruments &I = obs::persistInstruments();
  I.SnapshotBytes.set(static_cast<std::int64_t>(Snapshot.bytes()));
  I.WalBytes.set(static_cast<std::int64_t>(Log.bytes()));
}

CacheStore::LoadResult CacheStore::load() {
  LoadResult Result;
  obs::PersistInstruments &I = obs::persistInstruments();

  Wal::ReplayResult Snap = Snapshot.replay();
  Wal::ReplayResult LogReplay = Log.replay();
  if (Snap.Incompatible || LogReplay.Incompatible) {
    // Other format version or build flavor: the byte layout cannot be
    // trusted, so both files restart empty (documented cold start).
    obs::log(obs::LogLevel::Warn, "persist",
             "incompatible cache state, starting cold")
        .kv("snapshot", Snapshot.path())
        .kv("flavor", buildFlavor());
    Snapshot.rewrite({});
    Log.rewrite({});
    Result.ColdStart = true;
    publishSizes();
    return Result;
  }

  Result.SnapshotDamaged = Snap.Damaged;
  Result.WalDamaged = LogReplay.Damaged;

  auto decodeInto = [&](const std::vector<std::vector<std::uint8_t>> &Frames,
                        std::size_t &CountOut) {
    for (const std::vector<std::uint8_t> &Payload : Frames) {
      std::optional<DurableCacheRecord> Rec = decodeCacheRecord(Payload);
      if (!Rec) {
        ++Result.DroppedRecords;
        continue;
      }
      Result.Records.push_back(std::move(*Rec));
      ++CountOut;
    }
  };
  decodeInto(Snap.Records, Result.SnapshotRecords);
  decodeInto(LogReplay.Records, Result.WalRecords);

  if (Snap.Damaged)
    obs::log(obs::LogLevel::Warn, "persist",
             "cache snapshot has a damaged tail, keeping intact prefix")
        .kv("path", Snapshot.path())
        .kv("records", static_cast<std::uint64_t>(Result.SnapshotRecords));
  if (LogReplay.Damaged) {
    // Truncate the bad tail now, otherwise future appends land *after*
    // the damage and are unreachable on the next replay.
    obs::log(obs::LogLevel::Warn, "persist",
             "cache WAL has a damaged tail, truncating it")
        .kv("path", Log.path())
        .kv("records", static_cast<std::uint64_t>(Result.WalRecords));
    Log.rewrite(LogReplay.Records);
  }

  I.RecoveredRecords.inc(Result.Records.size());
  I.DroppedRecords.inc(Result.DroppedRecords);
  publishSizes();
  return Result;
}

bool CacheStore::append(const DurableCacheRecord &Rec, bool Sync) {
  bool Ok = Log.append(encodeCacheRecord(Rec), Sync);
  obs::persistInstruments().WalBytes.set(
      static_cast<std::int64_t>(Log.bytes()));
  return Ok;
}

std::uint64_t CacheStore::write(const DurableCacheRecord &Rec) {
  const Wal::Written W = Log.write(encodeCacheRecord(Rec));
  obs::persistInstruments().WalBytes.set(
      static_cast<std::int64_t>(Log.bytes()));
  return W.Seq;
}

bool CacheStore::compact(const std::vector<DurableCacheRecord> &All) {
  std::vector<std::vector<std::uint8_t>> Frames;
  Frames.reserve(All.size());
  for (const DurableCacheRecord &Rec : All)
    Frames.push_back(encodeCacheRecord(Rec));
  bool Ok = Snapshot.rewrite(Frames);
  // Only truncate journaled insertions once the snapshot that contains
  // them is durably in place.
  if (Ok)
    Ok = Log.rewrite({});
  obs::persistInstruments().SnapshotWrites.inc();
  publishSizes();
  obs::log(obs::LogLevel::Info, "persist", "cache compacted")
      .kv("records", static_cast<std::uint64_t>(All.size()))
      .kv("snapshot_bytes", Snapshot.bytes());
  return Ok;
}

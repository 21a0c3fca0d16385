//===- persist/JobJournal.cpp - Crash-safe job journal --------------------===//

#include "persist/JobJournal.h"

#include "mp/Serialize.h"
#include "obs/Instruments.h"
#include "obs/Log.h"

#include <algorithm>

using namespace mutk;
using namespace mutk::persist;

namespace {

constexpr std::uint32_t JournalFormatVersion = 1;
constexpr std::uint8_t TagSubmitted = 0;
constexpr std::uint8_t TagCompleted = 1;

/// Past this size the running journal rewrites itself down to its
/// pending `Submitted` frames.
constexpr std::uint64_t JournalCompactBytes = 8u << 20;

std::vector<std::uint8_t> encodeSubmitted(std::uint64_t Id,
                                          const std::vector<std::uint8_t> &Req) {
  ByteWriter Writer;
  Writer.writeU8(TagSubmitted);
  Writer.writeU64(Id);
  Writer.writeBytes(Req);
  return Writer.take();
}

std::vector<std::uint8_t> encodeCompleted(std::uint64_t Id) {
  ByteWriter Writer;
  Writer.writeU8(TagCompleted);
  Writer.writeU64(Id);
  return Writer.take();
}

} // namespace

JobJournal::JobJournal(const std::string &StateDir)
    : Log(StateDir + "/jobs.wal", "MUTKJOBS", JournalFormatVersion) {
  ensureDir(StateDir);
}

std::vector<PendingJob> JobJournal::load() {
  MutexLock Lock(Mu);
  Spans.clear();
  Wal::ReplayResult Replay = Log.replay();
  if (Replay.Incompatible) {
    obs::log(obs::LogLevel::Warn, "persist",
             "incompatible job journal, discarding")
        .kv("path", Log.path());
    Log.rewrite({});
    return {};
  }
  if (Replay.Damaged)
    obs::log(obs::LogLevel::Warn, "persist",
             "job journal has a damaged tail, truncating it")
        .kv("path", Log.path());

  std::vector<PendingJob> Pending;
  for (const std::vector<std::uint8_t> &Payload : Replay.Records) {
    ByteReader Reader(Payload);
    std::uint8_t Tag = 0;
    std::uint64_t Id = 0;
    if (!Reader.readU8(Tag) || !Reader.readU64(Id))
      continue;
    if (Tag == TagSubmitted) {
      PendingJob Job;
      Job.Id = Id;
      if (Reader.readBytes(Job.EncodedRequest))
        Pending.push_back(std::move(Job));
    } else if (Tag == TagCompleted) {
      Pending.erase(std::remove_if(Pending.begin(), Pending.end(),
                                   [Id](const PendingJob &J) {
                                     return J.Id == Id;
                                   }),
                    Pending.end());
    }
  }

  // Compact: survivors only, so the journal never grows across restarts
  // and a damaged tail is truncated as a side effect.
  std::vector<std::vector<std::uint8_t>> Frames;
  Frames.reserve(Pending.size());
  for (const PendingJob &Job : Pending)
    Frames.push_back(encodeSubmitted(Job.Id, Job.EncodedRequest));
  std::vector<std::uint64_t> Offsets;
  if (Log.rewrite(Frames, &Offsets))
    for (std::size_t I = 0; I < Pending.size(); ++I)
      Spans[Pending[I].Id] = {Offsets[I], 8 + Frames[I].size()};
  CompactedBytes = Log.bytes();

  obs::persistInstruments().RecoveredJobs.inc(Pending.size());
  return Pending;
}

bool JobJournal::submitted(std::uint64_t Id,
                           const std::vector<std::uint8_t> &EncodedRequest) {
  const std::vector<std::uint8_t> Payload = encodeSubmitted(Id, EncodedRequest);
  std::uint64_t Seq = 0;
  {
    MutexLock Lock(Mu);
    const Wal::Written W = Log.write(Payload);
    if (W.Seq == 0)
      return false;
    Spans[Id] = {W.Offset, 8 + Payload.size()};
    Seq = W.Seq;
    boundLocked();
  }
  return Log.syncThrough(Seq);
}

bool JobJournal::completed(std::uint64_t Id) {
  MutexLock Lock(Mu);
  const bool Ok = Log.write(encodeCompleted(Id)).Seq != 0;
  Spans.erase(Id);
  boundLocked();
  return Ok;
}

bool JobJournal::compact() {
  MutexLock Lock(Mu);
  return compactLocked();
}

void JobJournal::boundLocked() {
  if (Log.bytes() > std::max(JournalCompactBytes, 2 * CompactedBytes))
    compactLocked();
}

bool JobJournal::compactLocked() {
  // File order is submission order; keep it.
  std::vector<std::pair<std::uint64_t, FrameSpan>> Live(Spans.begin(),
                                                        Spans.end());
  std::sort(Live.begin(), Live.end(), [](const auto &A, const auto &B) {
    return A.second.Offset < B.second.Offset;
  });
  std::vector<std::vector<std::uint8_t>> Frames;
  Frames.reserve(Live.size());
  for (const auto &[Id, Span] : Live) {
    std::optional<std::vector<std::uint8_t>> Bytes =
        readFileRange(Log.path(), Span.Offset, Span.Size);
    FrameScan Scan;
    if (Bytes)
      Scan = scanFrames(*Bytes);
    if (Scan.Payloads.size() != 1 || Scan.Damaged) {
      // Keep the long file rather than drop an accepted job.
      obs::log(obs::LogLevel::Warn, "persist",
               "job journal compaction could not read a pending job back")
          .kv("path", Log.path())
          .kv("journal_id", Id);
      CompactedBytes = Log.bytes();
      return false;
    }
    Frames.push_back(std::move(Scan.Payloads.front()));
  }
  std::vector<std::uint64_t> Offsets;
  const bool Ok = Log.rewrite(Frames, &Offsets);
  if (Ok)
    for (std::size_t I = 0; I < Live.size(); ++I)
      Spans[Live[I].first].Offset = Offsets[I];
  CompactedBytes = Log.bytes();
  return Ok;
}

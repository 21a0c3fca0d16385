//===- tests/persist_test.cpp - Durability subsystem tests ----------------===//
//
// Covers src/persist bottom-up — CRC framing, WAL replay and tail
// repair, the durable cache store, the job journal, file-backed search
// checkpoints — then the integration layers: solver checkpoint/resume
// equality for all three B&B engines, per-block pipeline checkpoints,
// and TreeService restart recovery (durable cache hits and journaled
// job re-enqueue). The kill-and-recover test SIGKILLs a forked writer
// mid-append and proves the survivor loads a clean prefix. The
// GroupCommit tests prove concurrent appenders share flushes without
// losing an acknowledged record.
//
//===----------------------------------------------------------------------===//

#include "bnb/BestFirstBnb.h"
#include "bnb/Checkpoint.h"
#include "bnb/SequentialBnb.h"
#include "compact/CompactSetPipeline.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "mp/Serialize.h"
#include "obs/Log.h"
#include "parallel/ThreadedBnb.h"
#include "persist/CacheStore.h"
#include "persist/Checkpoint.h"
#include "persist/Crc32.h"
#include "persist/Files.h"
#include "persist/JobJournal.h"
#include "persist/Wal.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fcntl.h>
#include <filesystem>
#include <future>
#include <numeric>
#include <set>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mutk;

namespace {

/// A fresh, empty scratch directory per call, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    static int Counter = 0;
    Path = testing::TempDir() + "mutk_persist_" + Tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(Counter++);
    std::filesystem::remove_all(Path);
    persist::ensureDir(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }

  const std::string &path() const { return Path; }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

/// Captures log lines for the duration of a scope.
class LogCapture {
public:
  LogCapture() {
    obs::setLogSink([this](std::string_view Line) {
      Lines.append(Line.data(), Line.size());
    });
  }
  ~LogCapture() { obs::setLogSink(nullptr); }

  bool contains(const std::string &Needle) const {
    return Lines.find(Needle) != std::string::npos;
  }

private:
  std::string Lines;
};

/// In-memory CheckpointSink keeping the most recent capture.
struct MemorySink : CheckpointSink {
  SearchCheckpoint Last;
  std::uint64_t Count = 0;
  void checkpoint(const SearchCheckpoint &State) override {
    Last = State;
    ++Count;
  }
};

/// Flips one byte of a file in place (corruption injection).
void flipByte(const std::string &Path, std::size_t Offset) {
  auto Bytes = persist::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  ASSERT_LT(Offset, Bytes->size());
  (*Bytes)[Offset] ^= 0xff;
  ASSERT_TRUE(persist::writeFileAtomic(Path, *Bytes));
}

/// Drops the last \p N bytes of a file (torn-tail injection).
void truncateTail(const std::string &Path, std::size_t N) {
  auto Bytes = persist::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  ASSERT_GT(Bytes->size(), N);
  Bytes->resize(Bytes->size() - N);
  ASSERT_TRUE(persist::writeFileAtomic(Path, *Bytes));
}

/// A realistic durable record: a solved small matrix in canonical form,
/// its identity followed by the whole-matrix knob bytes (mode, polish).
persist::DurableCacheRecord makeRecord(std::uint64_t Seed) {
  DistanceMatrix M = uniformRandomMetric(6, Seed);
  CanonicalForm Form = canonicalForm(M);
  MutResult R = solveMutSequential(M);
  persist::DurableCacheRecord Rec;
  Rec.Key = Form.Key;
  Rec.CanonicalBytes = Form.Bytes;
  Rec.CanonicalBytes.insert(Rec.CanonicalBytes.end(), {0, 0});
  Rec.Tree = R.Tree;
  Rec.Cost = R.Cost;
  Rec.Exact = true;
  return Rec;
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC32 and frame scanning
//===----------------------------------------------------------------------===//

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  const std::uint8_t Check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(persist::crc32(Check, sizeof(Check)), 0xCBF43926u);
  EXPECT_EQ(persist::crc32(nullptr, 0), 0u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> Data(97);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I * 31 + 7);
  std::uint32_t Want = persist::crc32(Data);
  for (std::size_t I = 0; I < Data.size(); I += 13) {
    Data[I] ^= 0x10;
    EXPECT_NE(persist::crc32(Data), Want) << "flip at " << I;
    Data[I] ^= 0x10;
  }
  EXPECT_EQ(persist::crc32(Data), Want);
}

TEST(Frames, ScanStopsAtDamage) {
  std::vector<std::uint8_t> Buffer;
  persist::appendFrame(Buffer, {1, 2, 3});
  persist::appendFrame(Buffer, {});
  persist::appendFrame(Buffer, std::vector<std::uint8_t>(64, 0xAB));
  std::size_t IntactBytes = Buffer.size();
  persist::appendFrame(Buffer, {9, 9, 9});
  Buffer.resize(Buffer.size() - 2); // tear the last frame

  persist::FrameScan Scan = persist::scanFrames(Buffer);
  ASSERT_EQ(Scan.Payloads.size(), 3u);
  EXPECT_EQ(Scan.Payloads[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(Scan.Payloads[1].empty());
  EXPECT_EQ(Scan.CleanBytes, IntactBytes);
  EXPECT_TRUE(Scan.Damaged);
}

//===----------------------------------------------------------------------===//
// WAL
//===----------------------------------------------------------------------===//

TEST(Wal, AppendReplayRoundTrip) {
  ScratchDir Dir("wal");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    EXPECT_TRUE(W.append({1, 2, 3}, true));
    EXPECT_TRUE(W.append({}, false));
    EXPECT_TRUE(W.append(std::vector<std::uint8_t>(300, 0x5C), true));
  }
  persist::Wal R(Path, "MUTKTEST", 1);
  persist::Wal::ReplayResult Replay = R.replay();
  EXPECT_FALSE(Replay.Missing);
  EXPECT_FALSE(Replay.Incompatible);
  EXPECT_FALSE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 3u);
  EXPECT_EQ(Replay.Records[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(Replay.Records[2].size(), 300u);
}

TEST(Wal, TornTailDropsOnlyTheTail) {
  ScratchDir Dir("wal_tail");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append({10}, false);
    W.append({20}, false);
    W.append({30}, true);
  }
  truncateTail(Path, 3);
  persist::Wal::ReplayResult Replay =
      persist::Wal(Path, "MUTKTEST", 1).replay();
  EXPECT_TRUE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 2u);
  EXPECT_EQ(Replay.Records[1], (std::vector<std::uint8_t>{20}));
}

TEST(Wal, CorruptPayloadStopsReplayThere) {
  ScratchDir Dir("wal_flip");
  std::string Path = Dir.file("log.wal");
  std::uint64_t FirstFrameEnd;
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append(std::vector<std::uint8_t>(40, 1), false);
    FirstFrameEnd = W.bytes();
    W.append(std::vector<std::uint8_t>(40, 2), false);
    W.append(std::vector<std::uint8_t>(40, 3), true);
  }
  // Flip a payload byte of the middle record: record 1 survives, the
  // rest of the log is unreachable (by design — order is meaningful).
  flipByte(Path, FirstFrameEnd + 8 + 10);
  persist::Wal::ReplayResult Replay =
      persist::Wal(Path, "MUTKTEST", 1).replay();
  EXPECT_TRUE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 1u);
  EXPECT_EQ(Replay.Records[0][0], 1);
}

TEST(Wal, HeaderGuardsFormatAndFlavor) {
  ScratchDir Dir("wal_hdr");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append({1}, true);
  }
  EXPECT_TRUE(persist::Wal(Path, "MUTKTEST", 2).replay().Incompatible);
  EXPECT_TRUE(persist::Wal(Path, "MUTKOTHR", 1).replay().Incompatible);
  EXPECT_TRUE(persist::Wal(Dir.file("absent.wal"), "MUTKTEST", 1)
                  .replay()
                  .Missing);
}

TEST(Wal, RewriteReplacesContents) {
  ScratchDir Dir("wal_rw");
  persist::Wal W(Dir.file("log.wal"), "MUTKTEST", 1);
  W.append({1}, false);
  W.append({2}, true);
  ASSERT_TRUE(W.rewrite({{7, 7}}));
  persist::Wal::ReplayResult Replay = W.replay();
  EXPECT_FALSE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 1u);
  EXPECT_EQ(Replay.Records[0], (std::vector<std::uint8_t>{7, 7}));
  // Appends after a rewrite must land in the *new* file, not the old
  // inode the O_APPEND descriptor pointed at.
  EXPECT_TRUE(W.append({8}, true));
  EXPECT_EQ(W.replay().Records.size(), 2u);
}

// fork() under ThreadSanitizer deadlocks sporadically (see the SIGKILL
// drill below), so the forked probes skip TSan builds.
#if !defined(__SANITIZE_THREAD__)
TEST(Wal, FailedAppendDoesNotHideLaterRecords) {
  ScratchDir Dir("wal_efbig");
  persist::DurableCacheRecord Rec = makeRecord(1);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: a file-size limit 40 bytes past the WAL's end makes the
    // second append a short write followed by EFBIG.
    std::signal(SIGXFSZ, SIG_IGN);
    persist::CacheStore Store(Dir.path());
    Rec.Key = 1;
    bool First = Store.append(Rec);
    rlimit Old{};
    ::getrlimit(RLIMIT_FSIZE, &Old);
    rlimit Tight = Old;
    Tight.rlim_cur = static_cast<rlim_t>(Store.walBytes() + 40);
    ::setrlimit(RLIMIT_FSIZE, &Tight);
    Rec.Key = 2;
    bool Second = Store.append(Rec);
    ::setrlimit(RLIMIT_FSIZE, &Old);
    Rec.Key = 3;
    bool Third = Store.append(Rec);
    _exit((First ? 1 : 0) | (Second ? 2 : 0) | (Third ? 4 : 0));
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1 | 4) << "appends must return 1, 0, 1";

  // The torn bytes of the failed append were cut off, so the record
  // appended after it is reachable.
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_FALSE(Load.WalDamaged);
  ASSERT_EQ(Load.Records.size(), 2u);
  EXPECT_EQ(Load.Records[0].Key, 1u);
  EXPECT_EQ(Load.Records[1].Key, 3u);
}
#endif // !__SANITIZE_THREAD__

//===----------------------------------------------------------------------===//
// Cache store
//===----------------------------------------------------------------------===//

TEST(CacheStore, RecordCodecRoundTrip) {
  persist::DurableCacheRecord Rec = makeRecord(5);
  auto Decoded = persist::decodeCacheRecord(persist::encodeCacheRecord(Rec));
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Key, Rec.Key);
  EXPECT_EQ(Decoded->CanonicalBytes, Rec.CanonicalBytes);
  EXPECT_EQ(Decoded->Cost, Rec.Cost);
  EXPECT_EQ(Decoded->Exact, Rec.Exact);
  EXPECT_EQ(toNewick(Decoded->Tree), toNewick(Rec.Tree));
}

TEST(CacheStore, AppendLoadCompactCycle) {
  ScratchDir Dir("store");
  std::vector<persist::DurableCacheRecord> Recs = {makeRecord(1),
                                                   makeRecord(2),
                                                   makeRecord(3)};
  {
    persist::CacheStore Store(Dir.path());
    for (const auto &Rec : Recs)
      ASSERT_TRUE(Store.append(Rec));
  }
  {
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_FALSE(Load.ColdStart);
    EXPECT_FALSE(Load.WalDamaged);
    EXPECT_EQ(Load.WalRecords, 3u);
    EXPECT_EQ(Load.SnapshotRecords, 0u);
    ASSERT_EQ(Load.Records.size(), 3u);
    EXPECT_EQ(Load.Records[1].Key, Recs[1].Key);
    // Compaction folds the WAL into the snapshot.
    ASSERT_TRUE(Store.compact(Load.Records));
  }
  {
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_EQ(Load.SnapshotRecords, 3u);
    EXPECT_EQ(Load.WalRecords, 0u);
    ASSERT_TRUE(Store.append(makeRecord(4)));
    EXPECT_EQ(Store.load().Records.size(), 4u);
  }
}

TEST(CacheStore, DamagedWalTailIsSkippedLoggedAndRepaired) {
  ScratchDir Dir("store_tail");
  {
    persist::CacheStore Store(Dir.path());
    Store.append(makeRecord(1));
    Store.append(makeRecord(2));
  }
  truncateTail(Dir.file("cache.wal"), 5);
  {
    LogCapture Capture;
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_TRUE(Load.WalDamaged);
    EXPECT_EQ(Load.Records.size(), 1u);
    EXPECT_EQ(Load.DroppedRecords, 0u);
    EXPECT_TRUE(Capture.contains("damaged tail"));
  }
  // The damaged tail was truncated away during load: a fresh load sees
  // a clean log, and new appends extend the intact prefix.
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_FALSE(Load.WalDamaged);
  EXPECT_EQ(Load.Records.size(), 1u);
  ASSERT_TRUE(Store.append(makeRecord(3)));
  EXPECT_EQ(Store.load().Records.size(), 2u);
}

TEST(CacheStore, IncompatibleStateStartsCold) {
  // A WAL written by a future format version, or by the previous one
  // (version 2 keyed records by FNV-1a), must not be interpreted.
  for (std::uint32_t Version : {999u, 2u}) {
    SCOPED_TRACE(Version);
    ScratchDir Dir("store_cold");
    {
      persist::Wal Other(Dir.file("cache.wal"), "MUTKCWAL", Version);
      Other.append(persist::encodeCacheRecord(makeRecord(1)), true);
    }
    LogCapture Capture;
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_TRUE(Load.ColdStart);
    EXPECT_TRUE(Load.Records.empty());
    EXPECT_TRUE(Capture.contains("starting cold"));
    // The store is usable immediately after the reset.
    ASSERT_TRUE(Store.append(makeRecord(2)));
    EXPECT_EQ(Store.load().Records.size(), 1u);
  }
}

// A record is untrusted input: one whose tree names a leaf the matrix
// does not have (an 8-species record with a leaf labelled 8), or whose
// identity is not as long as its size header says, must not decode —
// a replay would index past the permutation. It is a dropped record at
// load, as a bad CRC is.
TEST(CacheStore, RecordOutsideItsSpeciesIsDropped) {
  DistanceMatrix M = uniformRandomMetric(8, 12);
  CanonicalForm Form = canonicalForm(M);
  persist::DurableCacheRecord Good;
  Good.Key = Form.Key;
  Good.CanonicalBytes = Form.Bytes;
  Good.CanonicalBytes.insert(Good.CanonicalBytes.end(), {0, 0});
  Good.Tree = solveMutSequential(M).Tree.relabeled(Form.inversePerm());
  Good.Cost = 1.0;
  ASSERT_TRUE(
      persist::decodeCacheRecord(persist::encodeCacheRecord(Good)).has_value());

  std::vector<persist::DurableCacheRecord> Bad;
  for (int Label : {8, 100000000}) {
    std::vector<int> Map(8);
    std::iota(Map.begin(), Map.end(), 0);
    Map[3] = Label;
    Bad.push_back(Good);
    Bad.back().Tree = Good.Tree.relabeled(Map);
  }
  Bad.push_back(Good); // a knob byte short
  Bad.back().CanonicalBytes.pop_back();
  Bad.push_back(Good); // a block record carries no knob bytes
  Bad.back().Space = persist::CacheNamespace::Block;
  for (const persist::DurableCacheRecord &Rec : Bad)
    EXPECT_FALSE(
        persist::decodeCacheRecord(persist::encodeCacheRecord(Rec)).has_value())
        << toNewick(Rec.Tree) << ", " << Rec.CanonicalBytes.size() << " bytes";

  ScratchDir Dir("store_foreign");
  persist::CacheStore Store(Dir.path());
  for (const persist::DurableCacheRecord &Rec : Bad)
    ASSERT_TRUE(Store.append(Rec));
  ASSERT_TRUE(Store.append(Good));
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_EQ(Load.DroppedRecords, Bad.size());
  ASSERT_EQ(Load.Records.size(), 1u);
  EXPECT_EQ(Load.Records[0].Key, Good.Key);
}

// A 200,000-deep caterpillar is a 2.8 MB record, well under the frame
// cap. Decoding it must not recurse once per level: on an 8 MB thread
// stack that overflowed. The tree itself decodes (MP solutions and
// checkpoints share the decoder); as a cache record it is rejected.
TEST(CacheStore, DeepTreeRecordIsRejectedWithoutACrash) {
  constexpr int Depth = 200000;
  ByteWriter Caterpillar;
  Caterpillar.writeU8(1); // has a root
  for (int I = 0; I < Depth; ++I) {
    Caterpillar.writeU8(1); // internal: height, left leaf, then the rest
    Caterpillar.writeF64(static_cast<double>(Depth - I));
    Caterpillar.writeU8(0);
    Caterpillar.writeI32(I);
  }
  Caterpillar.writeU8(0);
  Caterpillar.writeI32(Depth);
  Caterpillar.writeU32(0); // no names

  ByteWriter Record;
  Record.writeU64(1);
  Record.writeBytes(canonicalForm(uniformRandomMetric(6, 1)).Bytes);
  Record.writeF64(1.0);
  Record.writeU8(1);
  Record.writeU8(static_cast<std::uint8_t>(persist::CacheNamespace::Block));
  const std::vector<std::uint8_t> TreeBytes = Caterpillar.take();
  std::vector<std::uint8_t> RecordBytes = Record.take();
  RecordBytes.insert(RecordBytes.end(), TreeBytes.begin(), TreeBytes.end());
  ASSERT_GT(RecordBytes.size(), 2'800'000u);

  std::optional<PhyloTree> Decoded;
  bool RecordDecoded = true;
  std::thread([&] {
    Decoded = decodePhyloTree(TreeBytes);
    RecordDecoded = persist::decodeCacheRecord(RecordBytes).has_value();
  }).join();
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->numLeaves(), Depth + 1);
  EXPECT_FALSE(RecordDecoded);
}

//===----------------------------------------------------------------------===//
// Job journal
//===----------------------------------------------------------------------===//

TEST(JobJournal, PendingJobsSurviveCompletedOnesDoNot) {
  ScratchDir Dir("jobs");
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(5, 3);
  std::vector<std::uint8_t> Encoded = encodeRequest(makeBuildRequest(Build));
  {
    persist::JobJournal J(Dir.path());
    ASSERT_TRUE(J.submitted(1, Encoded));
    ASSERT_TRUE(J.submitted(2, Encoded));
    ASSERT_TRUE(J.submitted(3, Encoded));
    ASSERT_TRUE(J.completed(2));
    ASSERT_TRUE(J.completed(1));
  }
  std::vector<persist::PendingJob> Pending;
  {
    persist::JobJournal J(Dir.path());
    Pending = J.load();
  }
  ASSERT_EQ(Pending.size(), 1u);
  EXPECT_EQ(Pending[0].Id, 3u);
  std::optional<Request> Decoded = decodeRequest(Pending[0].EncodedRequest);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->V, Verb::Build);
  EXPECT_EQ(Decoded->Build.Matrix.size(), 5);
  // load() compacted the journal down to the survivors.
  persist::JobJournal Again(Dir.path());
  std::vector<persist::PendingJob> Reloaded = Again.load();
  ASSERT_EQ(Reloaded.size(), 1u);
  EXPECT_EQ(Reloaded[0].Id, 3u);
}

TEST(JobJournal, DamagedTailTruncated) {
  ScratchDir Dir("jobs_tail");
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(4, 1);
  std::vector<std::uint8_t> Encoded = encodeRequest(makeBuildRequest(Build));
  {
    persist::JobJournal J(Dir.path());
    J.submitted(1, Encoded);
    J.submitted(2, Encoded);
  }
  truncateTail(Dir.file("jobs.wal"), 4);
  LogCapture Capture;
  persist::JobJournal J(Dir.path());
  std::vector<persist::PendingJob> Pending = J.load();
  ASSERT_EQ(Pending.size(), 1u);
  EXPECT_EQ(Pending[0].Id, 1u);
  EXPECT_TRUE(Capture.contains("damaged tail"));
}

TEST(JobJournal, StaysBoundedWhileRunning) {
  ScratchDir Dir("jobs_bound");
  constexpr std::size_t RequestBytes = 6500;
  // Frame header, tag, id, byte-string length, request.
  constexpr std::uint64_t OneRecord = 8 + 1 + 8 + 4 + RequestBytes;
  constexpr std::uint64_t Bound = (8u << 20) + OneRecord;
  const std::string Path = Dir.file("jobs.wal");
  auto requestOf = [&](std::uint64_t Id) {
    return std::vector<std::uint8_t>(RequestBytes,
                                     static_cast<std::uint8_t>(Id));
  };
  {
    persist::JobJournal J(Dir.path());
    std::uint64_t Largest = 0;
    for (std::uint64_t Id = 1; Id <= 2000; ++Id) {
      ASSERT_TRUE(J.submitted(Id, requestOf(Id)));
      Largest = std::max(Largest, persist::fileSize(Path));
      if (Id != 7 && Id != 1500) {
        ASSERT_TRUE(J.completed(Id));
      }
      Largest = std::max(Largest, persist::fileSize(Path));
    }
    EXPECT_LT(Largest, Bound);
  }
  persist::JobJournal J(Dir.path());
  std::vector<persist::PendingJob> Pending = J.load();
  ASSERT_EQ(Pending.size(), 2u);
  EXPECT_EQ(Pending[0].Id, 7u);
  EXPECT_EQ(Pending[0].EncodedRequest, requestOf(7));
  EXPECT_EQ(Pending[1].Id, 1500u);
  EXPECT_EQ(Pending[1].EncodedRequest, requestOf(1500));
}

//===----------------------------------------------------------------------===//
// Solver checkpoint/resume
//===----------------------------------------------------------------------===//

TEST(Resume, SequentialResumesToIdenticalCost) {
  DistanceMatrix M = uniformRandomMetric(10, 42);
  MutResult Ref = solveMutSequential(M);
  ASSERT_TRUE(Ref.Stats.Complete);
  ASSERT_GT(Ref.Stats.Branched, 8u);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = Ref.Stats.Branched / 2;
  MutResult Partial = solveMutSequential(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.Count, 0u);
  EXPECT_EQ(Sink.Last.MatrixKey, fingerprint(M));

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  MutResult Done = solveMutSequential(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
  // Counters continue across the interruption instead of restarting.
  EXPECT_GE(Done.Stats.Branched, Sink.Last.Stats.Branched);
}

TEST(Resume, BestFirstResumesToIdenticalCost) {
  DistanceMatrix M = uniformRandomMetric(10, 7);
  BestFirstResult Ref = solveMutBestFirst(M);
  ASSERT_TRUE(Ref.Stats.Complete);
  ASSERT_GT(Ref.Stats.Branched, 8u);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = Ref.Stats.Branched / 2;
  BestFirstResult Partial = solveMutBestFirst(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.Count, 0u);

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  BestFirstResult Done = solveMutBestFirst(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

TEST(Resume, ThreadedResumesSequentialCheckpoint) {
  // Cross-engine resume: the checkpoint format is solver-independent
  // (same maxmin label space), so a search interrupted under the DFS
  // solver can be finished by the threaded one.
  DistanceMatrix M = uniformRandomMetric(10, 19);
  MutResult Ref = solveMutSequential(M);
  ASSERT_TRUE(Ref.Stats.Complete);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = std::max<std::uint64_t>(
      1, Ref.Stats.Branched / 2);
  solveMutSequential(M, Interrupted);
  ASSERT_GT(Sink.Count, 0u);

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  ParallelMutResult Done = solveMutThreaded(M, 4, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

TEST(Resume, ThreadedCheckpointsWhileSolving) {
  DistanceMatrix M = uniformRandomMetric(11, 23);
  MutResult Ref = solveMutSequential(M);

  MemorySink Sink;
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.CheckpointEverySeconds = 0.001;
  ParallelMutResult R = solveMutThreaded(M, 3, Options);
  EXPECT_TRUE(R.Stats.Complete);
  EXPECT_NEAR(R.Cost, Ref.Cost, 1e-9);
  // Whether a checkpoint fired depends on timing; when one did, it must
  // be resumable to the same optimum.
  if (Sink.Count > 0) {
    BnbOptions Resume;
    Resume.ResumeFrom = &Sink.Last;
    ParallelMutResult Done = solveMutThreaded(M, 3, Resume);
    EXPECT_TRUE(Done.Stats.Complete);
    EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
  }
}

TEST(Resume, MismatchedMatrixStartsFresh) {
  DistanceMatrix A = uniformRandomMetric(9, 1);
  DistanceMatrix B = uniformRandomMetric(9, 2);
  ASSERT_NE(fingerprint(A), fingerprint(B));

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = 4;
  solveMutSequential(A, Interrupted);
  ASSERT_GT(Sink.Count, 0u);

  // Resuming a checkpoint of A against B is refused (fingerprint
  // mismatch) — B still solves to its own optimum from scratch.
  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  MutResult RB = solveMutSequential(B, Resume);
  MutResult RefB = solveMutSequential(B);
  EXPECT_TRUE(RB.Stats.Complete);
  EXPECT_NEAR(RB.Cost, RefB.Cost, 1e-9);
}

TEST(Resume, CheckpointCodecRoundTrip) {
  DistanceMatrix M = uniformRandomMetric(9, 13);
  MemorySink Sink;
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.MaxBranchedNodes = 10;
  solveMutSequential(M, Options);
  ASSERT_GT(Sink.Count, 0u);

  std::optional<SearchCheckpoint> Decoded =
      decodeSearchCheckpoint(encodeSearchCheckpoint(Sink.Last));
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Frontier.size(), Sink.Last.Frontier.size());
  EXPECT_EQ(Decoded->UpperBound, Sink.Last.UpperBound);
  EXPECT_EQ(Decoded->MatrixKey, Sink.Last.MatrixKey);
  EXPECT_EQ(Decoded->Stats.Branched, Sink.Last.Stats.Branched);
  EXPECT_EQ(toNewick(Decoded->Incumbent), toNewick(Sink.Last.Incumbent));

  BnbOptions Resume;
  Resume.ResumeFrom = &*Decoded;
  MutResult Done = solveMutSequential(M, Resume);
  MutResult Ref = solveMutSequential(M);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

//===----------------------------------------------------------------------===//
// File-backed checkpoints
//===----------------------------------------------------------------------===//

TEST(FileCheckpoint, WriteLoadResumeRemove) {
  ScratchDir Dir("ckpt");
  std::string Path = Dir.file("search.ckpt");
  DistanceMatrix M = uniformRandomMetric(10, 31);
  MutResult Ref = solveMutSequential(M);

  persist::FileCheckpointSink Sink(Path);
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = std::max<std::uint64_t>(
      1, Ref.Stats.Branched / 2);
  MutResult Partial = solveMutSequential(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.writes(), 0u);

  std::optional<SearchCheckpoint> Loaded = persist::loadCheckpoint(Path);
  ASSERT_TRUE(Loaded.has_value());
  BnbOptions Resume;
  Resume.ResumeFrom = &*Loaded;
  MutResult Done = solveMutSequential(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);

  EXPECT_TRUE(persist::removeCheckpoint(Path));
  EXPECT_FALSE(persist::loadCheckpoint(Path).has_value());
}

TEST(FileCheckpoint, CorruptFileIsRejectedNotTrusted) {
  ScratchDir Dir("ckpt_bad");
  std::string Path = Dir.file("search.ckpt");
  DistanceMatrix M = uniformRandomMetric(9, 3);
  persist::FileCheckpointSink Sink(Path);
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.MaxBranchedNodes = 8;
  solveMutSequential(M, Options);
  ASSERT_GT(Sink.writes(), 0u);

  std::uint64_t Size = persist::fileSize(Path);
  ASSERT_GT(Size, 16u);
  flipByte(Path, static_cast<std::size_t>(Size) - 4);
  LogCapture Capture;
  EXPECT_FALSE(persist::loadCheckpoint(Path).has_value());
  EXPECT_TRUE(Capture.contains("checkpoint ignored"));
}

//===----------------------------------------------------------------------===//
// Pipeline per-block checkpoints
//===----------------------------------------------------------------------===//

TEST(PipelineCheckpoint, HooksProduceSameTreeAndCleanUp) {
  ScratchDir Dir("blocks");
  DistanceMatrix M = plantedClusterMetric(18, 77);
  PipelineOptions Plain;
  PipelineResult Ref = buildCompactSetTree(M, Plain);

  auto PathFor = [&](std::uint64_t Key) {
    return Dir.file(std::to_string(Key) + ".ckpt");
  };
  BlockCheckpointHooks Hooks;
  Hooks.SinkFor = [&](std::uint64_t Key) {
    return std::make_unique<persist::FileCheckpointSink>(PathFor(Key));
  };
  Hooks.Load = [&](std::uint64_t Key) {
    return persist::loadCheckpoint(PathFor(Key));
  };
  Hooks.Done = [&](std::uint64_t Key) { persist::removeCheckpoint(PathFor(Key)); };

  PipelineOptions WithHooks;
  WithHooks.BlockCheckpoint = &Hooks;
  WithHooks.Bnb.CheckpointEveryNodes = 1;
  PipelineResult R = buildCompactSetTree(M, WithHooks);
  EXPECT_NEAR(R.Cost, Ref.Cost, 1e-9);
  EXPECT_EQ(toNewick(R.Tree), toNewick(Ref.Tree));
  // Every exactly-solved block finished, so Done() removed every file.
  EXPECT_TRUE(std::filesystem::is_empty(Dir.path()));
}

//===----------------------------------------------------------------------===//
// Service restart recovery
//===----------------------------------------------------------------------===//

TEST(ServiceRecovery, DurableCacheServesHitsAcrossRestart) {
  ScratchDir Dir("svc_cache");
  DistanceMatrix M = uniformRandomMetric(10, 7);
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();

  double Cost = 0.0;
  {
    TreeService Service(Options);
    BuildRequest Req;
    Req.Matrix = M;
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_FALSE(Resp.CacheHit);
    Cost = Resp.Cost;
    Service.stop();
  }
  {
    TreeService Service(Options);
    BuildRequest Req;
    Req.Matrix = M;
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_TRUE(Resp.CacheHit);
    EXPECT_NEAR(Resp.Cost, Cost, 1e-9);
    EXPECT_GE(Service.stats().WholeHits, 1u);

    // Relabeling-invariance survives the disk round trip too.
    std::vector<int> Perm(10);
    std::iota(Perm.begin(), Perm.end(), 0);
    std::reverse(Perm.begin(), Perm.end());
    BuildRequest Relabeled;
    Relabeled.Matrix = M.permuted(Perm);
    BuildResponse Resp2 = Service.submit(Relabeled);
    ASSERT_TRUE(Resp2.ok());
    EXPECT_TRUE(Resp2.CacheHit);
    EXPECT_NEAR(Resp2.Cost, Cost, 1e-9);

    // The persist instruments flow into the StatsJson surface.
    EXPECT_NE(Service.statsJson().find("mutk_persist_wal_appends_total"),
              std::string::npos);
    Service.stop();
  }
}

TEST(ServiceRecovery, JournaledJobIsReRunAfterCrash) {
  ScratchDir Dir("svc_jobs");
  DistanceMatrix M = uniformRandomMetric(9, 11);
  BuildRequest Req;
  Req.Matrix = M;
  {
    // Simulated crash: the job reached the journal but no worker ever
    // marked it complete (the process "died" before solving).
    persist::JobJournal Journal(Dir.path());
    ASSERT_TRUE(Journal.submitted(7, encodeRequest(makeBuildRequest(Req))));
  }
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();
  {
    TreeService Service(Options);
    // The recovered job runs in the background; wait for it to finish.
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    while (Service.stats().Completed < 1 &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(Service.stats().Completed, 1u);
    Service.stop();
  }
  {
    // Its solution became durable: a fresh daemon answers from cache.
    TreeService Service(Options);
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_TRUE(Resp.CacheHit);
    Service.stop();
  }
  // And the journal no longer lists the job as pending.
  persist::JobJournal Journal(Dir.path());
  EXPECT_TRUE(Journal.load().empty());
}

TEST(ServiceRecovery, EarlyCompactionKeepsTheTriggeringRecord) {
  ScratchDir Dir("svc_compact");
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();
  Options.WalCompactBytes = 1; // every record triggers a compaction
  TreeService Service(Options);
  BuildRequest Req;
  Req.Matrix = uniformRandomMetric(10, 7);
  BuildResponse Resp = Service.submit(Req);
  ASSERT_TRUE(Resp.ok());
  ASSERT_TRUE(Resp.Exact);

  // While the service still runs, its state dir already holds the
  // whole-matrix record whose append triggered the last compaction.
  persist::CacheStore Other(Dir.path());
  persist::CacheStore::LoadResult Load = Other.load();
  EXPECT_EQ(std::count_if(Load.Records.begin(), Load.Records.end(),
                          [](const persist::DurableCacheRecord &Rec) {
                            return Rec.Space == persist::CacheNamespace::Whole;
                          }),
            1);
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Kill-and-recover
//===----------------------------------------------------------------------===//

// fork() under ThreadSanitizer deadlocks sporadically when the parent
// holds runtime locks; the durability property is already exercised by
// the ASan and Release legs, so skip the hard-kill test there.
#if !defined(__SANITIZE_THREAD__)
TEST(CrashRecovery, SigkilledWriterLeavesLoadablePrefix) {
  ScratchDir Dir("kill");
  // Build the record in the parent: the child only appends bytes.
  persist::DurableCacheRecord Rec = makeRecord(1);

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: append records as fast as possible until killed.
    persist::CacheStore Store(Dir.path());
    std::uint64_t I = 0;
    for (;;) {
      Rec.Key = ++I;
      Store.append(Rec, /*Sync=*/false);
    }
    _exit(0); // unreachable
  }

  // Parent: wait until the WAL has real volume, then kill mid-write.
  std::string WalPath = Dir.file("cache.wal");
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (persist::fileSize(WalPath) < (64u << 10) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(persist::fileSize(WalPath), 64u << 10)
      << "writer child made no progress";
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status));

  // The survivor sees an intact prefix of the append sequence: possibly
  // a torn final frame (skipped), never a decoded-but-wrong record.
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_FALSE(Load.ColdStart);
  EXPECT_EQ(Load.DroppedRecords, 0u);
  ASSERT_GT(Load.Records.size(), 0u);
  for (std::size_t I = 0; I < Load.Records.size(); ++I)
    EXPECT_EQ(Load.Records[I].Key, I + 1);
  // And the repaired store accepts new work.
  EXPECT_TRUE(Store.append(makeRecord(2)));
}
#endif // !__SANITIZE_THREAD__

//===----------------------------------------------------------------------===//
// Group commit
//===----------------------------------------------------------------------===//

TEST(GroupCommit, ConcurrentAppendersShareFlushes) {
  ScratchDir Dir("group");
  constexpr int Threads = 8;
  constexpr int PerThread = 50;
  const std::string Path = Dir.file("log.wal");
  obs::Counter &Syncs = obs::persistInstruments().WalSyncs;
  const std::uint64_t SyncsBefore = Syncs.value();
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    std::vector<std::thread> Pool;
    for (int T = 0; T < Threads; ++T)
      Pool.emplace_back([&W, T] {
        for (int I = 0; I < PerThread; ++I)
          EXPECT_TRUE(W.append({static_cast<std::uint8_t>(T),
                                static_cast<std::uint8_t>(I)},
                               /*Sync=*/true));
      });
    for (std::thread &Th : Pool)
      Th.join();
  }
  EXPECT_LT(Syncs.value() - SyncsBefore,
            static_cast<std::uint64_t>(Threads * PerThread));

  persist::Wal::ReplayResult Replay = persist::Wal(Path, "MUTKTEST", 1).replay();
  EXPECT_FALSE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(),
            static_cast<std::size_t>(Threads * PerThread));
  std::vector<int> Next(Threads, 0);
  for (const std::vector<std::uint8_t> &Rec : Replay.Records) {
    ASSERT_EQ(Rec.size(), 2u);
    ASSERT_LT(Rec[0], Threads);
    EXPECT_EQ(Rec[1], Next[Rec[0]]) << "thread " << int(Rec[0]);
    Next[Rec[0]] = Rec[1] + 1;
  }
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Next[T], PerThread);
}

#if !defined(__SANITIZE_THREAD__)
TEST(GroupCommit, SigkilledAppendersKeepEveryAcknowledgedRecord) {
  ScratchDir Dir("group_kill");
  persist::DurableCacheRecord Rec = makeRecord(1);
  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: four threads append synced records until killed and report
    // each key whose append returned true.
    ::close(Pipe[0]);
    persist::CacheStore Store(Dir.path());
    std::vector<std::thread> Pool;
    for (std::uint64_t T = 1; T <= 4; ++T)
      Pool.emplace_back([&Store, &Pipe, Rec, T]() mutable {
        for (std::uint64_t I = 1;; ++I) {
          Rec.Key = T << 32 | I;
          if (Store.append(Rec, /*Sync=*/true) &&
              ::write(Pipe[1], &Rec.Key, sizeof(Rec.Key)) !=
                  static_cast<ssize_t>(sizeof(Rec.Key)))
            _exit(2);
        }
      });
    for (std::thread &Th : Pool)
      Th.join();
    _exit(0); // unreachable
  }
  ::close(Pipe[1]);

  // Parent: collect acknowledgements, kill mid-stream, then drain what
  // the child reported before it died.
  std::set<std::uint64_t> Acked;
  auto readKey = [&] {
    std::uint64_t Key = 0;
    std::size_t Got = 0;
    while (Got < sizeof(Key)) {
      ssize_t N = ::read(Pipe[0], reinterpret_cast<char *>(&Key) + Got,
                         sizeof(Key) - Got);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Got += static_cast<std::size_t>(N);
    }
    Acked.insert(Key);
    return true;
  };
  while (Acked.size() < 300 && readKey()) {
  }
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status)) << "writer child exited on its own";
  while (readKey()) {
  }
  ::close(Pipe[0]);
  ASSERT_GE(Acked.size(), 300u);

  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_EQ(Load.DroppedRecords, 0u);
  std::set<std::uint64_t> Loaded;
  for (const persist::DurableCacheRecord &R : Load.Records)
    Loaded.insert(R.Key);
  for (std::uint64_t Key : Acked)
    EXPECT_TRUE(Loaded.count(Key)) << "acknowledged key " << Key << " lost";
}
#endif // !__SANITIZE_THREAD__

namespace {

/// A block-diagonal composition of three near-equidistant modules 80
/// apart (the ledger's `overlap-durable` shape, smaller): module 0 comes
/// from a pool of four, so requests also hit each other's block records.
DistanceMatrix smallComposition(std::uint64_t Index) {
  const int Sizes[] = {6, 6, 5};
  const std::uint64_t Seeds[] = {Index % 4, 100 + Index, 200 + Index};
  DistanceMatrix M(17);
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J)
      M.set(I, J, 80.0);
  int Offset = 0;
  for (int K = 0; K < 3; ++K) {
    DistanceMatrix Module = scaledToMax(
        uniformRandomMetric(Sizes[K], Seeds[K], 18.0, 20.0), 20.0);
    for (int I = 0; I < Sizes[K]; ++I)
      for (int J = I + 1; J < Sizes[K]; ++J)
        M.set(Offset + I, Offset + J, Module.at(I, J));
    Offset += Sizes[K];
  }
  return M;
}

} // namespace

TEST(GroupCommit, ServiceFlushesAtMostTwicePerRequest) {
  ScratchDir Dir("group_svc");
  constexpr int Requests = 32;
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();
  obs::PersistInstruments &I = obs::persistInstruments();
  const std::uint64_t SyncsBefore = I.WalSyncs.value();
  const std::uint64_t AppendsBefore = I.WalAppends.value();
  {
    TreeService Service(Options);
    // Four client threads, like concurrent connections.
    std::vector<std::future<BuildResponse>> Answers(Requests);
    std::vector<std::thread> Clients;
    for (int C = 0; C < 4; ++C)
      Clients.emplace_back([&, C] {
        for (int R = C; R < Requests; R += 4) {
          BuildRequest Req;
          Req.Matrix = smallComposition(static_cast<std::uint64_t>(R));
          Answers[static_cast<std::size_t>(R)] =
              Service.submitAsync(std::move(Req));
        }
      });
    for (std::thread &T : Clients)
      T.join();
    for (std::future<BuildResponse> &A : Answers) {
      BuildResponse Resp = A.get();
      ASSERT_TRUE(Resp.ok()) << Resp.Message;
      EXPECT_TRUE(Resp.Exact);
    }
    // One synced journal record per request, and every block and
    // whole-matrix record unsynced until its answer's single wait (per
    // record syncing issued about six flushes per request).
    EXPECT_GT(I.WalAppends.value() - AppendsBefore,
              static_cast<std::uint64_t>(3 * Requests));
    EXPECT_LE(I.WalSyncs.value() - SyncsBefore,
              static_cast<std::uint64_t>(2 * Requests));
    Service.stop();
  }
  // Shutdown leaves an empty job journal...
  EXPECT_TRUE(persist::Wal(Dir.file("jobs.wal"), "MUTKJOBS", 1)
                  .replay()
                  .Records.empty());
  // ...and every answer durable: a restarted service hits all of them.
  TreeService Service(Options);
  for (int R = 0; R < Requests; ++R) {
    BuildRequest Req;
    Req.Matrix = smallComposition(static_cast<std::uint64_t>(R));
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_TRUE(Resp.CacheHit) << "request " << R;
  }
  Service.stop();
}

TEST(GroupCommit, UnsyncedCacheSkipsTheAnswerWait) {
  ScratchDir Dir("group_nosync");
  constexpr int Requests = 4;
  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.StateDir = Dir.path();
  Options.SyncWrites = false;
  obs::Counter &Syncs = obs::persistInstruments().WalSyncs;
  const std::uint64_t SyncsBefore = Syncs.value();
  TreeService Service(Options);
  for (int R = 0; R < Requests; ++R) {
    BuildRequest Req;
    Req.Matrix = smallComposition(static_cast<std::uint64_t>(R));
    ASSERT_TRUE(Service.submit(Req).ok());
  }
  // One request at a time: each journal `Submitted` record needs its own
  // flush, and no cache record is ever flushed.
  EXPECT_EQ(Syncs.value() - SyncsBefore,
            static_cast<std::uint64_t>(Requests));
  Service.stop();
}

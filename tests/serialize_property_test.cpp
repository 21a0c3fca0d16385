//===- tests/serialize_property_test.cpp - Codec properties -----*- C++ -*-===//
//
// Property tests over every codec the cluster ships across machines:
// search checkpoints, phylogenetic trees, protocol requests/responses
// and shard-cache entries. Two properties per codec: decode(encode(x))
// reproduces x for randomized inputs, and corrupted bytes (truncations,
// bit flips) are *rejected or ignored* — never crash, never decode into
// a value that silently lies about the original. The flip loops run the
// decoders over thousands of malformed buffers, which is where ASan/
// UBSan earn their keep.
//
//===----------------------------------------------------------------------===//

#include "bnb/Checkpoint.h"
#include "bnb/Engine.h"
#include "bnb/SequentialBnb.h"
#include "dist/Cluster.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "mp/Communicator.h"
#include "mp/MpBnb.h"
#include "mp/Serialize.h"
#include "service/Protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace mutk;

namespace {

/// Deterministic splitmix64 stream — keeps every "random" case
/// reproducible from its seed.
struct Rng {
  std::uint64_t State;
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    std::uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  std::uint64_t below(std::uint64_t Bound) { return next() % Bound; }
};

/// A partial topology with a random number of placed species.
Topology randomTopology(const DistanceMatrix &M, Rng &R) {
  Topology T = Topology::initialPair(M);
  int Target = 2 + static_cast<int>(R.below(
                       static_cast<std::uint64_t>(M.size() - 1)));
  while (T.numPlaced() < Target)
    T = T.withNextSpeciesAt(static_cast<int>(R.below(
                                static_cast<std::uint64_t>(T.numNodes()))),
                            M);
  return T;
}

SearchCheckpoint randomCheckpoint(const DistanceMatrix &M, Rng &R) {
  SearchCheckpoint Ck;
  int FrontierSize = 1 + static_cast<int>(R.below(6));
  for (int I = 0; I < FrontierSize; ++I)
    Ck.Frontier.push_back(randomTopology(M, R));
  MutResult Solved = solveMutSequential(M);
  Ck.Incumbent = Solved.Tree;
  Ck.UpperBound = Solved.Cost;
  Ck.Stats.Branched = R.next() % 100000;
  Ck.Stats.Generated = R.next() % 100000;
  Ck.Stats.PrunedByBound = R.next() % 100000;
  Ck.Stats.PrunedByThreeThree = R.next() % 100000;
  Ck.Stats.UbUpdates = R.next() % 1000;
  Ck.Stats.Complete = (R.next() & 1) != 0;
  Ck.MatrixKey = labeledKey(M);
  return Ck;
}

void expectTopologyEq(const Topology &A, const Topology &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numPlaced(), B.numPlaced());
  EXPECT_DOUBLE_EQ(A.cost(), B.cost());
  for (int I = 0; I < A.numNodes(); ++I) {
    EXPECT_EQ(A.node(I).Mask, B.node(I).Mask);
    EXPECT_DOUBLE_EQ(A.node(I).Height, B.node(I).Height);
  }
}

/// Structural equality. The codec stores a pre-order traversal, so a
/// decoded tree may index its nodes differently from the original;
/// comparing the canonical encodings compares shape, species, heights
/// and names while ignoring the storage order.
void expectTreeEq(const PhyloTree &A, const PhyloTree &B) {
  EXPECT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numLeaves(), B.numLeaves());
  EXPECT_DOUBLE_EQ(A.weight(), B.weight());
  EXPECT_EQ(encodePhyloTree(A), encodePhyloTree(B));
}

//===----------------------------------------------------------------------===//
// Checkpoints
//===----------------------------------------------------------------------===//

TEST(CheckpointCodec, RandomRoundTrips) {
  for (std::uint64_t Seed = 0; Seed < 6; ++Seed) {
    Rng R(Seed * 7919 + 1);
    DistanceMatrix M =
        uniformRandomMetric(6 + static_cast<int>(Seed % 4), Seed);
    SearchCheckpoint Ck = randomCheckpoint(M, R);
    auto Back = decodeSearchCheckpoint(encodeSearchCheckpoint(Ck));
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    ASSERT_EQ(Back->Frontier.size(), Ck.Frontier.size());
    for (std::size_t I = 0; I < Ck.Frontier.size(); ++I)
      expectTopologyEq(Back->Frontier[I], Ck.Frontier[I]);
    expectTreeEq(Back->Incumbent, Ck.Incumbent);
    EXPECT_DOUBLE_EQ(Back->UpperBound, Ck.UpperBound);
    EXPECT_EQ(Back->Stats.Branched, Ck.Stats.Branched);
    EXPECT_EQ(Back->Stats.Generated, Ck.Stats.Generated);
    EXPECT_EQ(Back->Stats.PrunedByBound, Ck.Stats.PrunedByBound);
    EXPECT_EQ(Back->Stats.PrunedByThreeThree, Ck.Stats.PrunedByThreeThree);
    EXPECT_EQ(Back->Stats.UbUpdates, Ck.Stats.UbUpdates);
    EXPECT_EQ(Back->Stats.Complete, Ck.Stats.Complete);
    EXPECT_EQ(Back->MatrixKey, Ck.MatrixKey);
  }
}

TEST(CheckpointCodec, EveryTruncationIsRejected) {
  Rng R(17);
  DistanceMatrix M = uniformRandomMetric(7, 3);
  std::vector<std::uint8_t> Bytes =
      encodeSearchCheckpoint(randomCheckpoint(M, R));
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<std::uint8_t> Prefix(Bytes.begin(),
                                     Bytes.begin() +
                                         static_cast<std::ptrdiff_t>(Len));
    EXPECT_FALSE(decodeSearchCheckpoint(Prefix).has_value())
        << "strict prefix of length " << Len << " decoded";
  }
}

TEST(CheckpointCodec, ByteFlipsNeverCrashTheDecoder) {
  Rng R(23);
  DistanceMatrix M = uniformRandomMetric(7, 5);
  std::vector<std::uint8_t> Bytes =
      encodeSearchCheckpoint(randomCheckpoint(M, R));
  // Flip every byte position through a handful of masks. Decoding may
  // succeed (a flipped count or height is still well-formed) or fail —
  // it must only never read out of bounds.
  for (std::size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<std::uint8_t> Mutated = Bytes;
    Mutated[I] ^= static_cast<std::uint8_t>(1u << (I % 8));
    (void)decodeSearchCheckpoint(Mutated);
  }
}

//===----------------------------------------------------------------------===//
// Trees
//===----------------------------------------------------------------------===//

TEST(TreeCodec, RandomRoundTrips) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M =
        uniformRandomMetric(2 + static_cast<int>(Seed), Seed + 100);
    PhyloTree Tree = solveMutSequential(M).Tree;
    auto Back = decodePhyloTree(encodePhyloTree(Tree));
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    expectTreeEq(*Back, Tree);
  }
  // Degenerate shapes survive too.
  PhyloTree Single;
  Single.setRoot(Single.addLeaf(0));
  auto Back = decodePhyloTree(encodePhyloTree(Single));
  ASSERT_TRUE(Back.has_value());
  expectTreeEq(*Back, Single);
}

TEST(TreeCodec, ByteFlipsNeverCrashTheDecoder) {
  PhyloTree Tree = solveMutSequential(uniformRandomMetric(9, 9)).Tree;
  std::vector<std::uint8_t> Bytes = encodePhyloTree(Tree);
  for (std::size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<std::uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0xFF;
    (void)decodePhyloTree(Mutated);
    Mutated.resize(I);
    EXPECT_FALSE(decodePhyloTree(Mutated).has_value());
  }
}

//===----------------------------------------------------------------------===//
// Protocol requests and responses (the JobGrant / JobResult bodies)
//===----------------------------------------------------------------------===//

TEST(ProtocolCodec, RandomBuildRequestsRoundTrip) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    Rng R(Seed * 31 + 7);
    BuildRequest Build;
    Build.Matrix = uniformRandomMetric(4 + static_cast<int>(R.below(8)),
                                       Seed);
    Build.Mode = (R.next() & 1) ? CondenseMode::Maximum : CondenseMode::Minimum;
    Build.ThreeThree = (R.next() & 1) ? ThreeThreeMode::ThirdSpecies
                                      : ThreeThreeMode::None;
    Build.MaxExactBlockSize = 4 + static_cast<int>(R.below(20));
    Build.Polish = (R.next() & 1) != 0;
    Build.NodeBudget = R.next() % 1000000;
    Build.DeadlineMillis = static_cast<std::uint32_t>(R.below(100000));
    Build.UseCache = (R.next() & 1) != 0;
    Build.Priority = static_cast<RequestPriority>(R.below(3));
    Build.Tenant = (R.next() & 1) ? "tenant-" + std::to_string(R.below(10))
                                  : std::string();

    auto Back = decodeRequest(encodeRequest(makeBuildRequest(Build)));
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    EXPECT_EQ(Back->V, Verb::Build);
    EXPECT_TRUE(Back->Build.Matrix.approxEquals(Build.Matrix, 0.0));
    EXPECT_EQ(Back->Build.Mode, Build.Mode);
    EXPECT_EQ(Back->Build.ThreeThree, Build.ThreeThree);
    EXPECT_EQ(Back->Build.MaxExactBlockSize, Build.MaxExactBlockSize);
    EXPECT_EQ(Back->Build.Polish, Build.Polish);
    EXPECT_EQ(Back->Build.NodeBudget, Build.NodeBudget);
    EXPECT_EQ(Back->Build.DeadlineMillis, Build.DeadlineMillis);
    EXPECT_EQ(Back->Build.UseCache, Build.UseCache);
    EXPECT_EQ(Back->Build.Priority, Build.Priority);
    EXPECT_EQ(Back->Build.Tenant, Build.Tenant);
  }
}

TEST(ProtocolCodec, RandomBuildResponsesRoundTrip) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    Rng R(Seed * 17 + 3);
    Response Resp;
    Resp.V = Verb::Build;
    Resp.Build.Newick = "(a,(b,c));";
    Resp.Build.Cost = static_cast<double>(R.below(1000)) / 8.0;
    Resp.Build.Exact = (R.next() & 1) != 0;
    Resp.Build.CacheHit = (R.next() & 1) != 0;
    Resp.Build.BlockCacheHits = static_cast<std::uint32_t>(R.below(50));
    Resp.Build.Branched = R.next() % 100000;
    const std::uint64_t NumBlocks = 1 + R.below(4);
    for (std::uint64_t B = 0; B < NumBlocks; ++B) {
      BlockSummary S;
      S.NumBlocks = 2 + static_cast<std::int32_t>(R.below(10));
      S.Cost = static_cast<double>(R.below(100));
      S.Exact = (R.next() & 1) != 0;
      S.FromCache = (R.next() & 1) != 0;
      Resp.Build.Blocks.push_back(S);
    }
    Resp.Build.DirtyBlocks = static_cast<std::uint32_t>(R.below(20));
    Resp.Build.CleanBlocks = static_cast<std::uint32_t>(R.below(20));
    Resp.Build.QueueMillis = static_cast<double>(R.below(5000)) / 16.0;
    Resp.Build.SolveMillis = static_cast<double>(R.below(5000)) / 16.0;
    Resp.Build.Tier = static_cast<QosTier>(R.below(3));
    Resp.Build.PredictedMillis = static_cast<double>(R.below(4000)) / 8.0;
    Resp.Build.Coalesced = (R.next() & 1) != 0;

    auto Back = decodeResponse(encodeResponse(Resp));
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed;
    EXPECT_EQ(Back->V, Verb::Build);
    EXPECT_EQ(Back->Build.Newick, Resp.Build.Newick);
    EXPECT_DOUBLE_EQ(Back->Build.Cost, Resp.Build.Cost);
    EXPECT_EQ(Back->Build.Exact, Resp.Build.Exact);
    EXPECT_EQ(Back->Build.CacheHit, Resp.Build.CacheHit);
    EXPECT_EQ(Back->Build.BlockCacheHits, Resp.Build.BlockCacheHits);
    EXPECT_EQ(Back->Build.Branched, Resp.Build.Branched);
    ASSERT_EQ(Back->Build.Blocks.size(), Resp.Build.Blocks.size());
    for (std::size_t B = 0; B < Resp.Build.Blocks.size(); ++B) {
      EXPECT_EQ(Back->Build.Blocks[B].NumBlocks,
                Resp.Build.Blocks[B].NumBlocks);
      EXPECT_EQ(Back->Build.Blocks[B].FromCache,
                Resp.Build.Blocks[B].FromCache);
    }
    EXPECT_EQ(Back->Build.DirtyBlocks, Resp.Build.DirtyBlocks);
    EXPECT_EQ(Back->Build.CleanBlocks, Resp.Build.CleanBlocks);
    EXPECT_DOUBLE_EQ(Back->Build.QueueMillis, Resp.Build.QueueMillis);
    EXPECT_DOUBLE_EQ(Back->Build.SolveMillis, Resp.Build.SolveMillis);
    EXPECT_EQ(Back->Build.Tier, Resp.Build.Tier);
    EXPECT_DOUBLE_EQ(Back->Build.PredictedMillis, Resp.Build.PredictedMillis);
    EXPECT_EQ(Back->Build.Coalesced, Resp.Build.Coalesced);
  }
}

TEST(ProtocolCodec, RequestByteFlipsNeverCrash) {
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(6, 2);
  std::vector<std::uint8_t> Bytes = encodeRequest(makeBuildRequest(Build));
  for (std::size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<std::uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0x55;
    (void)decodeRequest(Mutated);
    Mutated.resize(I);
    (void)decodeRequest(Mutated);
  }
}

/// A matrix whose distances are arbitrary finite nonnegative bit
/// patterns (subnormals included) and whose names vary in length down to
/// empty, so only a bit-exact codec round-trips it.
DistanceMatrix bitPatternMatrix(int N, Rng &R) {
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I) {
    M.setName(I, std::string(static_cast<std::size_t>(I % 5),
                             static_cast<char>('a' + I % 26)));
    for (int J = I + 1; J < N; ++J)
      // Sign bit and top exponent bit clear: finite, in [0, 2).
      M.set(I, J, std::bit_cast<double>(R.next() >> 2));
  }
  return M;
}

std::string hexOf(const std::vector<std::uint8_t> &Bytes) {
  std::string Out;
  for (std::uint8_t B : Bytes) {
    char Digits[3];
    std::snprintf(Digits, sizeof(Digits), "%02x", B);
    Out += Digits;
  }
  return Out;
}

/// The bytes a lower-case hex string spells (the inverse of `hexOf`).
std::vector<std::uint8_t> bytesOf(const std::string &Hex) {
  std::vector<std::uint8_t> Out;
  for (std::size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out.push_back(
        static_cast<std::uint8_t>(std::stoul(Hex.substr(I, 2), nullptr, 16)));
  return Out;
}

TEST(ProtocolCodec, BuildRequestBytesArePinned) {
  // Protocol v4 on the wire: changing these bytes is a format change
  // that must bump ServiceProtocolVersion.
  BuildRequest Build;
  Build.Matrix = DistanceMatrix({"human", "chimp", "gorilla"});
  Build.Matrix.set(0, 1, 3.0);
  Build.Matrix.set(0, 2, 5.5);
  Build.Matrix.set(1, 2, 0.125);
  Build.DeadlineMillis = 250;
  Build.Tenant = "lab";
  const std::string Pinned =
      "01"                           // verb Build
      "04000000"                     // version 4
      "00"                           // inline matrix
      "03000000"                     // 3 species
      "05000000" "68756d616e"        // "human"
      "05000000" "6368696d70"        // "chimp"
      "07000000" "676f72696c6c61"    // "gorilla"
      "0000000000000840"             // (0, 1) = 3.0
      "0000000000001640"             // (0, 2) = 5.5
      "000000000000c03f"             // (1, 2) = 0.125
      "00"                           // mode Maximum
      "01"                           // 3-3 third species
      "10000000"                     // exact cap 16
      "00"                           // no polish
      "0000000000000000"             // no node budget
      "fa000000"                     // deadline 250 ms
      "01"                           // use cache
      "01"                           // priority normal
      "03000000" "6c6162";           // tenant "lab"
  EXPECT_EQ(hexOf(encodeBuildRequest(Build)), Pinned);
  EXPECT_EQ(encodeRequest(makeBuildRequest(Build)), encodeBuildRequest(Build));

  // The same request as a v3 client encodes it (one more byte, the
  // incremental flag, after "use cache"): a v4 decoder refuses it by
  // its version before reading any field.
  const std::string V3 =
      "01" "03000000" "00" "03000000"
      "05000000" "68756d616e" "05000000" "6368696d70"
      "07000000" "676f72696c6c61"
      "0000000000000840" "0000000000001640" "000000000000c03f"
      "00" "01" "10000000" "00" "0000000000000000" "fa000000"
      "01" "00" "01" "03000000" "6c6162";
  std::string Error;
  EXPECT_FALSE(decodeRequest(bytesOf(V3), &Error).has_value());
  EXPECT_EQ(Error, "protocol version mismatch");
}

TEST(CheckpointCodec, CheckpointBytesArePinned) {
  // A checkpoint written by an older build must still resume: changing
  // these bytes strands every state file on disk.
  DistanceMatrix M({"a", "b"});
  M.set(0, 1, 3.0);
  SearchCheckpoint Ck;
  Ck.MatrixKey = 0x0123456789abcdefull;
  Ck.UpperBound = 14.5;
  Ck.Stats.Branched = 7;
  Ck.Stats.Generated = 40;
  Ck.Stats.PrunedByBound = 30;
  Ck.Stats.PrunedByThreeThree = 2;
  Ck.Stats.BoundEvals = 40; // process-local: not encoded
  Ck.Stats.UbUpdates = 1;
  Ck.Stats.Complete = false;
  int A = Ck.Incumbent.addLeaf(0);
  int B = Ck.Incumbent.addLeaf(1);
  Ck.Incumbent.setRoot(Ck.Incumbent.addInternal(A, B, 1.5));
  Ck.Incumbent.setNames({"a", "b"});
  Ck.Frontier.push_back(Topology::initialPair(M));
  const std::string Pinned =
      "efcdab8967452301"          // matrix key
      "0000000000002d40"          // upper bound 14.5
      "0700000000000000"          // branched 7
      "2800000000000000"          // generated 40
      "1e00000000000000"          // pruned by bound 30
      "0200000000000000"          // pruned by 3-3 2
      "0100000000000000"          // UB updates 1 (bound evals not encoded)
      "00"                        // not complete
      "01" "01" "000000000000f83f" // incumbent: root, internal, height 1.5
      "00" "00000000"             //   leaf, species 0
      "00" "01000000"             //   leaf, species 1
      "02000000"                  //   2 names
      "01000000" "61"             //   "a"
      "01000000" "62"             //   "b"
      "01000000"                  // 1 frontier node
      "03000000" "02000000"       //   3 nodes, root 2
      "02000000" "ffffffff" "ffffffff" "00000000" // node 0: leaf 0 under 2
      "0000000000000000" "0100000000000000"       //   height 0, mask {0}
      "02000000" "ffffffff" "ffffffff" "01000000" // node 1: leaf 1 under 2
      "0000000000000000" "0200000000000000"       //   height 0, mask {1}
      "ffffffff" "00000000" "01000000" "ffffffff" // node 2: root over 0, 1
      "000000000000f83f" "0300000000000000";      //   height 1.5, mask {0,1}
  EXPECT_EQ(hexOf(encodeSearchCheckpoint(Ck)), Pinned);
}

TEST(MpCodec, StatsBytesArePinned) {
  // One slave solves a matrix from its optimum as the starting bound:
  // no complete tree improves on it, so its counters do not depend on
  // the order it explores children in.
  DistanceMatrix M = uniformRandomMetric(8, 3);
  BnbOptions Options;
  Options.ThreeThree = ThreeThreeMode::ThirdSpecies;
  Options.PublishMetrics = false;
  const double Optimum = solveMutSequential(M, Options).Cost;
  BnbEngine Engine(M, Options);
  Communicator World(2);
  Communicator::Endpoint Master = World.endpoint(0);
  ByteWriter Init;
  Init.writeF64(Optimum);
  writeMatrix(Init, Engine.relabeledMatrix());
  Master.send(1, MpTagInit, Init.take());
  Master.send(1, MpTagWork, encodeTopology(Engine.rootTopology()));
  std::thread Slave([&World, &Options] {
    Communicator::Endpoint Self = World.endpoint(1);
    runMpSlave(Self, Options);
  });
  Message Request = Master.recv();
  EXPECT_EQ(Request.Tag, MpTagWorkRequest);
  Master.send(1, MpTagTerminate);
  Message Stats = Master.recv();
  Slave.join();
  ASSERT_EQ(Stats.Tag, MpTagStats);
  const std::string Pinned =
      "1400000000000000"  // branched 20
      "d000000000000000"  // generated 208
      "bb00000000000000"  // pruned by bound 187
      "0200000000000000"  // pruned by 3-3 2
      "0000000000000000"  // UB updates 0
      "1400000000000000"  // worker: branched 20
      "0100000000000000"  //   pulled from the global pool 1
      "0000000000000000"  //   donated to the global pool 0
      "0000000000000000"  //   UB updates 0
      "0000000000000000"  //   stolen from peers 0
      "0000000000000000"  //   donated to peers 0
      "0000000000000000"; //   peer UB broadcasts 0
  EXPECT_EQ(hexOf(Stats.Payload), Pinned);
}

TEST(ProtocolCodec, MatrixRoundTripIsBitExact) {
  // Sizes around the decoder's 8x8 mirror tiles: empty, single, one
  // partial tile, exact tiles, and a partial last tile on each side.
  Rng R(99);
  for (int N : {0, 1, 2, 7, 8, 9, 31, 33, 512}) {
    DistanceMatrix M = bitPatternMatrix(N, R);
    BuildRequest Build;
    Build.Matrix = M;
    std::optional<Request> Back = decodeRequest(encodeBuildRequest(Build));
    ASSERT_TRUE(Back.has_value()) << "n=" << N;
    std::optional<DistanceMatrix> Standalone = decodeMatrix(encodeMatrix(M));
    ASSERT_TRUE(Standalone.has_value()) << "n=" << N;
    for (const DistanceMatrix *D : {&Back->Build.Matrix, &*Standalone}) {
      ASSERT_EQ(D->size(), N);
      EXPECT_EQ(D->names(), M.names()) << "n=" << N;
      // Whole rows: the upper triangle as sent, the mirrored lower one
      // and the zero diagonal, all bit for bit.
      for (int I = 0; I < N; ++I)
        ASSERT_EQ(std::memcmp(D->row(I), M.row(I),
                              static_cast<std::size_t>(N) * sizeof(double)),
                  0)
            << "n=" << N << " row " << I;
    }
  }
}

TEST(ProtocolCodec, BuildRequestEmbedsTheMatrixCodec) {
  Rng R(5);
  for (int N : {0, 3, 33}) {
    DistanceMatrix M = bitPatternMatrix(N, R);
    BuildRequest Build;
    Build.Matrix = M;
    std::vector<std::uint8_t> Request = encodeBuildRequest(Build);
    std::vector<std::uint8_t> Block = encodeMatrix(M);
    // Verb u8, version u32 and generator u8 precede the matrix block.
    const std::ptrdiff_t Offset = 1 + 4 + 1;
    ASSERT_GE(Request.size(), Offset + Block.size());
    EXPECT_TRUE(
        std::equal(Block.begin(), Block.end(), Request.begin() + Offset))
        << "n=" << N;
  }
}

TEST(ProtocolCodec, StatsBytesArePinned) {
  // Protocol v4 Stats answer: a distinct value in every field, so a
  // reordered, dropped or doubled field changes these bytes.
  Response R;
  R.V = Verb::Stats;
  StatsSnapshot &S = R.Stats;
  S.Accepted = 1;
  S.Completed = 2;
  S.Failed = 3;
  S.WholeHits = 4;
  S.WholeMisses = 5;
  S.BlockHits = 6;
  S.BlockMisses = 7;
  S.BlockRemoteHits = 8;
  S.DeadlineExpired = 9;
  S.Rejected = 10;
  S.Shed = 11;
  S.RateLimited = 12;
  S.TierExact = 13;
  S.TierPipeline = 14;
  S.TierHeuristic = 15;
  S.Coalesced = 16;
  S.QueueDepth = 17;
  S.CacheEntries = 18;
  S.P50Millis = 1.5;
  S.P95Millis = 2.25;
  const std::string Pinned =
      "02"                 // verb Stats
      "00"                 // no error
      "00000000"           // empty message
      "0100000000000000"   // accepted 1
      "0200000000000000"   // completed 2
      "0300000000000000"   // failed 3
      "0400000000000000"   // whole hits 4
      "0500000000000000"   // whole misses 5
      "0600000000000000"   // block hits 6
      "0700000000000000"   // block misses 7
      "0800000000000000"   // block remote hits 8
      "0900000000000000"   // deadline expired 9
      "0a00000000000000"   // rejected 10
      "0b00000000000000"   // shed 11
      "0c00000000000000"   // rate limited 12
      "0d00000000000000"   // tier exact 13
      "0e00000000000000"   // tier pipeline 14
      "0f00000000000000"   // tier heuristic 15
      "1000000000000000"   // coalesced 16
      "1100000000000000"   // queue depth 17
      "1200000000000000"   // cache entries 18
      "000000000000f83f"   // p50 1.5 ms
      "0000000000000240";  // p95 2.25 ms
  std::vector<std::uint8_t> Bytes = encodeResponse(R);
  EXPECT_EQ(hexOf(Bytes), Pinned);

  std::optional<Response> Back = decodeResponse(Bytes);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(encodeResponse(*Back), Bytes);
}

//===----------------------------------------------------------------------===//
// Byte codec primitives
//===----------------------------------------------------------------------===//

TEST(ByteCodec, FrameEndingInEmptyStringDecodes) {
  // The empty string's payload starts one past the last byte, which a
  // bounds-checked element access rejects even though nothing is read.
  ByteWriter W;
  W.writeU32(7);
  W.writeString("");
  std::vector<std::uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  std::uint32_t Value = 0;
  std::string Text = "stale";
  ASSERT_TRUE(R.readU32(Value));
  ASSERT_TRUE(R.readString(Text));
  EXPECT_EQ(Value, 7u);
  EXPECT_EQ(Text, "");
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.readString(Text));
}

//===----------------------------------------------------------------------===//
// Shard-cache entries (CacheHit / CacheInsert bodies: the durable cache
// record encoding)
//===----------------------------------------------------------------------===//

TEST(CacheEntryCodec, RandomRoundTrips) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    Rng R(Seed + 500);
    DistanceMatrix M =
        uniformRandomMetric(3 + static_cast<int>(R.below(8)), Seed);
    MutResult Solved = solveMutSequential(M);
    CachedSolution Value;
    Value.Tree = Solved.Tree;
    Value.Cost = Solved.Cost;
    Value.Exact = (R.next() & 1) != 0;
    // The namespace flag must survive the wire: the receiver validates
    // it against the probed tier (whole vs block).
    Value.Block = (R.next() & 1) != 0;
    // The tree's own identity: its matrix's canonical bytes, which a
    // whole-matrix entry follows with its two knob bytes.
    Value.Bytes = canonicalForm(M).Bytes;
    if (!Value.Block)
      Value.Bytes.insert(Value.Bytes.end(), {0, 0});
    std::uint64_t Key = R.next();

    std::optional<persist::DurableCacheRecord> Rec = persist::decodeCacheRecord(
        persist::encodeCacheRecord(toDurableRecord(Key, Value)));
    ASSERT_TRUE(Rec.has_value()) << "seed " << Seed;
    EXPECT_EQ(Rec->Key, Key);
    CachedSolution Back = fromDurableRecord(std::move(*Rec));
    EXPECT_DOUBLE_EQ(Back.Cost, Value.Cost);
    EXPECT_EQ(Back.Exact, Value.Exact);
    EXPECT_EQ(Back.Block, Value.Block);
    EXPECT_EQ(Back.Bytes, Value.Bytes);
    expectTreeEq(Back.Tree, Value.Tree);
  }
}

TEST(CacheEntryCodec, CorruptionIsRejectedOrHarmless) {
  DistanceMatrix M = uniformRandomMetric(8, 7);
  MutResult Solved = solveMutSequential(M);
  CachedSolution Value;
  Value.Tree = Solved.Tree;
  Value.Cost = Solved.Cost;
  Value.Exact = true;
  Value.Bytes = canonicalForm(M).Bytes;
  Value.Bytes.insert(Value.Bytes.end(), {0, 0}); // whole-matrix knobs
  std::vector<std::uint8_t> Bytes =
      persist::encodeCacheRecord(toDurableRecord(99, Value));
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<std::uint8_t> Prefix(Bytes.begin(),
                                     Bytes.begin() +
                                         static_cast<std::ptrdiff_t>(Len));
    EXPECT_FALSE(persist::decodeCacheRecord(Prefix).has_value())
        << "strict prefix of length " << Len << " decoded";
  }
  for (std::size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<std::uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0xA5;
    (void)persist::decodeCacheRecord(Mutated);
  }
}

} // namespace

//===- tests/mp_test.cpp - Message passing & distributed B&B ----*- C++ -*-===//

#include "matrix/Generators.h"
#include "mp/Communicator.h"
#include "mp/MpBnb.h"
#include "mp/Serialize.h"
#include "seq/EvolutionSim.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>

using namespace mutk;

TEST(Communicator, SendAndReceive) {
  Communicator World(2);
  auto A = World.endpoint(0);
  auto B = World.endpoint(1);
  A.send(1, 7, {1, 2, 3});
  Message Msg = B.recv();
  EXPECT_EQ(Msg.Source, 0);
  EXPECT_EQ(Msg.Tag, 7);
  EXPECT_EQ(Msg.Payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Communicator, FifoPerChannel) {
  Communicator World(2);
  auto A = World.endpoint(0);
  auto B = World.endpoint(1);
  for (std::uint8_t I = 0; I < 10; ++I)
    A.send(1, I, {I});
  for (std::uint8_t I = 0; I < 10; ++I) {
    Message Msg = B.recv();
    EXPECT_EQ(Msg.Tag, I);
  }
}

TEST(Communicator, TryRecvNonBlocking) {
  Communicator World(1);
  auto A = World.endpoint(0);
  EXPECT_FALSE(A.tryRecv().has_value());
  A.send(0, 1); // self-send
  EXPECT_TRUE(A.tryRecv().has_value());
  EXPECT_FALSE(A.tryRecv().has_value());
}

TEST(Communicator, BroadcastSkipsSelf) {
  Communicator World(4);
  auto A = World.endpoint(0);
  A.broadcast(9, {42});
  EXPECT_FALSE(A.tryRecv().has_value());
  for (int R = 1; R < 4; ++R) {
    auto Msg = World.endpoint(R).tryRecv();
    ASSERT_TRUE(Msg.has_value());
    EXPECT_EQ(Msg->Tag, 9);
  }
  EXPECT_EQ(World.messagesSent(), 3u);
  EXPECT_EQ(World.bytesSent(), 3u);
}

TEST(Communicator, BlockingRecvAcrossThreads) {
  Communicator World(2);
  int Received = -1;
  std::thread Consumer([&] {
    Message Msg = World.endpoint(1).recv();
    Received = Msg.Tag;
  });
  World.endpoint(0).send(1, 123);
  Consumer.join();
  EXPECT_EQ(Received, 123);
}

TEST(Communicator, PingPong) {
  Communicator World(2);
  std::thread Echo([&] {
    auto B = World.endpoint(1);
    for (int I = 0; I < 50; ++I) {
      Message Msg = B.recv();
      B.send(0, Msg.Tag + 1, std::move(Msg.Payload));
    }
  });
  auto A = World.endpoint(0);
  for (int I = 0; I < 50; ++I) {
    A.send(1, 2 * I, {static_cast<std::uint8_t>(I)});
    Message Back = A.recv();
    EXPECT_EQ(Back.Tag, 2 * I + 1);
  }
  Echo.join();
}

TEST(Serialize, ScalarRoundTrips) {
  ByteWriter Writer;
  Writer.writeU8(200);
  Writer.writeU32(0xDEADBEEF);
  Writer.writeI32(-12345);
  Writer.writeU64(0x0123456789ABCDEFULL);
  Writer.writeF64(-3.14159);
  Writer.writeString("hello world");
  std::vector<std::uint8_t> Bytes = Writer.take();

  ByteReader Reader(Bytes);
  std::uint8_t U8;
  std::uint32_t U32;
  std::int32_t I32;
  std::uint64_t U64;
  double F64;
  std::string Text;
  ASSERT_TRUE(Reader.readU8(U8));
  ASSERT_TRUE(Reader.readU32(U32));
  ASSERT_TRUE(Reader.readI32(I32));
  ASSERT_TRUE(Reader.readU64(U64));
  ASSERT_TRUE(Reader.readF64(F64));
  ASSERT_TRUE(Reader.readString(Text));
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_EQ(U8, 200);
  EXPECT_EQ(U32, 0xDEADBEEFu);
  EXPECT_EQ(I32, -12345);
  EXPECT_EQ(U64, 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(F64, -3.14159);
  EXPECT_EQ(Text, "hello world");
}

TEST(Serialize, ReaderRejectsTruncation) {
  ByteWriter Writer;
  Writer.writeU64(7);
  std::vector<std::uint8_t> Bytes = Writer.take();
  Bytes.pop_back();
  ByteReader Reader(Bytes);
  std::uint64_t Value;
  EXPECT_FALSE(Reader.readU64(Value));
}

TEST(Serialize, TopologyRoundTrip) {
  DistanceMatrix M = uniformRandomMetric(9, 3);
  Topology T = Topology::initialPair(M);
  while (T.numPlaced() < 7)
    T = T.withNextSpeciesAt(T.numNodes() / 2, M);

  auto Back = decodeTopology(encodeTopology(T));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->numPlaced(), T.numPlaced());
  EXPECT_EQ(Back->numNodes(), T.numNodes());
  EXPECT_DOUBLE_EQ(Back->cost(), T.cost());
  for (int I = 0; I < T.numNodes(); ++I) {
    EXPECT_EQ(Back->node(I).Mask, T.node(I).Mask);
    EXPECT_DOUBLE_EQ(Back->node(I).Height, T.node(I).Height);
  }
}

TEST(Serialize, TopologyRejectsCorruption) {
  DistanceMatrix M = uniformRandomMetric(5, 1);
  Topology T = Topology::initialPair(M);
  T = T.withNextSpeciesAt(0, M);
  std::vector<std::uint8_t> Bytes = encodeTopology(T);
  // Flip a mask byte: the cross-validation in fromNodes must reject it.
  Bytes[Bytes.size() - 3] ^= 0xFF;
  EXPECT_FALSE(decodeTopology(Bytes).has_value());
  // Truncation must also be rejected.
  Bytes.resize(Bytes.size() / 2);
  EXPECT_FALSE(decodeTopology(Bytes).has_value());
}

TEST(Serialize, MatrixRoundTrip) {
  DistanceMatrix M = hmdnaLikeMatrix(8, 5);
  auto Back = decodeMatrix(encodeMatrix(M));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(M.approxEquals(*Back, 0.0));
  EXPECT_EQ(Back->name(0), "dna0");
}

TEST(Serialize, MatrixRejectsNonFiniteDistances) {
  DistanceMatrix M(3);
  M.set(0, 1, 1.0);
  M.set(0, 2, 2.0);
  M.set(1, 2, 3.0);
  std::vector<std::uint8_t> Good = encodeMatrix(M);
  ASSERT_TRUE(decodeMatrix(Good).has_value());
  // The triangle closes the payload; overwrite its last f64, (1, 2).
  for (double Bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    std::vector<std::uint8_t> Forged = Good;
    std::memcpy(Forged.data() + Forged.size() - 8, &Bad, 8);
    EXPECT_FALSE(decodeMatrix(Forged).has_value()) << Bad;
  }
}

TEST(Serialize, MatrixRejectsCountItsPayloadCannotHold) {
  // A bare 100000-taxon header: rejected, not an 80 GB allocation.
  std::vector<std::uint8_t> Header = {0xa0, 0x86, 0x01, 0x00};
  EXPECT_FALSE(decodeMatrix(Header).has_value());
  // Names present but no distances is still too short.
  DistanceMatrix M(40);
  std::vector<std::uint8_t> Bytes = encodeMatrix(M);
  Bytes.resize(Bytes.size() - 8 * 40 * 39 / 2);
  EXPECT_FALSE(decodeMatrix(Bytes).has_value());
}

TEST(MpBnb, TrivialSizes) {
  DistanceMatrix M1(1);
  EXPECT_EQ(solveMutMessagePassing(M1, 3).Tree.numLeaves(), 1);
  DistanceMatrix M2(2);
  M2.set(0, 1, 8);
  EXPECT_DOUBLE_EQ(solveMutMessagePassing(M2, 3).Cost, 8.0);
}

TEST(MpBnb, MatchesSequentialCost) {
  for (std::uint64_t Seed = 0; Seed < 4; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(10, Seed);
    double Sequential = solveMutSequential(M).Cost;
    for (int Workers : {1, 2, 5}) {
      MpMutResult R = solveMutMessagePassing(M, Workers);
      EXPECT_NEAR(R.Cost, Sequential, 1e-9)
          << "seed " << Seed << " workers " << Workers;
      EXPECT_TRUE(R.Tree.dominatesMatrix(M));
      EXPECT_GT(R.MessagesSent, 0u);
    }
  }
}

TEST(MpBnb, MatchesSequentialOnDnaData) {
  DistanceMatrix M = hmdnaLikeMatrix(12, 6);
  EXPECT_NEAR(solveMutMessagePassing(M, 4).Cost, solveMutSequential(M).Cost,
              1e-9);
}

TEST(MpBnb, ThreeThreeSupported) {
  DistanceMatrix M = plantedClusterMetric(10, 3, 0.05);
  BnbOptions Options;
  Options.ThreeThree = ThreeThreeMode::ThirdSpecies;
  MpMutResult R = solveMutMessagePassing(M, 3, Options);
  EXPECT_NEAR(R.Cost, solveMutSequential(M).Cost, 1e-9);
}

TEST(MpBnb, TrafficAccounting) {
  DistanceMatrix M = uniformRandomMetric(11, 2);
  MpMutResult R = solveMutMessagePassing(M, 4);
  EXPECT_GT(R.BytesSent, 0u);
  ASSERT_EQ(R.Workers.size(), 4u);
  std::uint64_t WorkerBranched = 0;
  for (const WorkerStats &W : R.Workers)
    WorkerBranched += W.Branched;
  EXPECT_LE(WorkerBranched, R.Stats.Branched);
}

TEST(MpBnb, NoPrematureTerminationWithSingleWorker) {
  // Regression: a worker could send its WorkRequest before the master's
  // dealt Work arrived; the master then saw "all workers idle" and
  // terminated the search early (observed on this exact instance). The
  // credit counters in WorkRequest must prevent that.
  DistanceMatrix M = uniformRandomMetric(18, 1, 1.0, 100.0);
  double Sequential = solveMutSequential(M).Cost;
  for (int Run = 0; Run < 3; ++Run) {
    MpMutResult R = solveMutMessagePassing(M, 1);
    EXPECT_NEAR(R.Cost, Sequential, 1e-9) << "run " << Run;
    // The single worker must actually perform the search, not just
    // absorb the master's seeding.
    EXPECT_GT(R.Stats.Branched, 100u);
  }
}

TEST(MpBnb, WorkStealingMatchesSequential) {
  MpProtocolOptions Proto;
  Proto.WorkStealing = true;
  for (std::uint64_t Seed = 0; Seed < 3; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(11, 30 + Seed);
    double Sequential = solveMutSequential(M).Cost;
    for (int Workers : {1, 2, 4}) {
      MpMutResult R = solveMutMessagePassing(M, Workers, {}, Proto);
      EXPECT_NEAR(R.Cost, Sequential, 1e-9)
          << "seed " << Seed << " workers " << Workers;
    }
  }
}

TEST(MpBnb, StealingMovesWorkBetweenPeers) {
  // On a hard instance with several workers, at least one steal must
  // land (each dry worker tries a peer before falling back to the
  // master) — this is the per-peer work-stealing extension actually
  // exercising, not just matching costs by idling.
  MpProtocolOptions Proto;
  Proto.WorkStealing = true;
  DistanceMatrix M = uniformRandomMetric(13, 4, 1.0, 100.0);
  MpMutResult R = solveMutMessagePassing(M, 4, {}, Proto);
  std::uint64_t Stolen = 0, Donated = 0;
  for (const WorkerStats &W : R.Workers) {
    Stolen += W.StolenFromPeers;
    Donated += W.DonatedToPeers;
  }
  EXPECT_EQ(Stolen, Donated) << "every grant has exactly one receiver";
  EXPECT_GT(Stolen, 0u);
  EXPECT_NEAR(R.Cost, solveMutSequential(M).Cost, 1e-9);
}

TEST(MpBnb, DepthBoundedStealingStaysOptimal) {
  MpProtocolOptions Proto;
  Proto.WorkStealing = true;
  Proto.StealDepthBound = 6;
  DistanceMatrix M = uniformRandomMetric(11, 12);
  EXPECT_NEAR(solveMutMessagePassing(M, 3, {}, Proto).Cost,
              solveMutSequential(M).Cost, 1e-9);
}

TEST(MpBnb, PeerUbBroadcastMatchesSequential) {
  MpProtocolOptions Proto;
  Proto.PeerUbBroadcast = true;
  for (std::uint64_t Seed = 0; Seed < 3; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(11, 60 + Seed);
    double Sequential = solveMutSequential(M).Cost;
    MpMutResult R = solveMutMessagePassing(M, 4, {}, Proto);
    EXPECT_NEAR(R.Cost, Sequential, 1e-9) << "seed " << Seed;
  }
}

TEST(MpBnb, StealingAndBroadcastTogetherMatchSequential) {
  MpProtocolOptions Proto;
  Proto.WorkStealing = true;
  Proto.PeerUbBroadcast = true;
  DistanceMatrix M = hmdnaLikeMatrix(12, 9);
  EXPECT_NEAR(solveMutMessagePassing(M, 5, {}, Proto).Cost,
              solveMutSequential(M).Cost, 1e-9);
}

// Over a socket transport the master's reader threads relay
// worker-to-worker frames concurrently with the main thread's Init
// writes, so a slave's first message can legally be a peer's
// StealRequest or UbUpdate rather than Init. The slave must refuse the
// steal (the thief blocks on the reply) and keep running the protocol.
TEST(MpBnb, SlaveToleratesRelayedFramesBeforeInit) {
  Communicator World(3);
  Communicator::Endpoint Slave = World.endpoint(2);
  std::thread SlaveThread([&] { runMpSlave(Slave); });

  // A peer's steal lands first; then a relayed incumbent broadcast.
  World.endpoint(1).send(2, MpTagStealRequest, {});
  ByteWriter Ub;
  Ub.writeF64(123.0);
  World.endpoint(1).send(2, MpTagUbUpdate, Ub.take());

  // The thief must get an explicit refusal or it deadlocks in its
  // blocking steal-wait.
  Message Reply = World.endpoint(1).recv();
  EXPECT_EQ(Reply.Tag, MpTagStealReply);
  EXPECT_EQ(Reply.Source, 2);
  ASSERT_EQ(Reply.Payload.size(), 1u);
  EXPECT_EQ(Reply.Payload[0], 0);

  // Terminate-before-Init still ends the session cleanly afterwards.
  World.endpoint(0).send(2, MpTagTerminate, {});
  Message Stats = World.endpoint(0).recv();
  EXPECT_EQ(Stats.Tag, MpTagStats);
  SlaveThread.join();
}

// A slave reads payloads from a peer that may be buggy or hostile. A
// malformed one ends the session the way a broken link does — the slave
// reports its counters and returns — instead of aborting the process
// that hosts it.
TEST(MpBnb, SlaveEndsSessionOnMalformedPayload) {
  auto initPayload = [](const DistanceMatrix &M) {
    ByteWriter Writer;
    Writer.writeF64(100.0);
    writeMatrix(Writer, M);
    return Writer.take();
  };
  struct Frame {
    int Tag;
    std::vector<std::uint8_t> Payload;
  };
  const std::vector<std::uint8_t> ValidInit =
      initPayload(uniformRandomMetric(6, 1));
  const std::vector<std::pair<std::string, std::vector<Frame>>> Cases = {
      {"short Init", {{MpTagInit, {1, 2, 3}}}},
      {"1-species Init", {{MpTagInit, initPayload(DistanceMatrix(1))}}},
      {"65-species Init",
       {{MpTagInit, initPayload(uniformRandomMetric(65, 2))}}},
      {"garbage Work",
       {{MpTagInit, ValidInit}, {MpTagWork, {0xde, 0xad, 0xbe, 0xef, 0x01}}}},
      {"short UbUpdate", {{MpTagInit, ValidInit}, {MpTagUbUpdate, {1, 2}}}},
  };
  for (const auto &[Name, Frames] : Cases) {
    Communicator World(2);
    Communicator::Endpoint Master = World.endpoint(0);
    for (const Frame &F : Frames)
      Master.send(1, F.Tag, F.Payload);
    std::thread Slave([&World] {
      Communicator::Endpoint Self = World.endpoint(1);
      runMpSlave(Self);
    });
    // A WorkRequest means the slave took the payload and waits for more.
    Message Reply = Master.recv();
    if (Reply.Tag == MpTagWorkRequest) {
      ADD_FAILURE() << Name << ": the slave accepted the payload";
      Master.send(1, MpTagTerminate);
      Reply = Master.recv();
    }
    EXPECT_EQ(Reply.Tag, MpTagStats) << Name;
    Slave.join();
  }
}

// The master reads payloads from slaves it does not control either. A
// malformed one ends the solve — skipping a Donation could lose a
// subtree, and a forged Solution would be returned as the answer — so
// every slave is terminated and the incumbent comes back marked
// incomplete.
TEST(MpBnb, MasterEndsSolveOnMalformedSlavePayload) {
  const DistanceMatrix M = uniformRandomMetric(9, 4);
  const double Optimum = solveMutSequential(M).Cost;
  auto u32 = [](std::uint32_t V) {
    ByteWriter Writer;
    Writer.writeU32(V);
    return Writer.take();
  };
  auto solution = [](const Topology &T) {
    ByteWriter Writer;
    Writer.writeF64(T.cost());
    writeTopology(Writer, T);
    return Writer.take();
  };
  // Over the relabeled matrix the master sends in Init: a topology of
  // the first three species, and a complete one whose heights are a
  // tenth of the minimal ones (still monotone, so it decodes).
  auto partial = [&](const DistanceMatrix &Relabeled) {
    return solution(
        Topology::initialPair(Relabeled).withNextSpeciesAt(0, Relabeled));
  };
  auto shrunk = [&](const DistanceMatrix &Relabeled) {
    Topology T = Topology::initialPair(Relabeled);
    while (T.numPlaced() < Relabeled.size())
      T = T.withNextSpeciesAt(0, Relabeled);
    std::vector<Topology::Node> Nodes;
    for (int I = 0; I < T.numNodes(); ++I) {
      Nodes.push_back(T.node(I));
      Nodes.back().Height /= 10;
    }
    std::optional<Topology> Forged =
        Topology::fromNodes(std::move(Nodes), T.rootIndex());
    EXPECT_TRUE(Forged.has_value());
    return solution(*Forged);
  };
  auto fixed = [](std::vector<std::uint8_t> Payload) {
    return [Payload](const DistanceMatrix &) { return Payload; };
  };
  struct Case {
    std::string Name;
    int Tag;
    /// Builds the payload from the matrix the master sent in Init.
    std::function<std::vector<std::uint8_t>(const DistanceMatrix &)> Payload;
  };
  const std::vector<Case> Cases = {
      {"StealGrant naming thief 0xfffffff0", MpTagStealGrant,
       fixed(u32(0xFFFFFFF0u))},
      {"StealGrant naming the master", MpTagStealGrant, fixed(u32(0))},
      {"3-byte Donation", MpTagDonation, fixed({1, 2, 3})},
      {"short WorkRequest", MpTagWorkRequest, fixed({1, 2})},
      {"unknown tag", 99, fixed({})},
      {"Solution over 3 of 9 species", MpTagSolution, partial},
      {"Solution with a tenth of the minimal heights", MpTagSolution, shrunk},
  };
  for (const Case &C : Cases) {
    Communicator World(2);
    MpMutResult Result;
    std::thread Master([&] {
      Communicator::Endpoint Self = World.endpoint(0);
      Result = runMpMaster(Self, M);
    });
    // A fake rank 1: take Init, answer with the malformed frame, then
    // expect no more dealing — only the Terminate that ends the solve.
    Communicator::Endpoint Slave = World.endpoint(1);
    Message Init = Slave.recv();
    EXPECT_EQ(Init.Tag, MpTagInit) << C.Name;
    ByteReader Reader(Init.Payload);
    double InitialBound = 0;
    DistanceMatrix Relabeled;
    ASSERT_TRUE(Reader.readF64(InitialBound) &&
                readMatrix(Reader, Relabeled, MaxBnbSpecies))
        << C.Name;
    Slave.send(0, C.Tag, C.Payload(Relabeled));
    for (;;) {
      Message Msg = Slave.recv();
      if (Msg.Tag == MpTagTerminate)
        break;
      EXPECT_EQ(Msg.Tag, MpTagWork) << C.Name;
    }
    Slave.send(0, MpTagStats);
    Master.join();
    EXPECT_FALSE(Result.Stats.Complete) << C.Name;
    EXPECT_GE(Result.Cost, Optimum - 1e-9) << C.Name;
    EXPECT_EQ(Result.Tree.numLeaves(), M.size()) << C.Name;
  }
}

class MpProperty : public testing::TestWithParam<int> {};

TEST_P(MpProperty, OptimalAcrossWorkerCounts) {
  DistanceMatrix M = uniformRandomMetric(11, 9);
  double Sequential = solveMutSequential(M).Cost;
  EXPECT_NEAR(solveMutMessagePassing(M, GetParam()).Cost, Sequential, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MpProperty,
                         testing::Values(1, 2, 3, 4, 8));

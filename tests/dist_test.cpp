//===- tests/dist_test.cpp - Multi-node cluster subsystem -------*- C++ -*-===//
//
// Covers src/dist bottom-up: the framed wire with its typed errors, the
// peer registry + consistent-hash ring, the socket MpEndpoints, the
// distributed B&B session (cost identity against the sequential
// solver), and full in-process clusters — cache sharding, job stealing,
// and the death sweep that re-enqueues jobs lent to a crashed peer. The
// final drill forks real peer processes and SIGKILLs them mid-steal.
//
//===----------------------------------------------------------------------===//

#include "bnb/SequentialBnb.h"
#include "compact/CompactSetPipeline.h"
#include "dist/Cluster.h"
#include "dist/DistBnb.h"
#include "dist/MpSocket.h"
#include "dist/Peers.h"
#include "dist/Wire.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "mp/MpBnb.h"
#include "mp/Serialize.h"
#include "obs/Instruments.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstring>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace mutk;
using namespace mutk::dist;

namespace {

/// Reserves a localhost TCP port: bind(0), read it back, close. The
/// small race against other processes re-binding it is acceptable in
/// tests; SO_REUSEADDR lets the real listener take it over.
int reservePort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0;
  EXPECT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  socklen_t Len = sizeof(Addr);
  EXPECT_EQ(::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len), 0);
  int Port = ntohs(Addr.sin_port);
  ::close(Fd);
  return Port;
}

std::vector<PeerSpec> localPeers(const std::vector<int> &Ports) {
  std::vector<PeerSpec> Peers;
  for (std::size_t I = 0; I < Ports.size(); ++I)
    Peers.push_back({static_cast<int>(I), "127.0.0.1", Ports[I]});
  return Peers;
}

/// Polls \p Pred every few ms until it holds or \p Seconds elapse.
bool waitFor(double Seconds, const std::function<bool()> &Pred) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(Seconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Pred();
}

/// One cluster frame off \p Fd: the shared frame reader, then the
/// cluster verb codec (the path every cluster read takes).
FrameError readDistFrame(int Fd, DistFrame &Out) {
  std::vector<std::uint8_t> Payload;
  FrameError E = readFrame(Fd, Payload);
  return E == FrameError::None ? decodeDistFrame(Payload, Out) : E;
}

bool writeDistFrame(int Fd, const DistFrame &Frame) {
  return writeFrame(Fd, encodeDistFrame(Frame));
}

/// Writes raw bytes that need not form a frame.
bool sendRaw(int Fd, const std::uint8_t *Data, std::size_t Size) {
  return ::send(Fd, Data, Size, MSG_NOSIGNAL) == static_cast<ssize_t>(Size);
}

BuildRequest inlineRequest(DistanceMatrix M) {
  BuildRequest R;
  R.Matrix = std::move(M);
  return R;
}

/// A request that takes a while to solve while staying tiny on the wire
/// — used to pin a single-worker service so jobs queued behind it stay
/// stealable. Generating it is cubic in the species count (the metric
/// closure): 800 species take about 0.5 s in Release, long enough for
/// every pin here (steal polls run every 20-50 ms), and keep the
/// sanitizer builds far below the test timeout. Cache off so repeated
/// pins never short-circuit.
BuildRequest slowRequest(std::uint64_t Seed, std::int32_t Species = 800) {
  BuildRequest R;
  R.Generator = GeneratorKind::Uniform;
  R.GenSpecies = Species;
  R.GenSeed = Seed;
  R.UseCache = false;
  return R;
}

//===----------------------------------------------------------------------===//
// Wire framing: typed errors
//===----------------------------------------------------------------------===//

TEST(Wire, FrameRoundTrip) {
  DistFrame In;
  In.Verb = DistVerb::CacheLookup;
  In.Seq = 42;
  In.Body = {1, 2, 3, 4};
  std::vector<std::uint8_t> Payload = encodeDistFrame(In);
  DistFrame Out;
  ASSERT_EQ(decodeDistFrame(Payload, Out), FrameError::None);
  EXPECT_EQ(Out.Verb, In.Verb);
  EXPECT_EQ(Out.Seq, In.Seq);
  EXPECT_EQ(Out.Body, In.Body);
  EXPECT_EQ(distFrameWireBytes(In), 4u + Payload.size());
}

TEST(Wire, DecodeRejectsTruncatedPrelude) {
  DistFrame Out;
  // Shorter than [u8 verb][u64 seq].
  EXPECT_EQ(decodeDistFrame({1, 2, 3}, Out), FrameError::Truncated);
  EXPECT_EQ(decodeDistFrame({}, Out), FrameError::Truncated);
}

TEST(Wire, DecodeRejectsGarbageVerb) {
  std::vector<std::uint8_t> Payload(9, 0);
  Payload[0] = MaxDistVerb + 1;
  DistFrame Out;
  EXPECT_EQ(decodeDistFrame(Payload, Out), FrameError::BadVerb);
  Payload[0] = 0; // verbs start at 1
  EXPECT_EQ(decodeDistFrame(Payload, Out), FrameError::BadVerb);
  EXPECT_STREQ(frameErrorName(FrameError::BadVerb), "bad_verb");
}

TEST(Wire, ReadEofOnCleanClose) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ::close(Fds[1]);
  DistFrame Out;
  EXPECT_EQ(readDistFrame(Fds[0], Out), FrameError::Eof);
  ::close(Fds[0]);
}

TEST(Wire, ReadTruncatedMidFrame) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // Announce 100 bytes, deliver 10, die.
  std::uint8_t Header[4] = {100, 0, 0, 0};
  ASSERT_TRUE(sendRaw(Fds[1], Header, 4));
  std::uint8_t Partial[10] = {};
  ASSERT_TRUE(sendRaw(Fds[1], Partial, 10));
  ::close(Fds[1]);
  DistFrame Out;
  EXPECT_EQ(readDistFrame(Fds[0], Out), FrameError::Truncated);
  ::close(Fds[0]);
}

TEST(Wire, ReadRejectsOversizedLengthPrefix) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::uint32_t Huge = MaxFrameBytes + 1;
  std::uint8_t Header[4];
  std::memcpy(Header, &Huge, 4);
  ASSERT_TRUE(sendRaw(Fds[1], Header, 4));
  DistFrame Out;
  // Rejected from the prefix alone: the body was never sent, so a
  // decode that tried to read it would block forever instead.
  EXPECT_EQ(readDistFrame(Fds[0], Out), FrameError::Oversized);
  ::close(Fds[1]);
  ::close(Fds[0]);
}

TEST(Wire, ReadRejectsGarbageTag) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::uint8_t Frame[4 + 9] = {9, 0, 0, 0, 0xEE};
  ASSERT_TRUE(sendRaw(Fds[1], Frame, sizeof(Frame)));
  DistFrame Out;
  EXPECT_EQ(readDistFrame(Fds[0], Out), FrameError::BadVerb);
  ::close(Fds[1]);
  ::close(Fds[0]);
}

// A cluster frame is a u32 little-endian length, then the verb byte,
// the u64 little-endian seq and the body. These bytes must not move
// when the transport does.
TEST(Wire, FrameBytesArePinned) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  DistFrame In;
  In.Verb = DistVerb::CacheLookup;
  In.Seq = 0x0102030405060708ull;
  In.Body = {0xaa, 0xbb};
  ASSERT_TRUE(writeDistFrame(Fds[1], In));
  ::close(Fds[1]);
  std::string Hex;
  std::uint8_t Byte = 0;
  while (::recv(Fds[0], &Byte, 1, 0) == 1) {
    char Digits[3];
    std::snprintf(Digits, sizeof(Digits), "%02x", Byte);
    Hex += Digits;
  }
  EXPECT_EQ(Hex, "0b000000"
                 "03"
                 "0807060504030201"
                 "aabb");
  ::close(Fds[0]);
}

TEST(Wire, WriteReadAcrossSocket) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  DistFrame In;
  In.Verb = DistVerb::Heartbeat;
  In.Seq = 0;
  In.Body = {9, 9, 9};
  ASSERT_TRUE(writeDistFrame(Fds[1], In));
  DistFrame Out;
  ASSERT_EQ(readDistFrame(Fds[0], Out), FrameError::None);
  EXPECT_EQ(Out.Verb, DistVerb::Heartbeat);
  EXPECT_EQ(Out.Body, In.Body);
  ::close(Fds[1]);
  ::close(Fds[0]);
}

//===----------------------------------------------------------------------===//
// Peer list, registry, ring
//===----------------------------------------------------------------------===//

TEST(Peers, ParsePeerList) {
  auto Peers = parsePeerList("alpha:7001,beta:7002,127.0.0.1:7003");
  ASSERT_TRUE(Peers.has_value());
  ASSERT_EQ(Peers->size(), 3u);
  EXPECT_EQ((*Peers)[0].Id, 0);
  EXPECT_EQ((*Peers)[0].Host, "alpha");
  EXPECT_EQ((*Peers)[0].Port, 7001);
  EXPECT_EQ((*Peers)[2].Host, "127.0.0.1");
  EXPECT_EQ((*Peers)[2].Port, 7003);
}

TEST(Peers, ParsePeerListRejectsMalformed) {
  EXPECT_FALSE(parsePeerList("").has_value());
  EXPECT_FALSE(parsePeerList("hostonly").has_value());
  EXPECT_FALSE(parsePeerList("host:").has_value());
  EXPECT_FALSE(parsePeerList(":7001").has_value());
  EXPECT_FALSE(parsePeerList("a:1,,b:2").has_value());
  EXPECT_FALSE(parsePeerList("a:0").has_value());
  EXPECT_FALSE(parsePeerList("a:99999").has_value());
  EXPECT_FALSE(parsePeerList("a:12x4").has_value());
}

TEST(Peers, RegistryDeathAndRevival) {
  auto Peers = localPeers({1, 2, 3});
  PeerRegistry Reg(Peers, 0, /*DeadAfterSeconds=*/0.2);
  // Startup grace: everyone counts toward the ring at first.
  EXPECT_EQ(Reg.aliveIds(), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(Reg.sweep().empty());

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Reg.markAlive(1); // peer 1 heartbeats just in time
  std::vector<int> Died = Reg.sweep();
  EXPECT_EQ(Died, (std::vector<int>{2}));
  EXPECT_EQ(Reg.aliveIds(), (std::vector<int>{0, 1}));
  EXPECT_FALSE(Reg.isAlive(2));

  // A later heartbeat revives; the caller is told to rebuild the ring.
  EXPECT_TRUE(Reg.markAlive(2));
  EXPECT_TRUE(Reg.isAlive(2));
  EXPECT_EQ(Reg.aliveIds(), (std::vector<int>{0, 1, 2}));
}

TEST(Peers, RegistryFailureIsSuspicionNotDeath) {
  PeerRegistry Reg(localPeers({1, 2}), 0, 5.0);
  Reg.markAlive(1);
  Reg.noteFailure(1);
  // A failed link marks Suspect, but death still waits for the timeout.
  EXPECT_TRUE(Reg.isAlive(1));
  EXPECT_EQ(Reg.snapshot()[1].State, PeerState::Suspect);
  EXPECT_TRUE(Reg.sweep().empty());
}

TEST(Peers, RingCoversKeySpace) {
  ShardRing Ring({0, 1, 2}, 64);
  double Total = 0.0;
  for (int Peer : {0, 1, 2}) {
    double Share = Ring.ownedShare(Peer);
    EXPECT_GT(Share, 0.0);
    Total += Share;
  }
  EXPECT_NEAR(Total, 1.0, 1e-12);
  EXPECT_EQ(Ring.peers(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ShardRing().ownerOf(7), -1);
  EXPECT_NEAR(ShardRing({5}, 8).ownedShare(5), 1.0, 1e-12);
}

TEST(Peers, RingDeathOnlyRemapsTheDeadArc) {
  ShardRing Full({0, 1, 2}, 64);
  ShardRing Without1({0, 2}, 64);
  int Remapped = 0;
  for (std::uint64_t Key = 0; Key < 2000; ++Key) {
    int Before = Full.ownerOf(Key);
    int After = Without1.ownerOf(Key);
    if (Before != 1)
      EXPECT_EQ(After, Before) << "key " << Key
                               << " moved between surviving peers";
    else
      ++Remapped;
  }
  // Peer 1 owned roughly a third of the space; its keys moved.
  EXPECT_GT(Remapped, 200);
}

//===----------------------------------------------------------------------===//
// Socket MpEndpoints
//===----------------------------------------------------------------------===//

TEST(MpSocket, MsgBodyRoundTrip) {
  std::vector<std::uint8_t> Body = encodeMpMsgBody(1, 2, MpTagWork, {5, 6});
  int Src = 0, Dest = 0, Tag = 0;
  std::vector<std::uint8_t> Payload;
  ASSERT_TRUE(decodeMpMsgBody(Body, Src, Dest, Tag, Payload));
  EXPECT_EQ(Src, 1);
  EXPECT_EQ(Dest, 2);
  EXPECT_EQ(Tag, MpTagWork);
  EXPECT_EQ(Payload, (std::vector<std::uint8_t>{5, 6}));
  Body.resize(11); // shorter than the fixed prelude
  EXPECT_FALSE(decodeMpMsgBody(Body, Src, Dest, Tag, Payload));
}

TEST(MpSocket, SlaveSeesSyntheticTerminateOnBrokenLink) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  SlaveSocketEndpoint Slave(Fds[0], 1, 2);
  ::close(Fds[1]); // master dies
  Message Msg = Slave.recv();
  EXPECT_EQ(Msg.Tag, MpTagTerminate);
  EXPECT_TRUE(Slave.failed());
  // Sends on a broken link drop silently instead of crashing the solve.
  Slave.send(0, MpTagStats, {1});
  ::close(Fds[0]);
}

TEST(MpSocket, MasterRelaysWorkerToWorkerFrames) {
  int PairA[2], PairB[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, PairA), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, PairB), 0);
  {
    MasterSocketEndpoint Master({PairA[0], PairB[0]});
    SlaveSocketEndpoint S1(PairA[1], 1, 3);
    SlaveSocketEndpoint S2(PairB[1], 2, 3);
    EXPECT_EQ(Master.size(), 3);

    // Worker -> master lands in the inbox.
    S1.send(0, MpTagWorkRequest, {1});
    Message AtMaster = Master.recv();
    EXPECT_EQ(AtMaster.Source, 1);
    EXPECT_EQ(AtMaster.Tag, MpTagWorkRequest);

    // Worker -> worker is relayed by the master's reader thread with
    // the original source rank intact.
    S1.send(2, MpTagStealRequest, {42});
    Message AtS2 = S2.recv();
    EXPECT_EQ(AtS2.Source, 1);
    EXPECT_EQ(AtS2.Tag, MpTagStealRequest);
    EXPECT_EQ(AtS2.Payload, (std::vector<std::uint8_t>{42}));

    // Master -> worker.
    Master.send(1, MpTagUbUpdate, {9});
    Message AtS1 = S1.recv();
    EXPECT_EQ(AtS1.Source, 0);
    EXPECT_EQ(AtS1.Tag, MpTagUbUpdate);

    EXPECT_GE(Master.messagesSent(), 3u);
    EXPECT_FALSE(Master.trafficByTag().empty());
    EXPECT_TRUE(Master.failedRanks().empty());
  }
  ::close(PairA[1]);
  ::close(PairB[1]);
}

//===----------------------------------------------------------------------===//
// Distributed B&B sessions
//===----------------------------------------------------------------------===//

TEST(DistBnb, SessionSpecRoundTrip) {
  MpSessionSpec Spec;
  Spec.Rank = 2;
  Spec.WorldSize = 5;
  Spec.ThreeThree = ThreeThreeMode::ThirdSpecies;
  Spec.Epsilon = 1e-7;
  Spec.Proto.WorkStealing = true;
  Spec.Proto.StealDepthBound = 6;
  Spec.Proto.PeerUbBroadcast = true;
  auto Back = decodeMpSessionSpec(encodeMpSessionSpec(Spec));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Rank, 2);
  EXPECT_EQ(Back->WorldSize, 5);
  EXPECT_EQ(Back->ThreeThree, ThreeThreeMode::ThirdSpecies);
  EXPECT_DOUBLE_EQ(Back->Epsilon, 1e-7);
  EXPECT_TRUE(Back->Proto.WorkStealing);
  EXPECT_EQ(Back->Proto.StealDepthBound, 6);
  EXPECT_TRUE(Back->Proto.PeerUbBroadcast);
}

TEST(DistBnb, SessionSpecRejectsCorruption) {
  MpSessionSpec Spec;
  std::vector<std::uint8_t> Bytes = encodeMpSessionSpec(Spec);
  std::vector<std::uint8_t> Short(Bytes.begin(), Bytes.end() - 1);
  EXPECT_FALSE(decodeMpSessionSpec(Short).has_value());
  Bytes.push_back(0); // trailing garbage
  EXPECT_FALSE(decodeMpSessionSpec(Bytes).has_value());
  // Rank outside 1..WorldSize-1.
  MpSessionSpec Bad;
  Bad.Rank = 3;
  Bad.WorldSize = 2;
  EXPECT_FALSE(decodeMpSessionSpec(encodeMpSessionSpec(Bad)).has_value());
}

TEST(DistBnb, SlaveSessionEndsOnMalformedInit) {
  // Any connection that opens with MpOpen reaches this function, so its
  // first payload is untrusted: a 3-byte Init must end the session with
  // the slave's Stats, not abort the hosting peer.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  MpSessionSpec Spec;
  std::thread Session([Fd = Fds[1], Spec] { serveMpSlaveSession(Fd, Spec); });
  DistFrame Init;
  Init.Verb = DistVerb::MpMsg;
  Init.Body = encodeMpMsgBody(0, 1, MpTagInit, {1, 2, 3});
  ASSERT_TRUE(writeDistFrame(Fds[0], Init));
  DistFrame Reply;
  ASSERT_EQ(readDistFrame(Fds[0], Reply), FrameError::None);
  int Src = -1, Dest = -1, Tag = 0;
  std::vector<std::uint8_t> Payload;
  ASSERT_TRUE(decodeMpMsgBody(Reply.Body, Src, Dest, Tag, Payload));
  EXPECT_EQ(Src, 1);
  EXPECT_EQ(Dest, 0);
  EXPECT_EQ(Tag, MpTagStats);
  Session.join(); // returned on its own: no Terminate was sent
  ::close(Fds[0]);
  ::close(Fds[1]);
}

/// Runs a full master/slave search over socketpairs: the master loop in
/// this thread, each slave session in its own thread, exactly as the
/// cluster serves them over TCP.
double solveOverSocketPairs(const DistanceMatrix &M, int Slaves,
                            const MpProtocolOptions &Proto) {
  std::vector<int> MasterFds;
  std::vector<std::thread> Sessions;
  std::vector<int> SlaveFds;
  for (int I = 0; I < Slaves; ++I) {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    MasterFds.push_back(Fds[0]);
    SlaveFds.push_back(Fds[1]);
    MpSessionSpec Spec;
    Spec.Rank = I + 1;
    Spec.WorldSize = Slaves + 1;
    Spec.Proto = Proto;
    Sessions.emplace_back([Fd = Fds[1], Spec] {
      SlaveSessionOutcome Outcome = serveMpSlaveSession(Fd, Spec);
      EXPECT_FALSE(Outcome.Failed);
    });
  }
  MpMutResult Result;
  {
    MasterSocketEndpoint Master(std::move(MasterFds));
    Result = runMpMaster(Master, M, {}, Proto);
    EXPECT_TRUE(Master.failedRanks().empty());
    EXPECT_GT(Master.messagesSent(), 0u);
  }
  for (std::thread &T : Sessions)
    T.join();
  for (int Fd : SlaveFds)
    ::close(Fd);
  EXPECT_TRUE(Result.Tree.dominatesMatrix(M));
  return Result.Cost;
}

TEST(DistBnb, SocketWorldMatchesSequential) {
  DistanceMatrix M = uniformRandomMetric(11, 5);
  double Sequential = solveMutSequential(M).Cost;
  MpProtocolOptions Plain;
  EXPECT_NEAR(solveOverSocketPairs(M, 1, Plain), Sequential, 1e-9);
  EXPECT_NEAR(solveOverSocketPairs(M, 3, Plain), Sequential, 1e-9);
}

TEST(DistBnb, SocketWorldMatchesSequentialWithStealing) {
  DistanceMatrix M = uniformRandomMetric(11, 8);
  double Sequential = solveMutSequential(M).Cost;
  MpProtocolOptions Proto;
  Proto.WorkStealing = true;
  Proto.PeerUbBroadcast = true;
  EXPECT_NEAR(solveOverSocketPairs(M, 3, Proto), Sequential, 1e-9);
}

TEST(DistBnb, SolveOverPeersAgainstLiveNodes) {
  std::vector<int> Ports = {reservePort(), reservePort()};
  auto Peers = localPeers(Ports);
  ServiceOptions SvcOpts;
  SvcOpts.NumWorkers = 1;
  TreeService SvcA(SvcOpts), SvcB(SvcOpts);
  ClusterOptions OptsA, OptsB;
  OptsA.SelfId = 0;
  OptsA.Peers = Peers;
  OptsA.StealJobs = false;
  OptsB = OptsA;
  OptsB.SelfId = 1;
  ClusterNode NodeA(SvcA, OptsA), NodeB(SvcB, OptsB);
  std::string Error;
  ASSERT_TRUE(NodeA.start(&Error)) << Error;
  ASSERT_TRUE(NodeB.start(&Error)) << Error;

  DistanceMatrix M = uniformRandomMetric(12, 3);
  double Sequential = solveMutSequential(M).Cost;
  std::vector<int> FailedRanks;
  auto Result =
      solveMutOverPeers(M, Peers, {}, {}, 5.0, &Error, &FailedRanks);
  ASSERT_TRUE(Result.has_value()) << Error;
  EXPECT_NEAR(Result->Cost, Sequential, 1e-9);
  EXPECT_TRUE(FailedRanks.empty());
  EXPECT_GT(Result->MessagesSent, 0u);
  EXPECT_GT(Result->BytesSent, 0u);
  EXPECT_FALSE(Result->Traffic.empty());
  EXPECT_EQ(Result->Workers.size(), Peers.size());

  NodeA.stop();
  NodeB.stop();
}

TEST(DistBnb, SolveOverPeersFailsCleanlyWithoutListener) {
  // Nobody listens on the reserved port: all-or-nothing startup.
  std::vector<PeerSpec> Peers = {{0, "127.0.0.1", reservePort()}};
  std::string Error;
  auto Result = solveMutOverPeers(uniformRandomMetric(8, 1), Peers, {}, {},
                                  0.25, &Error);
  EXPECT_FALSE(Result.has_value());
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Cluster nodes: membership, cache sharding, stealing, death sweep
//===----------------------------------------------------------------------===//

/// Three services + three cluster nodes on localhost, wired and started.
struct ThreeNodeCluster {
  std::vector<int> Ports;
  std::vector<std::unique_ptr<TreeService>> Services;
  std::vector<std::unique_ptr<ClusterNode>> Nodes;

  explicit ThreeNodeCluster(
      const std::function<void(int, ServiceOptions &, ClusterOptions &)>
          &Tune = {}) {
    Ports = {reservePort(), reservePort(), reservePort()};
    auto Peers = localPeers(Ports);
    for (int I = 0; I < 3; ++I) {
      ServiceOptions SvcOpts;
      ClusterOptions Opts;
      Opts.SelfId = I;
      Opts.Peers = Peers;
      Opts.HeartbeatSeconds = 0.05;
      Opts.DeadAfterSeconds = 1.0;
      Opts.StealPollSeconds = 0.02;
      if (Tune)
        Tune(I, SvcOpts, Opts);
      Services.push_back(std::make_unique<TreeService>(SvcOpts));
      Nodes.push_back(std::make_unique<ClusterNode>(*Services[I], Opts));
    }
    for (auto &Node : Nodes) {
      std::string Error;
      EXPECT_TRUE(Node->start(&Error)) << Error;
    }
  }

  ~ThreeNodeCluster() {
    for (auto &Node : Nodes)
      Node->stop();
    for (auto &Svc : Services)
      Svc->stop();
  }

  /// True once every node judges every peer Alive (not just in grace).
  bool allAlive() {
    for (auto &Node : Nodes)
      for (const PeerRegistry::PeerInfo &Info : Node->registry().snapshot())
        if (Info.State != PeerState::Alive)
          return false;
    return true;
  }
};

TEST(Cluster, PeersConvergeAndAgreeOnOwnership) {
  ThreeNodeCluster C;
  ASSERT_TRUE(waitFor(10.0, [&] { return C.allAlive(); }));
  for (std::uint64_t Key = 1; Key <= 500; ++Key) {
    int Owner = C.Nodes[0]->ownerOf(Key);
    EXPECT_GE(Owner, 0);
    EXPECT_EQ(C.Nodes[1]->ownerOf(Key), Owner);
    EXPECT_EQ(C.Nodes[2]->ownerOf(Key), Owner);
  }
}

TEST(Cluster, StatsJsonCarriesClusterSection) {
  ThreeNodeCluster C;
  std::string Json = C.Nodes[0]->statsJson();
  EXPECT_NE(Json.find("\"self\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"peers\":["), std::string::npos);
  EXPECT_NE(Json.find("\"shard_share\""), std::string::npos);
  // The service merges it as the `cluster` section of StatsJson.
  std::string Merged = C.Services[0]->statsJson();
  EXPECT_NE(Merged.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(Merged.find("\"jobs_lent\""), std::string::npos);
}

TEST(Cluster, CacheEntryCodecRoundTrip) {
  DistanceMatrix M = uniformRandomMetric(8, 2);
  MutResult Solved = solveMutSequential(M);
  CachedSolution Value;
  Value.Tree = Solved.Tree;
  Value.Cost = Solved.Cost;
  Value.Exact = true;
  Value.Block = true;
  Value.Bytes = canonicalForm(M).Bytes;
  // The CacheHit/CacheInsert body is the durable cache record encoding.
  std::vector<std::uint8_t> Encoded =
      persist::encodeCacheRecord(toDurableRecord(77, Value));
  std::optional<persist::DurableCacheRecord> Rec =
      persist::decodeCacheRecord(Encoded);
  ASSERT_TRUE(Rec.has_value());
  EXPECT_EQ(Rec->Key, 77u);
  CachedSolution Back = fromDurableRecord(std::move(*Rec));
  EXPECT_DOUBLE_EQ(Back.Cost, Value.Cost);
  EXPECT_TRUE(Back.Exact);
  EXPECT_TRUE(Back.Block);
  EXPECT_EQ(Back.Bytes, Value.Bytes);
  EXPECT_DOUBLE_EQ(Back.Tree.weight(), Value.Tree.weight());
  // Truncation is rejected, never mis-decoded.
  Encoded.resize(Encoded.size() - 1);
  EXPECT_FALSE(persist::decodeCacheRecord(Encoded).has_value());
}

TEST(Cluster, ShardedLookupServesRemoteInsert) {
  ThreeNodeCluster C;
  ASSERT_TRUE(waitFor(10.0, [&] { return C.allAlive(); }));

  DistanceMatrix M = uniformRandomMetric(8, 4);
  MutResult Solved = solveMutSequential(M);
  CachedSolution Value;
  Value.Tree = Solved.Tree;
  Value.Cost = Solved.Cost;
  Value.Exact = true;
  // The owner decodes the forwarded entry as untrusted input, so it
  // carries the tree's own identity: canonical bytes and the two
  // whole-matrix knob bytes.
  Value.Bytes = canonicalForm(M).Bytes;
  Value.Bytes.insert(Value.Bytes.end(), {0, 0});

  // A key node 1 owns, seen identically from node 0.
  std::uint64_t Key = 1;
  while (C.Nodes[0]->ownerOf(Key) != 1)
    ++Key;

  // Node 0 forwards the insert to the owner, then its next lookup for
  // the key is answered by that owner. Both frames share one link, so
  // FIFO ordering makes the hit deterministic.
  C.Nodes[0]->insert(Key, Value, CacheTier::Whole);
  auto Hit = C.Nodes[0]->lookup(Key, Value.Bytes, CacheTier::Whole);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Cost, Value.Cost);
  EXPECT_TRUE(Hit->Exact);

  // A remote entry is no more trusted than a local one: mismatched
  // canonical identity bytes are a collision, not a hit.
  auto Collision = C.Nodes[0]->lookup(Key, {9, 9, 9}, CacheTier::Whole);
  EXPECT_FALSE(Collision.has_value());

  // The namespace is part of the identity too: a whole-matrix entry
  // never answers a block-tier probe.
  auto WrongTier = C.Nodes[0]->lookup(Key, Value.Bytes, CacheTier::Block);
  EXPECT_FALSE(WrongTier.has_value());

  // Keys this node owns never leave the process.
  std::uint64_t OwnKey = 1;
  while (C.Nodes[0]->ownerOf(OwnKey) != 0)
    ++OwnKey;
  EXPECT_FALSE(
      C.Nodes[0]->lookup(OwnKey, Value.Bytes, CacheTier::Whole).has_value());
}

TEST(Cluster, WholeMatrixHitTravelsAcrossPeers) {
  ThreeNodeCluster C;
  ASSERT_TRUE(waitFor(10.0, [&] { return C.allAlive(); }));

  DistanceMatrix M = uniformRandomMetric(10, 6);
  BuildResponse First = C.Services[0]->submit(inlineRequest(M));
  ASSERT_TRUE(First.ok()) << First.Message;
  EXPECT_FALSE(First.CacheHit);

  // The solution's shard owner has it now (one-way insert; give the
  // frame a moment). Wherever the owner is, node 1 must answer the
  // same matrix from the cluster cache without running a solver.
  BuildResponse Second;
  ASSERT_TRUE(waitFor(5.0, [&] {
    Second = C.Services[1]->submit(inlineRequest(M));
    return Second.ok() && Second.CacheHit;
  })) << "peer never saw the cached solution";
  EXPECT_NEAR(Second.Cost, First.Cost, 1e-9);
  EXPECT_TRUE(Second.Exact);
}

TEST(Cluster, BlockSolvedOnOnePeerServesAnother) {
  ThreeNodeCluster C;
  ASSERT_TRUE(waitFor(10.0, [&] { return C.allAlive(); }));

  // X and Y are different whole matrices sharing one hard module: a
  // near-equidistant 6-species block (no internal compact sets, so it
  // condenses whole and is big enough for the remote size floor).
  auto HardModule = [](std::uint64_t Seed) {
    return scaledToMax(uniformRandomMetric(6, Seed, 18.0, 20.0), 20.0);
  };
  auto Compose = [&](std::uint64_t SeedA, std::uint64_t SeedB) {
    DistanceMatrix Out(12);
    for (int I = 0; I < 12; ++I)
      for (int J = I + 1; J < 12; ++J)
        Out.set(I, J, 80.0);
    DistanceMatrix A = HardModule(SeedA), B = HardModule(SeedB);
    for (int I = 0; I < 6; ++I)
      for (int J = I + 1; J < 6; ++J) {
        Out.set(I, J, A.at(I, J));
        Out.set(6 + I, 6 + J, B.at(I, J));
      }
    return Out;
  };
  DistanceMatrix X = Compose(1, 2);
  DistanceMatrix Y = Compose(1, 3);

  // The shared module's decomposition — and so its blocks' relabeling-
  // invariant fingerprints — is identical whether the module is solved
  // alone or inside a composition. Record its biggest block's identity
  // by running a local pipeline over the module with spy hooks.
  std::uint64_t SharedKey = 0;
  std::vector<std::uint8_t> SharedBytes;
  {
    BlockCacheHooks Spy;
    int Biggest = 0;
    Spy.Lookup = [&](std::uint64_t Key, const std::vector<std::uint8_t> &Bytes)
        -> std::optional<BlockCacheEntry> {
      int N = canonicalSpeciesCount(Bytes);
      if (N > Biggest) {
        Biggest = N;
        SharedKey = Key;
        SharedBytes = Bytes;
      }
      return std::nullopt;
    };
    PipelineOptions PipeOpts;
    PipeOpts.BlockCache = &Spy;
    buildCompactSetTree(HardModule(1), PipeOpts);
    // Must clear the remote size floor (RemoteBlockMinSize, Service.cpp).
    ASSERT_GE(Biggest, 3);
  }

  // Node 0 solves X, which stores every block subtree under its raw
  // fingerprint and forwards the big ones to their shard owners. Wait
  // for the shared block to become reachable from node 1 — either in
  // its own shard (the forward landed there) or at the owning peer.
  BuildResponse First = C.Services[0]->submit(inlineRequest(X));
  ASSERT_TRUE(First.ok()) << First.Message;
  EXPECT_TRUE(First.Exact);

  ASSERT_TRUE(waitFor(5.0, [&] {
    return C.Services[1]->cacheLookup(SharedKey, SharedBytes).has_value() ||
           C.Nodes[1]->lookup(SharedKey, SharedBytes, CacheTier::Block)
               .has_value();
  })) << "shared block never became reachable from node 1";

  // Node 1 has solved nothing, yet Y's shared module must replay from
  // the cluster's block tier; only the fresh module runs a solver.
  BuildResponse Second = C.Services[1]->submit(inlineRequest(Y));
  ASSERT_TRUE(Second.ok()) << Second.Message;
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_GE(Second.BlockCacheHits, 1u);

  // Reuse across the ring must not change the answer.
  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheCapacity = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdResp = Cold.submit(inlineRequest(Y));
  ASSERT_TRUE(ColdResp.ok()) << ColdResp.Message;
  EXPECT_EQ(ColdResp.Newick, Second.Newick);
  EXPECT_NEAR(ColdResp.Cost, Second.Cost, 1e-9);
  Cold.stop();
}

TEST(Cluster, IdlePeersStealQueuedJobs) {
  obs::DistInstruments &Obs = obs::distInstruments();
  std::uint64_t StolenBefore = Obs.JobsStolen.value();
  std::uint64_t LentBefore = Obs.JobsLent.value();

  ThreeNodeCluster C([](int Id, ServiceOptions &Svc, ClusterOptions &) {
    if (Id == 0)
      Svc.NumWorkers = 1; // node 0 backs up; 1 and 2 idle-steal
  });
  ASSERT_TRUE(waitFor(10.0, [&] { return C.allAlive(); }));

  // Pin node 0's only worker on a long solve, then queue work the idle
  // peers can take.
  auto LongFuture = C.Services[0]->submitAsync(slowRequest(9));
  ASSERT_TRUE(waitFor(10.0, [&] { return C.Services[0]->inFlight() >= 1; }));

  std::vector<DistanceMatrix> Smalls;
  std::vector<std::future<BuildResponse>> Futures;
  for (std::uint64_t Seed = 0; Seed < 3; ++Seed) {
    Smalls.push_back(uniformRandomMetric(11, 40 + Seed));
    Futures.push_back(C.Services[0]->submitAsync(inlineRequest(Smalls.back())));
  }

  EXPECT_TRUE(waitFor(30.0, [&] {
    return Obs.JobsStolen.value() > StolenBefore;
  })) << "no peer ever stole from the backed-up node";

  // Every answer matches what a standalone service produces for the
  // same request, no matter which node solved it.
  ServiceOptions RefOpts;
  RefOpts.NumWorkers = 1;
  TreeService Ref(RefOpts);
  for (std::size_t I = 0; I < Futures.size(); ++I) {
    BuildResponse R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << R.Message;
    BuildResponse Expected = Ref.submit(inlineRequest(Smalls[I]));
    ASSERT_TRUE(Expected.ok());
    EXPECT_NEAR(R.Cost, Expected.Cost, 1e-9);
    EXPECT_EQ(R.Newick, Expected.Newick);
  }
  Ref.stop();
  BuildResponse LongR = LongFuture.get();
  ASSERT_TRUE(LongR.ok());
  EXPECT_GT(Obs.JobsLent.value(), LentBefore);
}

TEST(Cluster, DeadThiefJobsAreReenqueued) {
  obs::DistInstruments &Obs = obs::distInstruments();
  std::uint64_t ReenqueuedBefore = Obs.JobsReenqueued.value();

  // Two seats: node 0 is real, seat 1 is played by this test over a raw
  // socket — a thief we can kill without mercy or cleanup.
  std::vector<int> Ports = {reservePort(), reservePort()};
  ServiceOptions SvcOpts;
  SvcOpts.NumWorkers = 1;
  TreeService Svc(SvcOpts);
  ClusterOptions Opts;
  Opts.SelfId = 0;
  Opts.Peers = localPeers(Ports);
  Opts.HeartbeatSeconds = 0.05;
  Opts.DeadAfterSeconds = 0.4;
  Opts.StealJobs = false;
  ClusterNode Node(Svc, Opts);
  std::string Error;
  ASSERT_TRUE(Node.start(&Error)) << Error;

  // Busy the only worker, then queue the job the thief will take.
  auto LongFuture = Svc.submitAsync(slowRequest(2));
  ASSERT_TRUE(waitFor(10.0, [&] { return Svc.inFlight() >= 1; }));
  DistanceMatrix Small = uniformRandomMetric(10, 3);
  auto SmallFuture = Svc.submitAsync(inlineRequest(Small));

  int Thief = connectTcpSocket("127.0.0.1", Node.port(), 2.0, &Error);
  ASSERT_GE(Thief, 0) << Error;
  DistFrame Hello;
  Hello.Verb = DistVerb::Hello;
  {
    ByteWriter Writer;
    Writer.writeU32(1);
    Hello.Body = Writer.take();
  }
  ASSERT_TRUE(writeDistFrame(Thief, Hello));

  DistFrame Steal;
  Steal.Verb = DistVerb::StealJob;
  Steal.Seq = 7;
  ASSERT_TRUE(writeDistFrame(Thief, Steal));
  DistFrame Grant;
  ASSERT_EQ(readDistFrame(Thief, Grant), FrameError::None);
  ASSERT_EQ(Grant.Verb, DistVerb::JobGrant);
  EXPECT_EQ(Grant.Seq, 7u);
  {
    ByteReader Reader(Grant.Body);
    std::uint64_t Token = 0;
    std::vector<std::uint8_t> Encoded;
    ASSERT_TRUE(Reader.readU64(Token));
    ASSERT_TRUE(Reader.readBytes(Encoded));
    EXPECT_GT(Token, 0u);
    // The grant carries a decodable protocol frame of the lent job.
    auto Decoded = decodeRequest(Encoded);
    ASSERT_TRUE(Decoded.has_value());
    EXPECT_EQ(Decoded->Build.Matrix.size(), Small.size());
  }
  EXPECT_EQ(Svc.lentJobCount(), 1u);

  // The thief dies holding the job: no result, no goodbye. The victim's
  // death sweep must reclaim it and answer the original caller.
  ::close(Thief);
  EXPECT_TRUE(waitFor(15.0, [&] {
    return Obs.JobsReenqueued.value() > ReenqueuedBefore;
  })) << "death sweep never re-enqueued the lent job";

  BuildResponse SmallR = SmallFuture.get();
  ASSERT_TRUE(SmallR.ok()) << SmallR.Message;
  EXPECT_NEAR(SmallR.Cost, solveMutSequential(Small).Cost, 1e-9);
  ASSERT_TRUE(LongFuture.get().ok());
  EXPECT_EQ(Svc.lentJobCount(), 0u);

  Node.stop();
  Svc.stop();
}

//===----------------------------------------------------------------------===//
// SIGKILL drill: real peer processes, hard-killed mid-steal
//===----------------------------------------------------------------------===//

// fork() under ThreadSanitizer deadlocks sporadically when the parent
// holds runtime locks, so the hard-kill drill runs on the Release and
// ASan legs only (matching the persist_test convention).
#if !defined(__SANITIZE_THREAD__)

namespace {

/// SIGKILLs and reaps a child on scope exit, test failures included.
struct ChildGuard {
  pid_t Pid = -1;
  ~ChildGuard() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
};

/// Child body: one full peer (service + cluster node) that steals
/// aggressively until killed. Never returns.
[[noreturn]] void runPeerProcess(int SelfId, const std::vector<int> &Ports) {
  ServiceOptions SvcOpts;
  SvcOpts.NumWorkers = 2;
  TreeService Svc(SvcOpts);
  ClusterOptions Opts;
  Opts.SelfId = SelfId;
  Opts.Peers = localPeers(Ports);
  Opts.HeartbeatSeconds = 0.05;
  Opts.DeadAfterSeconds = 1.0;
  Opts.StealPollSeconds = 0.02;
  ClusterNode Node(Svc, Opts);
  std::string Error;
  if (!Node.start(&Error))
    ::_exit(2);
  for (;;)
    ::pause();
}

} // namespace

TEST(ClusterDrill, SigkilledPeerLosesNoJobs) {
  obs::DistInstruments &Obs = obs::distInstruments();
  std::uint64_t ReenqueuedBefore = Obs.JobsReenqueued.value();

  std::vector<int> Ports = {reservePort(), reservePort(), reservePort()};
  ChildGuard Peer1, Peer2;
  Peer1.Pid = ::fork();
  ASSERT_GE(Peer1.Pid, 0);
  if (Peer1.Pid == 0)
    runPeerProcess(1, Ports);
  Peer2.Pid = ::fork();
  ASSERT_GE(Peer2.Pid, 0);
  if (Peer2.Pid == 0)
    runPeerProcess(2, Ports);

  ServiceOptions SvcOpts;
  SvcOpts.NumWorkers = 1;
  TreeService Svc(SvcOpts);
  ClusterOptions Opts;
  Opts.SelfId = 0;
  Opts.Peers = localPeers(Ports);
  Opts.HeartbeatSeconds = 0.05;
  Opts.DeadAfterSeconds = 1.0;
  Opts.StealJobs = false; // this node is the victim, not a thief
  ClusterNode Node(Svc, Opts);
  std::string Error;
  ASSERT_TRUE(Node.start(&Error)) << Error;
  ASSERT_TRUE(waitFor(20.0, [&] {
    for (const PeerRegistry::PeerInfo &Info : Node.registry().snapshot())
      if (Info.State != PeerState::Alive)
        return false;
    return true;
  })) << "forked peers never came up";

  // One long job pins the single local worker; the rest queue up for
  // the children to steal over TCP. The first stealable job is itself
  // long, so the thief that takes it is still mid-solve when killed.
  std::vector<DistanceMatrix> Smalls = {uniformRandomMetric(11, 23),
                                        uniformRandomMetric(11, 24)};
  std::vector<std::future<BuildResponse>> Futures;
  Futures.push_back(Svc.submitAsync(slowRequest(21)));
  ASSERT_TRUE(waitFor(10.0, [&] { return Svc.inFlight() >= 1; }));
  Futures.push_back(Svc.submitAsync(slowRequest(22)));
  for (const DistanceMatrix &M : Smalls)
    Futures.push_back(Svc.submitAsync(inlineRequest(M)));

  // Wait until at least one job is physically lent out, then SIGKILL
  // both thieves mid-solve.
  ASSERT_TRUE(waitFor(30.0, [&] { return Svc.lentJobCount() >= 1; }))
      << "children never stole a job";
  ASSERT_EQ(::kill(Peer1.Pid, SIGKILL), 0);
  ASSERT_EQ(::kill(Peer2.Pid, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Peer1.Pid, &Status, 0), Peer1.Pid);
  EXPECT_TRUE(WIFSIGNALED(Status));
  ASSERT_EQ(::waitpid(Peer2.Pid, &Status, 0), Peer2.Pid);
  EXPECT_TRUE(WIFSIGNALED(Status));
  Peer1.Pid = Peer2.Pid = -1;

  // The death sweep reclaims whatever was in flight at the kill...
  EXPECT_TRUE(waitFor(30.0, [&] {
    return Svc.lentJobCount() == 0;
  })) << "lent jobs were never reclaimed";

  // ...and every admitted job is still answered; the small inline
  // matrices additionally match a standalone service's answer no matter
  // which process ended up solving them.
  ServiceOptions RefOpts;
  RefOpts.NumWorkers = 1;
  TreeService Ref(RefOpts);
  for (std::size_t I = 0; I < Futures.size(); ++I) {
    BuildResponse R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << "job " << I << ": " << R.Message;
    if (I >= 2) {
      BuildResponse Expected = Ref.submit(inlineRequest(Smalls[I - 2]));
      ASSERT_TRUE(Expected.ok());
      EXPECT_NEAR(R.Cost, Expected.Cost, 1e-9) << "job " << I;
    }
  }
  Ref.stop();
  EXPECT_GT(Obs.JobsReenqueued.value(), ReenqueuedBefore);

  Node.stop();
  Svc.stop();
}

#endif // !__SANITIZE_THREAD__

} // namespace

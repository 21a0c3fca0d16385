//===- mp/MpBnb.cpp - Message-passing master/slave B&B ---------------------===//

#include "mp/MpBnb.h"

#include "bnb/Search.h"
#include "mp/Communicator.h"
#include "mp/Serialize.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <thread>

using namespace mutk;

const char *mutk::mpTagName(int Tag) {
  switch (Tag) {
  case MpTagInit:
    return "Init";
  case MpTagWork:
    return "Work";
  case MpTagWorkRequest:
    return "WorkRequest";
  case MpTagDonation:
    return "Donation";
  case MpTagSolution:
    return "Solution";
  case MpTagUbUpdate:
    return "UbUpdate";
  case MpTagNeedWork:
    return "NeedWork";
  case MpTagTerminate:
    return "Terminate";
  case MpTagStats:
    return "Stats";
  case MpTagStealRequest:
    return "StealRequest";
  case MpTagStealReply:
    return "StealReply";
  case MpTagStealGrant:
    return "StealGrant";
  default:
    return "?";
  }
}

namespace {

std::vector<std::uint8_t> encodeSolution(double Cost, const Topology &T) {
  ByteWriter Writer;
  Writer.writeF64(Cost);
  writeTopology(Writer, T);
  return Writer.take();
}

std::vector<std::uint8_t> encodeStats(const BnbStats &Stats,
                                      const WorkerStats &Worker) {
  ByteWriter Writer;
  writeBnbCounters(Writer, Stats);
  Writer.writeU64(Worker.Branched);
  Writer.writeU64(Worker.PulledFromGlobal);
  Writer.writeU64(Worker.DonatedToGlobal);
  Writer.writeU64(Worker.UbUpdates);
  Writer.writeU64(Worker.StolenFromPeers);
  Writer.writeU64(Worker.DonatedToPeers);
  Writer.writeU64(Worker.PeerUbBroadcasts);
  return Writer.take();
}

bool decodeStats(const std::vector<std::uint8_t> &Payload, BnbStats &Stats,
                 WorkerStats &Worker) {
  ByteReader Reader(Payload);
  return readBnbCounters(Reader, Stats) && Reader.readU64(Worker.Branched) &&
         Reader.readU64(Worker.PulledFromGlobal) &&
         Reader.readU64(Worker.DonatedToGlobal) &&
         Reader.readU64(Worker.UbUpdates) &&
         Reader.readU64(Worker.StolenFromPeers) &&
         Reader.readU64(Worker.DonatedToPeers) &&
         Reader.readU64(Worker.PeerUbBroadcasts) && Reader.atEnd();
}

/// Decodes a UbUpdate payload.
bool decodeBound(const std::vector<std::uint8_t> &Payload, double &Ub) {
  ByteReader Reader(Payload);
  return Reader.readF64(Ub) && Reader.atEnd();
}

/// Decodes an Init payload: the starting bound and a relabeled matrix the
/// engine can take (2 to `MaxBnbSpecies` species).
bool decodeInit(const std::vector<std::uint8_t> &Payload, double &Ub,
                DistanceMatrix &M) {
  ByteReader Reader(Payload);
  return Reader.readF64(Ub) &&
         readMatrix(Reader, M, static_cast<std::uint32_t>(MaxBnbSpecies)) &&
         M.size() >= 2 && Reader.atEnd();
}

} // namespace

WorkerStats mutk::runMpSlave(MpEndpoint &Self, const BnbOptions &Options,
                             const MpProtocolOptions &Proto) {
  BnbStats Stats;
  WorkerStats Worker;
  // Every way out of a session reports the counters: a Terminate, a
  // broken link (which the endpoint turns into a Terminate) and a
  // malformed payload alike.
  auto finish = [&]() -> WorkerStats {
    Self.send(0, MpTagStats, encodeStats(Stats, Worker));
    return Worker;
  };

  // Wait for Init: the relabeled matrix and the starting upper bound.
  // A Terminate before Init means the master solved a trivial instance
  // without distributing anything. Relayed peer frames can also land
  // before Init: the master's main thread writes Init to each worker in
  // turn while its reader threads relay worker-to-worker traffic onto
  // the same links, so a fast worker that comes up dry can have its
  // StealRequest (or an incumbent broadcast) forwarded to a peer that
  // has not seen Init yet. Those frames are answered conservatively
  // here — a steal is refused (the thief blocks on the reply, so it
  // must always get one), bounds and donation pleas are folded into the
  // post-Init state.
  DistanceMatrix Relabeled;
  double KnownUb = 0.0;
  bool PreInitNeedWork = false;
  double PreInitUb = std::numeric_limits<double>::infinity();
  for (;;) {
    Message Init = Self.recv();
    if (Init.Tag == MpTagStealRequest) {
      ByteWriter Reply;
      Reply.writeU8(0);
      Self.send(Init.Source, MpTagStealReply, Reply.take());
      continue;
    }
    if (Init.Tag == MpTagUbUpdate) {
      double Ub;
      if (!decodeBound(Init.Payload, Ub))
        return finish();
      PreInitUb = std::min(PreInitUb, Ub);
      continue;
    }
    if (Init.Tag == MpTagNeedWork) {
      PreInitNeedWork = true;
      continue;
    }
    double Ub;
    if (Init.Tag != MpTagInit || !decodeInit(Init.Payload, Ub, Relabeled))
      return finish();
    KnownUb = std::min(Ub, PreInitUb);
    break;
  }
  // The worker's engine must share the master's label space exactly:
  // the shipped matrix is already maxmin-ordered, so skip relabeling.
  BnbOptions SlaveOptions = Options;
  SlaveOptions.InitialUpperBound = KnownUb;
  SlaveOptions.AssumeMaxminOrdered = true;
  BnbEngine Engine(Relabeled, SlaveOptions);
  const double Eps = Options.Epsilon;
  const int NumWorkers = Self.size() - 1;

  std::deque<Topology> Local; // back = best
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Branches;
  bool DonateRequested = PreInitNeedWork;
  // Cumulative count of work items received (master Work messages and
  // granted steals); shipped inside every WorkRequest so the master can
  // recognize stale requests (a request sent while granted work was
  // still in flight).
  std::uint64_t WorkReceived = 0;
  // True while this worker has an outstanding StealRequest. At most one
  // at a time, and it always waits for the reply before asking the
  // master — that is what keeps stolen work visible to the termination
  // protocol (see MpBnb.h).
  bool StealInFlight = false;
  // One steal attempt per dry spell; reset whenever new work arrives.
  bool TriedSteal = false;
  std::uint64_t VictimCursor = static_cast<std::uint64_t>(Self.rank());

  auto pickVictim = [&]() -> int {
    for (;;) {
      int V = 1 + static_cast<int>(VictimCursor++ %
                                   static_cast<std::uint64_t>(NumWorkers));
      if (V != Self.rank())
        return V;
    }
  };

  auto announceIncumbent = [&](double Cost, const Topology &T) {
    Self.send(0, MpTagSolution, encodeSolution(Cost, T));
    if (Proto.PeerUbBroadcast) {
      ByteWriter Writer;
      Writer.writeF64(Cost);
      for (int Peer = 1; Peer <= NumWorkers; ++Peer)
        if (Peer != Self.rank()) {
          Self.send(Peer, MpTagUbUpdate, Writer.bytes());
          ++Worker.PeerUbBroadcasts;
        }
    }
  };

  auto handle = [&](const Message &Msg) -> bool /*session over?*/ {
    switch (Msg.Tag) {
    case MpTagUbUpdate: {
      // From the master or (peer broadcast mode) directly from a peer;
      // either way the local bound cache keeps the min of everything
      // heard so far.
      double Ub;
      if (!decodeBound(Msg.Payload, Ub))
        return true;
      KnownUb = std::min(KnownUb, Ub);
      return false;
    }
    case MpTagNeedWork:
      DonateRequested = true;
      return false;
    case MpTagWork: {
      std::optional<Topology> T = decodeTopology(Msg.Payload);
      if (!T)
        return true;
      Local.push_back(std::move(*T));
      ++Worker.PulledFromGlobal;
      ++WorkReceived;
      TriedSteal = false;
      return false;
    }
    case MpTagStealRequest: {
      // A dry peer asks for work. Grant the *front* of the deque (the
      // worst, shallowest node — the one donation would ship too) when
      // we can spare it and it is within the depth bound; shallow nodes
      // represent large subtrees, so they are the ones worth moving.
      bool CanGrant =
          Local.size() > 1 &&
          (Proto.StealDepthBound <= 0 ||
           Local.front().numPlaced() <= Proto.StealDepthBound);
      ByteWriter Reply;
      if (CanGrant) {
        // Report the grant to the master *first*: FIFO on this channel
        // guarantees the master learns of it before any later idle
        // report from this worker, keeping termination safe.
        ByteWriter Grant;
        Grant.writeU32(static_cast<std::uint32_t>(Msg.Source));
        Self.send(0, MpTagStealGrant, Grant.take());
        Reply.writeU8(1);
        writeTopology(Reply, Local.front());
        Local.pop_front();
        ++Worker.DonatedToPeers;
      } else {
        Reply.writeU8(0);
      }
      Self.send(Msg.Source, MpTagStealReply, Reply.take());
      return false;
    }
    case MpTagStealReply: {
      if (!StealInFlight)
        return true; // nobody asked
      StealInFlight = false;
      ByteReader Reader(Msg.Payload);
      std::uint8_t Granted = 0;
      std::optional<Topology> T;
      if (!Reader.readU8(Granted) || Granted > 1 ||
          (Granted && !readTopology(Reader, T)) || !Reader.atEnd())
        return true;
      if (T) {
        Local.push_back(std::move(*T));
        ++Worker.StolenFromPeers;
        ++WorkReceived;
        TriedSteal = false;
      }
      return false;
    }
    default:
      // Terminate, or a tag no master sends a slave.
      return true;
    }
  };

  for (;;) {
    // Drain pending control traffic.
    while (auto Msg = Self.tryRecv())
      if (handle(*Msg))
        return finish();

    if (DonateRequested && Local.size() > 1) {
      // The paper's donation step: ship the worst local node (front).
      Self.send(0, MpTagDonation, encodeTopology(Local.front()));
      Local.pop_front();
      ++Worker.DonatedToGlobal;
      DonateRequested = false;
    }

    if (Local.empty()) {
      if (Proto.WorkStealing && NumWorkers > 1 && !TriedSteal) {
        TriedSteal = true;
        Self.send(pickVictim(), MpTagStealRequest);
        StealInFlight = true;
        // Block until the reply (victims always answer, even while they
        // are themselves waiting for work).
        while (StealInFlight) {
          Message Msg = Self.recv();
          if (handle(Msg))
            return finish();
        }
        if (!Local.empty())
          continue;
      }
      ByteWriter Writer;
      Writer.writeU64(WorkReceived);
      Self.send(0, MpTagWorkRequest, Writer.take());
      // Block until work or termination arrives.
      for (;;) {
        Message Msg = Self.recv();
        if (handle(Msg))
          return finish();
        if (Msg.Tag == MpTagWork)
          break;
      }
      continue;
    }

    Topology Current = std::move(Local.back());
    Local.pop_back();
    if (searchStep(
            Engine, std::move(Current), KnownUb, Stats, Arena, Branches,
            ChildOrder::WorstFirst,
            [&](const Topology &Child) {
              const double Cost = Child.cost();
              if (Cost < KnownUb - Eps) {
                KnownUb = Cost;
                ++Worker.UbUpdates;
                ++Stats.UbUpdates;
                announceIncumbent(Cost, Child);
              }
            },
            [&](BranchedChild &&Child) {
              Local.push_back(std::move(Child.Node));
            }))
      ++Worker.Branched;
  }
}

MpMutResult mutk::runMpMaster(MpEndpoint &Self, const DistanceMatrix &M,
                              const BnbOptions &Options,
                              const MpProtocolOptions &Proto) {
  (void)Proto; // the master's side of the protocol is extension-agnostic
  assert(Self.rank() == 0 && "master must run on rank 0");
  const int NumWorkers = Self.size() - 1;
  assert(NumWorkers >= 1 && "need at least one worker rank");
  assert(!Options.CollectAllOptimal &&
         "CollectAllOptimal is not supported by the message-passing solver");

  MpMutResult Result;
  Result.Workers.resize(static_cast<std::size_t>(NumWorkers));
  BnbStats &Stats = Result.Stats;

  // Folds one worker's final Stats message into the result; a malformed
  // one still ends that worker's part. Every exit path collects all of
  // them, so slaves always unblock.
  int StatsCollected = 0;
  auto absorbStats = [&](const Message &Msg) {
    ++StatsCollected;
    BnbStats S;
    WorkerStats W;
    if (!decodeStats(Msg.Payload, S, W))
      return;
    Stats.Branched += S.Branched;
    Stats.Generated += S.Generated;
    Stats.PrunedByBound += S.PrunedByBound;
    Stats.PrunedByThreeThree += S.PrunedByThreeThree;
    Result.Workers[static_cast<std::size_t>(Msg.Source - 1)] = W;
  };

  if (solveTrivial(M, Result)) {
    Self.broadcast(MpTagTerminate);
    while (StatsCollected < NumWorkers) {
      Message Msg = Self.recv();
      if (Msg.Tag == MpTagStats)
        absorbStats(Msg);
    }
    return Result;
  }

  // Master phase (Steps 4-6): seed the BBT to 2x the number of computing
  // nodes, sort by bound and deal cyclically.
  BnbEngine Engine(M, Options);
  Incumbent Best(Engine);
  std::vector<std::deque<Topology>> Pools = dealByBound(
      Engine,
      seedFrontier(Engine, 2 * static_cast<std::size_t>(NumWorkers), Best,
                   Stats),
      NumWorkers);

  // Init every worker with the relabeled matrix and UB.
  const DistanceMatrix &Relabeled = Engine.relabeledMatrix();
  {
    ByteWriter Writer;
    Writer.reserve(8 + matrixWireBytes(Relabeled));
    Writer.writeF64(Best.upperBound());
    writeMatrix(Writer, Relabeled);
    for (int W = 1; W <= NumWorkers; ++W)
      Self.send(W, MpTagInit, Writer.bytes());
  }

  // Credit counters per worker rank: master Work grants plus reported
  // peer-steal grants. A WorkRequest carrying a smaller received-count
  // than this is stale (its work is still in flight).
  std::vector<std::uint64_t> Expected(static_cast<std::size_t>(NumWorkers) + 1,
                                      0);

  // Ship each pool front to back: the slave appends every Work to its
  // own pool, which then also ends with its best node at the back.
  for (int W = 1; W <= NumWorkers; ++W)
    for (const Topology &T : Pools[static_cast<std::size_t>(W - 1)]) {
      ++Expected[static_cast<std::size_t>(W)];
      Self.send(W, MpTagWork, encodeTopology(T));
    }

  // Coordinator loop.
  std::deque<Topology> GlobalPool;
  std::deque<int> PendingRequesters;
  bool Terminating = false;
  // A malformed payload from a slave ends the solve: skipping it could
  // drop a donated subtree, so the master stops dealing, terminates every
  // slave and returns its incumbent as unproven.
  auto abandon = [&] {
    Stats.Complete = false;
    if (!Terminating) {
      Terminating = true;
      Self.broadcast(MpTagTerminate);
    }
  };
  while (StatsCollected < NumWorkers) {
    Message Msg = Self.recv();
    switch (Msg.Tag) {
    case MpTagSolution: {
      // The topology carries its own cost; the leading copy is read
      // past. Only a tree over all n species whose every height is the
      // minimal one for the master's own matrix is offered.
      ByteReader Reader(Msg.Payload);
      double Cost;
      std::optional<Topology> T;
      if (!Reader.readF64(Cost) || !readTopology(Reader, T) ||
          !Reader.atEnd() || T->numPlaced() != Relabeled.size() ||
          !T->hasMinimalHeights(Relabeled)) {
        abandon();
        break;
      }
      if (Best.offer(*T)) {
        ++Stats.UbUpdates;
        ByteWriter Writer;
        Writer.writeF64(Best.upperBound());
        Self.broadcast(MpTagUbUpdate, Writer.bytes());
      }
      break;
    }
    case MpTagDonation: {
      std::optional<Topology> T = decodeTopology(Msg.Payload);
      if (!T) {
        abandon();
        break;
      }
      if (Terminating)
        break;
      if (!PendingRequesters.empty()) {
        int Dest = PendingRequesters.front();
        PendingRequesters.pop_front();
        ++Expected[static_cast<std::size_t>(Dest)];
        Self.send(Dest, MpTagWork, encodeTopology(*T));
      } else {
        GlobalPool.push_back(std::move(*T));
      }
      break;
    }
    case MpTagStealGrant: {
      // A victim moved one of its nodes to a thief. Credit the thief so
      // its next WorkRequest (sent only after it drains the stolen
      // node) is not mistaken for a stale one.
      ByteReader Reader(Msg.Payload);
      std::uint32_t Thief = 0;
      if (!Reader.readU32(Thief) || !Reader.atEnd() || Thief < 1 ||
          Thief > static_cast<std::uint32_t>(NumWorkers)) {
        abandon();
        break;
      }
      ++Expected[Thief];
      break;
    }
    case MpTagWorkRequest: {
      ByteReader Reader(Msg.Payload);
      std::uint64_t Received = 0;
      if (!Reader.readU64(Received) || !Reader.atEnd()) {
        abandon();
        break;
      }
      if (Terminating)
        break;
      if (Received < Expected[static_cast<std::size_t>(Msg.Source)])
        break; // stale: granted work is still in flight to this worker
      if (!GlobalPool.empty()) {
        ++Expected[static_cast<std::size_t>(Msg.Source)];
        Self.send(Msg.Source, MpTagWork, encodeTopology(GlobalPool.front()));
        GlobalPool.pop_front();
        break;
      }
      PendingRequesters.push_back(Msg.Source);
      if (static_cast<int>(PendingRequesters.size()) == NumWorkers) {
        // Every computing node is idle and the pool is dry: FIFO
        // channels guarantee no donation is still in flight.
        if (!Terminating) {
          Terminating = true;
          Self.broadcast(MpTagTerminate);
        }
      } else if (!Terminating) {
        Self.broadcast(MpTagNeedWork);
      }
      break;
    }
    case MpTagStats:
      absorbStats(Msg);
      break;
    default:
      abandon(); // a tag no slave sends
      break;
    }
  }

  Best.finish(Result);
  return Result;
}

MpMutResult mutk::solveMutMessagePassing(const DistanceMatrix &M,
                                         int NumWorkers,
                                         const BnbOptions &Options,
                                         const MpProtocolOptions &Proto) {
  assert(NumWorkers >= 1 && "need at least one worker rank");

  Communicator World(NumWorkers + 1);
  Communicator::Endpoint Master = World.endpoint(0);

  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<std::size_t>(NumWorkers));
  for (int W = 1; W <= NumWorkers; ++W)
    Threads.emplace_back([&World, W, &Options, &Proto] {
      Communicator::Endpoint Self = World.endpoint(W);
      runMpSlave(Self, Options, Proto);
    });

  MpMutResult Result = runMpMaster(Master, M, Options, Proto);

  for (std::thread &T : Threads)
    T.join();

  Result.MessagesSent = World.messagesSent();
  Result.BytesSent = World.bytesSent();
  Result.Traffic = World.trafficByTag();
  return Result;
}

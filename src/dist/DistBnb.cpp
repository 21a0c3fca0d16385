//===- dist/DistBnb.cpp - Multi-node B&B over socket endpoints -------------===//

#include "dist/DistBnb.h"

#include "dist/MpSocket.h"
#include "dist/Wire.h"
#include "mp/Serialize.h"

#include <unistd.h>

using namespace mutk;
using namespace mutk::dist;

std::vector<std::uint8_t>
mutk::dist::encodeMpSessionSpec(const MpSessionSpec &Spec) {
  ByteWriter Writer;
  Writer.writeI32(Spec.Rank);
  Writer.writeI32(Spec.WorldSize);
  Writer.writeU8(static_cast<std::uint8_t>(Spec.ThreeThree));
  Writer.writeF64(Spec.Epsilon);
  Writer.writeU8(Spec.Proto.WorkStealing ? 1 : 0);
  Writer.writeI32(Spec.Proto.StealDepthBound);
  Writer.writeU8(Spec.Proto.PeerUbBroadcast ? 1 : 0);
  return Writer.take();
}

std::optional<MpSessionSpec>
mutk::dist::decodeMpSessionSpec(const std::vector<std::uint8_t> &Body) {
  ByteReader Reader(Body);
  MpSessionSpec Spec;
  std::uint8_t ThreeThree = 0, Stealing = 0, Broadcast = 0;
  if (!Reader.readI32(Spec.Rank) || !Reader.readI32(Spec.WorldSize) ||
      !Reader.readU8(ThreeThree) || !Reader.readF64(Spec.Epsilon) ||
      !Reader.readU8(Stealing) || !Reader.readI32(Spec.Proto.StealDepthBound) ||
      !Reader.readU8(Broadcast) || !Reader.atEnd())
    return std::nullopt;
  if (ThreeThree > static_cast<std::uint8_t>(ThreeThreeMode::AllInsertions))
    return std::nullopt;
  if (Spec.WorldSize < 2 || Spec.Rank < 1 || Spec.Rank >= Spec.WorldSize)
    return std::nullopt;
  Spec.ThreeThree = static_cast<ThreeThreeMode>(ThreeThree);
  Spec.Proto.WorkStealing = Stealing != 0;
  Spec.Proto.PeerUbBroadcast = Broadcast != 0;
  return Spec;
}

SlaveSessionOutcome mutk::dist::serveMpSlaveSession(int Fd,
                                                    const MpSessionSpec &Spec) {
  SlaveSocketEndpoint Endpoint(Fd, Spec.Rank, Spec.WorldSize);
  BnbOptions Options;
  Options.ThreeThree = Spec.ThreeThree;
  Options.Epsilon = Spec.Epsilon;
  // The hosting peer publishes one dist-level batch itself; per-solve
  // bnb batches from transient slave engines would double-count.
  Options.PublishMetrics = false;
  SlaveSessionOutcome Outcome;
  Outcome.Stats = runMpSlave(Endpoint, Options, Spec.Proto);
  Outcome.Failed = Endpoint.failed();
  Outcome.BytesSent = Endpoint.bytesSent();
  Outcome.BytesReceived = Endpoint.bytesReceived();
  return Outcome;
}

std::optional<MpMutResult> mutk::dist::solveMutOverPeers(
    const DistanceMatrix &M, const std::vector<PeerSpec> &Slaves,
    const BnbOptions &Options, const MpProtocolOptions &Proto,
    double ConnectTimeoutSeconds, std::string *Error,
    std::vector<int> *FailedRanks) {
  auto fail = [&](const std::string &Message) -> std::optional<MpMutResult> {
    if (Error)
      *Error = Message;
    return std::nullopt;
  };
  if (Slaves.empty())
    return fail("no slave peers given");

  // Connect and open every session before any work flows: a solve that
  // cannot assemble its full world is refused up front, not degraded.
  std::vector<int> Fds;
  Fds.reserve(Slaves.size());
  auto closeAll = [&Fds] {
    for (int Fd : Fds)
      ::close(Fd);
  };
  const int WorldSize = static_cast<int>(Slaves.size()) + 1;
  for (std::size_t I = 0; I < Slaves.size(); ++I) {
    std::string ConnectError;
    int Fd = connectTcpSocket(Slaves[I].Host, Slaves[I].Port,
                              ConnectTimeoutSeconds, &ConnectError);
    if (Fd < 0) {
      closeAll();
      return fail("peer " + std::to_string(Slaves[I].Id) + ": " +
                  ConnectError);
    }
    MpSessionSpec Spec;
    Spec.Rank = static_cast<int>(I) + 1;
    Spec.WorldSize = WorldSize;
    Spec.ThreeThree = Options.ThreeThree;
    Spec.Epsilon = Options.Epsilon;
    Spec.Proto = Proto;
    DistFrame Open;
    Open.Verb = DistVerb::MpOpen;
    Open.Body = encodeMpSessionSpec(Spec);
    if (!writeFrame(Fd, encodeDistFrame(Open))) {
      ::close(Fd);
      closeAll();
      return fail("peer " + std::to_string(Slaves[I].Id) +
                  ": MpOpen write failed");
    }
    Fds.push_back(Fd);
  }

  MasterSocketEndpoint Endpoint(std::move(Fds)); // owns the fds now
  MpMutResult Result = runMpMaster(Endpoint, M, Options, Proto);
  Result.MessagesSent = Endpoint.messagesSent();
  Result.BytesSent = Endpoint.bytesSent();
  Result.Traffic = Endpoint.trafficByTag();
  if (FailedRanks)
    *FailedRanks = Endpoint.failedRanks();
  return Result;
}

//===- dist/Cluster.cpp - mutkd cluster node -------------------------------===//

#include "dist/Cluster.h"

#include "dist/DistBnb.h"
#include "mp/Serialize.h"
#include "obs/Instruments.h"
#include "obs/Log.h"

#include <algorithm>
#include <cstdio>

#include <unistd.h>

using namespace mutk;
using namespace mutk::dist;

namespace {
/// Job-stealing threads per node (when `ClusterOptions::StealJobs`).
constexpr int StealThreads = 1;
} // namespace

ClusterNode::ClusterNode(TreeService &Service, const ClusterOptions &Options)
    : Service(Service), Options(Options), Obs(obs::distInstruments()),
      Registry(Options.Peers, Options.SelfId, Options.DeadAfterSeconds) {
  Links.reserve(Options.Peers.size());
  for (std::size_t I = 0; I < Options.Peers.size(); ++I)
    Links.push_back(std::make_unique<PeerLink>());
}

ClusterNode::~ClusterNode() { stop(); }

bool ClusterNode::start(std::string *Error) {
  int Port = Options.ListenPort != 0
                 ? Options.ListenPort
                 : Options.Peers[static_cast<std::size_t>(Options.SelfId)].Port;
  if (!Listener.listenTcp(Options.ListenHost, Port, Error))
    return false;
  Running.store(true, std::memory_order_release);
  rebuildRing();
  Service.setDistCache(this);
  Service.setClusterStats([this] { return statsJson(); });
  Listener.start([this](int Fd) { serveConnection(Fd); });
  Pacer = std::thread([this] { pacerLoop(); });
  if (Options.StealJobs && Options.Peers.size() > 1)
    for (int I = 0; I < StealThreads; ++I)
      Stealers.emplace_back([this] { stealLoop(); });
  obs::log(obs::LogLevel::Info, "dist", "cluster node started")
      .kv("self", Options.SelfId)
      .kv("peers", Options.Peers.size())
      .kv("port", port());
  return true;
}

void ClusterNode::stop() {
  MutexLock StopLock(StopMu);
  if (Stopped.exchange(true, std::memory_order_acq_rel))
    return;
  Service.setDistCache(nullptr);
  Service.setClusterStats(nullptr);
  Running.store(false, std::memory_order_release);
  {
    MutexLock Lock(PacerMu);
    StopFlag = true;
  }
  PacerCv.notify_all();
  // Ends every inbound session: their reads return once their sockets
  // are shut down.
  Listener.stop();
  if (Pacer.joinable())
    Pacer.join();
  for (std::thread &T : Stealers)
    if (T.joinable())
      T.join();
  Stealers.clear();
  for (std::size_t I = 0; I < Links.size(); ++I)
    closeLink(static_cast<int>(I));
  // Nobody can answer lent jobs anymore: give them back to the local
  // queue so the service (still running) resolves their promises.
  std::unordered_map<std::uint64_t, int> Outstanding;
  {
    MutexLock Lock(LentMu);
    Outstanding.swap(LentToPeer);
  }
  for (const auto &[Token, Peer] : Outstanding) {
    (void)Peer;
    if (Service.reenqueueLentJob(Token))
      Obs.JobsReenqueued.inc();
  }
}

int ClusterNode::ownerOf(std::uint64_t Key) const {
  MutexLock Lock(RingMu);
  return Ring.ownerOf(Key);
}

void ClusterNode::rebuildRing() {
  std::vector<int> Alive = Registry.aliveIds();
  MutexLock Lock(RingMu);
  Ring = ShardRing(Alive, Options.VirtualNodes);
  std::int64_t NewAlive = static_cast<std::int64_t>(Alive.size());
  Obs.PeersAlive.add(NewAlive - AliveGaugeValue);
  AliveGaugeValue = NewAlive;
}

void ClusterNode::noteAlive(int Peer) {
  if (Registry.markAlive(Peer)) {
    Obs.PeerRevivals.inc();
    obs::log(obs::LogLevel::Info, "dist", "peer revived").kv("peer", Peer);
    rebuildRing();
  }
}

void ClusterNode::onPeerDead(int Peer) {
  Obs.PeerDeaths.inc();
  obs::log(obs::LogLevel::Warn, "dist", "peer declared dead")
      .kv("peer", Peer);
  closeLink(Peer);
  // Reclaim every job lent to the dead thief: its requester's promise
  // and journal entry live here, so re-enqueueing locally loses nothing.
  std::vector<std::uint64_t> Tokens;
  {
    MutexLock Lock(LentMu);
    for (auto It = LentToPeer.begin(); It != LentToPeer.end();) {
      if (It->second == Peer) {
        Tokens.push_back(It->first);
        It = LentToPeer.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (std::uint64_t Token : Tokens)
    if (Service.reenqueueLentJob(Token)) {
      Obs.JobsReenqueued.inc();
      obs::log(obs::LogLevel::Info, "dist", "re-enqueued job lent to dead peer")
          .kv("peer", Peer)
          .kv("token", Token);
    }
}

void ClusterNode::closeLink(int Peer) {
  PeerLink &Link = *Links[static_cast<std::size_t>(Peer)];
  MutexLock Lock(Link.Mu);
  if (Link.Fd >= 0) {
    ::close(Link.Fd);
    Link.Fd = -1;
  }
}

//===----------------------------------------------------------------------===//
// Outgoing links
//===----------------------------------------------------------------------===//

bool ClusterNode::ensureConnected(PeerLink &Link, int Peer) {
  if (Link.Fd >= 0)
    return true;
  const PeerSpec &Spec = Registry.spec(Peer);
  int Fd = connectTcpSocket(Spec.Host, Spec.Port,
                            Options.ConnectTimeoutSeconds);
  if (Fd < 0) {
    Registry.noteFailure(Peer);
    return false;
  }
  setRecvTimeout(Fd, Options.RpcTimeoutSeconds);
  DistFrame Hello;
  Hello.Verb = DistVerb::Hello;
  ByteWriter Writer;
  Writer.writeU32(static_cast<std::uint32_t>(Options.SelfId));
  Hello.Body = Writer.take();
  if (!writeFrame(Fd, encodeDistFrame(Hello))) {
    ::close(Fd);
    Registry.noteFailure(Peer);
    return false;
  }
  Link.Fd = Fd;
  return true;
}

bool ClusterNode::sendOneWay(int Peer, const DistFrame &Frame) {
  PeerLink &Link = *Links[static_cast<std::size_t>(Peer)];
  MutexLock Lock(Link.Mu);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    if (!ensureConnected(Link, Peer))
      return false;
    if (writeFrame(Link.Fd, encodeDistFrame(Frame)))
      return true;
    ::close(Link.Fd);
    Link.Fd = -1;
  }
  Registry.noteFailure(Peer);
  return false;
}

std::optional<DistFrame> ClusterNode::rpc(int Peer, DistFrame Request) {
  PeerLink &Link = *Links[static_cast<std::size_t>(Peer)];
  MutexLock Lock(Link.Mu);
  if (!ensureConnected(Link, Peer))
    return std::nullopt;
  Request.Seq = Link.NextSeq++;
  auto poison = [&] {
    ::close(Link.Fd);
    Link.Fd = -1;
    Registry.noteFailure(Peer);
    return std::nullopt;
  };
  if (!writeFrame(Link.Fd, encodeDistFrame(Request)))
    return poison();
  std::vector<std::uint8_t> Payload;
  DistFrame Reply;
  if (readFrame(Link.Fd, Payload) != FrameError::None ||
      decodeDistFrame(Payload, Reply) != FrameError::None)
    return poison(); // timeout, truncation, garbage: never reuse the link
  if (Reply.Seq != Request.Seq)
    return poison(); // a mismatched reply must not answer a newer request
  Obs.Frames.inc();
  return Reply;
}

//===----------------------------------------------------------------------===//
// DistCache: the sharded remote tier
//===----------------------------------------------------------------------===//

std::optional<CachedSolution>
ClusterNode::lookup(std::uint64_t Key, const std::vector<std::uint8_t> &Bytes,
                    CacheTier Tier) {
  if (!Running.load(std::memory_order_acquire))
    return std::nullopt;
  int Owner = ownerOf(Key);
  if (Owner < 0 || Owner == Options.SelfId)
    return std::nullopt;
  // Single flight per key: concurrent misses on one key make one RPC;
  // the waiters re-probe the local cache the winner just populated.
  bool Contended = false;
  KeyedMutex::Guard Guard = LookupFlights.lock(Key, &Contended);
  if (Contended)
    if (std::optional<CachedSolution> Local = Service.cacheLookup(Key, Bytes))
      return Local;
  Obs.RemoteLookups.inc();
  DistFrame Request;
  Request.Verb = DistVerb::CacheLookup;
  ByteWriter Writer;
  Writer.writeU64(Key);
  Writer.writeBytes(Bytes);
  Request.Body = Writer.take();
  std::optional<DistFrame> Reply = rpc(Owner, std::move(Request));
  if (!Reply) {
    Obs.RemoteTimeouts.inc();
    return std::nullopt; // owner slow or gone: fall back to local solve
  }
  if (Reply->Verb == DistVerb::CacheMiss)
    return std::nullopt;
  if (Reply->Verb != DistVerb::CacheHit) {
    Obs.FrameErrors.inc();
    return std::nullopt;
  }
  std::optional<persist::DurableCacheRecord> Entry =
      persist::decodeCacheRecord(Reply->Body);
  // The peer's entry is trusted no further than a local one: the key,
  // full canonical identity and namespace must match or it is a miss.
  const persist::CacheNamespace Space = Tier == CacheTier::Block
                                            ? persist::CacheNamespace::Block
                                            : persist::CacheNamespace::Whole;
  if (!Entry || Entry->Key != Key || Entry->CanonicalBytes != Bytes ||
      Entry->Space != Space) {
    Obs.FrameErrors.inc();
    return std::nullopt;
  }
  Obs.RemoteHits.inc();
  return fromDurableRecord(std::move(*Entry));
}

void ClusterNode::insert(std::uint64_t Key, const CachedSolution &Value,
                         CacheTier Tier) {
  (void)Tier; // the entry's own Block flag travels the wire
  if (!Running.load(std::memory_order_acquire))
    return;
  int Owner = ownerOf(Key);
  if (Owner < 0 || Owner == Options.SelfId)
    return; // the service already stored it locally
  Obs.InsertsForwarded.inc();
  DistFrame Frame;
  Frame.Verb = DistVerb::CacheInsert;
  Frame.Body = persist::encodeCacheRecord(toDurableRecord(Key, Value));
  sendOneWay(Owner, Frame);
}

//===----------------------------------------------------------------------===//
// Inbound sessions
//===----------------------------------------------------------------------===//

void ClusterNode::serveConnection(int Fd) {
  std::vector<std::uint8_t> Payload;
  DistFrame First;
  FrameError E = readFrame(Fd, Payload);
  if (E == FrameError::None)
    E = decodeDistFrame(Payload, First);
  if (E == FrameError::None) {
    Obs.Frames.inc();
    if (First.Verb == DistVerb::MpOpen) {
      std::optional<MpSessionSpec> Spec = decodeMpSessionSpec(First.Body);
      if (Spec) {
        Obs.MpSessions.inc();
        SlaveSessionOutcome Outcome = serveMpSlaveSession(Fd, *Spec);
        Obs.WorkStolen.inc(Outcome.Stats.StolenFromPeers);
        Obs.WorkDonated.inc(Outcome.Stats.DonatedToPeers);
        Obs.IncumbentBroadcasts.inc(Outcome.Stats.PeerUbBroadcasts);
      } else {
        Obs.FrameErrors.inc();
      }
    } else if (First.Verb == DistVerb::Hello) {
      ByteReader Reader(First.Body);
      std::uint32_t Peer = 0;
      if (Reader.readU32(Peer) && Reader.atEnd() &&
          Peer < Registry.numPeers() &&
          static_cast<int>(Peer) != Options.SelfId) {
        controlLoop(Fd, static_cast<int>(Peer));
      } else {
        Obs.FrameErrors.inc();
      }
    } else {
      // Any other opener is a protocol violation; drop the connection.
      Obs.FrameErrors.inc();
    }
  } else if (E != FrameError::Eof) {
    Obs.FrameErrors.inc();
  }
}

void ClusterNode::controlLoop(int Fd, int Peer) {
  noteAlive(Peer);
  std::vector<std::uint8_t> Payload;
  for (;;) {
    DistFrame Frame;
    FrameError E = readFrame(Fd, Payload);
    if (E == FrameError::Eof)
      return;
    if (E == FrameError::None)
      E = decodeDistFrame(Payload, Frame);
    if (E != FrameError::None) {
      if (Running.load(std::memory_order_acquire))
        Obs.FrameErrors.inc();
      return;
    }
    Obs.Frames.inc();
    noteAlive(Peer); // any frame is a sign of life
    switch (Frame.Verb) {
    case DistVerb::Heartbeat:
      Obs.HeartbeatsReceived.inc();
      break;
    case DistVerb::CacheLookup: {
      ByteReader Reader(Frame.Body);
      std::uint64_t Key = 0;
      std::vector<std::uint8_t> Identity;
      if (!Reader.readU64(Key) || !Reader.readBytes(Identity) ||
          !Reader.atEnd()) {
        Obs.FrameErrors.inc();
        return;
      }
      DistFrame Reply;
      Reply.Seq = Frame.Seq;
      if (std::optional<CachedSolution> Hit =
              Service.cacheLookup(Key, Identity)) {
        Reply.Verb = DistVerb::CacheHit;
        Reply.Body =
            persist::encodeCacheRecord(toDurableRecord(Key, std::move(*Hit)));
      } else {
        Reply.Verb = DistVerb::CacheMiss;
        ByteWriter Writer;
        Writer.writeU64(Key);
        Reply.Body = Writer.take();
      }
      if (!writeFrame(Fd, encodeDistFrame(Reply)))
        return;
      break;
    }
    case DistVerb::CacheInsert: {
      std::optional<persist::DurableCacheRecord> Entry =
          persist::decodeCacheRecord(Frame.Body);
      if (!Entry) {
        Obs.FrameErrors.inc();
        return;
      }
      const std::uint64_t Key = Entry->Key;
      Service.cacheStore(Key, fromDurableRecord(std::move(*Entry)));
      break;
    }
    case DistVerb::StealJob: {
      DistFrame Reply;
      Reply.Seq = Frame.Seq;
      std::optional<TreeService::LentJob> Lent = Service.lendQueuedJob();
      if (Lent) {
        {
          MutexLock Lock(LentMu);
          LentToPeer[Lent->Token] = Peer;
        }
        Obs.JobsLent.inc();
        Reply.Verb = DistVerb::JobGrant;
        ByteWriter Writer;
        Writer.writeU64(Lent->Token);
        Writer.writeBytes(Lent->EncodedRequest);
        Reply.Body = Writer.take();
      } else {
        Reply.Verb = DistVerb::JobNone;
      }
      if (!writeFrame(Fd, encodeDistFrame(Reply))) {
        if (Lent) {
          // The grant never reached the thief: take the job back.
          {
            MutexLock Lock(LentMu);
            LentToPeer.erase(Lent->Token);
          }
          if (Service.reenqueueLentJob(Lent->Token))
            Obs.JobsReenqueued.inc();
        }
        return;
      }
      break;
    }
    case DistVerb::JobResult: {
      ByteReader Reader(Frame.Body);
      std::uint64_t Token = 0;
      std::vector<std::uint8_t> Encoded;
      if (!Reader.readU64(Token) || !Reader.readBytes(Encoded) ||
          !Reader.atEnd()) {
        Obs.FrameErrors.inc();
        return;
      }
      {
        MutexLock Lock(LentMu);
        LentToPeer.erase(Token);
      }
      std::optional<Response> Decoded = decodeResponse(Encoded);
      BuildResponse Result;
      if (Decoded && Decoded->V == Verb::Build) {
        Result = std::move(Decoded->Build);
      } else {
        Obs.FrameErrors.inc();
        Result.Error = ServiceError::Internal;
        Result.Message = "malformed result from thief peer";
      }
      Service.completeLentJob(Token, std::move(Result));
      break;
    }
    default:
      Obs.FrameErrors.inc();
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Pacer and steal threads
//===----------------------------------------------------------------------===//

void ClusterNode::pacerLoop() {
  MutexLock Lock(PacerMu);
  while (!StopFlag) {
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(Options.HeartbeatSeconds);
    while (!StopFlag &&
           PacerCv.waitUntil(Lock, Deadline) != std::cv_status::timeout) {
    }
    if (StopFlag)
      return;
    Lock.unlock();
    DistFrame Beat;
    Beat.Verb = DistVerb::Heartbeat;
    ByteWriter Writer;
    Writer.writeU32(static_cast<std::uint32_t>(Options.SelfId));
    Beat.Body = Writer.take();
    for (std::size_t I = 0; I < Options.Peers.size(); ++I) {
      if (static_cast<int>(I) == Options.SelfId)
        continue;
      // Dead peers are beaconed too: a restarted peer learns we are
      // alive from our beat while its own beats revive it here.
      if (sendOneWay(static_cast<int>(I), Beat))
        Obs.HeartbeatsSent.inc();
    }
    std::vector<int> Dead = Registry.sweep();
    for (int Peer : Dead)
      onPeerDead(Peer);
    if (!Dead.empty())
      rebuildRing();
    Lock.lock();
  }
}

int ClusterNode::nextVictim() {
  std::vector<int> Alive = Registry.aliveIds();
  Alive.erase(std::remove(Alive.begin(), Alive.end(), Options.SelfId),
              Alive.end());
  if (Alive.empty())
    return -1;
  return Alive[VictimCursor.fetch_add(1, std::memory_order_relaxed) %
               Alive.size()];
}

void ClusterNode::stealLoop() {
  MutexLock Lock(PacerMu);
  while (!StopFlag) {
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(Options.StealPollSeconds);
    while (!StopFlag &&
           PacerCv.waitUntil(Lock, Deadline) != std::cv_status::timeout) {
    }
    if (StopFlag)
      return;
    Lock.unlock();
    stealOnce();
    Lock.lock();
  }
}

void ClusterNode::stealOnce() {
  // Only a genuinely idle node steals: nothing queued and a worker free.
  if (Service.stopping() || Service.stats().QueueDepth > 0 ||
      Service.inFlight() >=
          static_cast<std::uint64_t>(
              std::max(1, Service.options().NumWorkers)))
    return;
  int Victim = nextVictim();
  if (Victim < 0)
    return;
  DistFrame Request;
  Request.Verb = DistVerb::StealJob;
  std::optional<DistFrame> Reply = rpc(Victim, std::move(Request));
  if (!Reply || Reply->Verb == DistVerb::JobNone)
    return;
  if (Reply->Verb != DistVerb::JobGrant) {
    Obs.FrameErrors.inc();
    return;
  }
  ByteReader Reader(Reply->Body);
  std::uint64_t Token = 0;
  std::vector<std::uint8_t> Encoded;
  if (!Reader.readU64(Token) || !Reader.readBytes(Encoded) ||
      !Reader.atEnd()) {
    Obs.FrameErrors.inc();
    return;
  }
  Obs.JobsStolen.inc();
  Response Wire;
  Wire.V = Verb::Build;
  std::optional<mutk::Request> Job = decodeRequest(Encoded);
  if (Job && Job->V == Verb::Build) {
    // Solve through the local service: same cache tiers, same journal,
    // same worker pool as native jobs.
    Wire.Build = Service.submit(std::move(Job->Build));
    Wire.Error = Wire.Build.Error;
    Wire.Message = Wire.Build.Message;
  } else {
    Wire.Error = ServiceError::BadFrame;
    Wire.Message = "stolen job failed to decode";
    Wire.Build.Error = Wire.Error;
    Wire.Build.Message = Wire.Message;
  }
  DistFrame Result;
  Result.Verb = DistVerb::JobResult;
  ByteWriter Writer;
  Writer.writeU64(Token);
  Writer.writeBytes(encodeResponse(Wire));
  Result.Body = Writer.take();
  // Best effort: if the victim is unreachable it will re-enqueue the
  // job when its death sweep fires, and solve it locally.
  sendOneWay(Victim, Result);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string ClusterNode::statsJson() const {
  auto f64 = [](double V) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return std::string(Buf);
  };
  std::vector<PeerRegistry::PeerInfo> Peers = Registry.snapshot();
  ShardRing RingCopy;
  {
    MutexLock Lock(RingMu);
    RingCopy = Ring;
  }
  std::string Out = "{\"self\":" + std::to_string(Options.SelfId);
  Out += ",\"port\":" + std::to_string(port());
  Out += ",\"peers\":[";
  for (std::size_t I = 0; I < Peers.size(); ++I) {
    const PeerRegistry::PeerInfo &Info = Peers[I];
    if (I)
      Out += ",";
    Out += "{\"id\":" + std::to_string(Info.Spec.Id);
    Out += ",\"host\":\"" + Info.Spec.Host + "\"";
    Out += ",\"port\":" + std::to_string(Info.Spec.Port);
    Out += ",\"state\":\"" + std::string(peerStateName(Info.State)) + "\"";
    Out += ",\"last_seen_s\":" + f64(Info.SinceLastSeenSeconds);
    Out += ",\"shard_share\":" + f64(RingCopy.ownedShare(Info.Spec.Id));
    Out += "}";
  }
  Out += "]";
  Out += ",\"jobs_lent\":" + std::to_string(Service.lentJobCount());
  Out += "}";
  return Out;
}

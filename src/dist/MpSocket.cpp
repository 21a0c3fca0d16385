//===- dist/MpSocket.cpp - MpEndpoint over framed TCP sockets --------------===//

#include "dist/MpSocket.h"

#include "mp/MpBnb.h"
#include "mp/Serialize.h"

#include <cassert>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mutk;
using namespace mutk::dist;

std::vector<std::uint8_t>
mutk::dist::encodeMpMsgBody(int Src, int Dest, int Tag,
                            const std::vector<std::uint8_t> &Payload) {
  ByteWriter Writer;
  Writer.writeU32(static_cast<std::uint32_t>(Src));
  Writer.writeU32(static_cast<std::uint32_t>(Dest));
  Writer.writeI32(Tag);
  std::vector<std::uint8_t> Out = Writer.take();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

bool mutk::dist::decodeMpMsgBody(const std::vector<std::uint8_t> &Body,
                                 int &Src, int &Dest, int &Tag,
                                 std::vector<std::uint8_t> &Payload) {
  if (Body.size() < 12)
    return false;
  ByteReader Reader(Body);
  std::uint32_t S = 0, D = 0;
  std::int32_t T = 0;
  if (!Reader.readU32(S) || !Reader.readU32(D) || !Reader.readI32(T))
    return false;
  Src = static_cast<int>(S);
  Dest = static_cast<int>(D);
  Tag = T;
  Payload.assign(Body.begin() + 12, Body.end());
  return true;
}

//===----------------------------------------------------------------------===//
// SlaveSocketEndpoint
//===----------------------------------------------------------------------===//

SlaveSocketEndpoint::SlaveSocketEndpoint(int Fd, int Rank, int WorldSize)
    : Fd(Fd), Rank(Rank), WorldSize(WorldSize) {
  assert(Rank >= 1 && Rank < WorldSize && "slave rank out of range");
}

void SlaveSocketEndpoint::send(int Dest, int Tag,
                               std::vector<std::uint8_t> Payload) {
  if (failed())
    return; // session is over; the final Stats write has nowhere to go
  DistFrame Frame;
  Frame.Verb = DistVerb::MpMsg;
  Frame.Body = encodeMpMsgBody(Rank, Dest, Tag, Payload);
  MutexLock Lock(WriteMu);
  if (!writeFrame(Fd, encodeDistFrame(Frame))) {
    Broken.store(true, std::memory_order_release);
    return;
  }
  BytesOut.fetch_add(Payload.size(), std::memory_order_relaxed);
}

Message SlaveSocketEndpoint::syntheticTerminate() {
  Broken.store(true, std::memory_order_release);
  Message Msg;
  Msg.Source = 0;
  Msg.Tag = MpTagTerminate;
  return Msg;
}

std::optional<Message> SlaveSocketEndpoint::tryRecv() {
  if (failed())
    return std::nullopt;
  pollfd P{Fd, POLLIN, 0};
  int Ready = ::poll(&P, 1, 0);
  if (Ready == 0)
    return std::nullopt;
  // Readable (or errored): pull one whole frame. The sender writes
  // frames back to back, so the remainder arrives promptly.
  return recv();
}

Message SlaveSocketEndpoint::recv() {
  if (failed())
    return syntheticTerminate();
  std::vector<std::uint8_t> Payload;
  DistFrame Frame;
  if (readFrame(Fd, Payload) != FrameError::None ||
      decodeDistFrame(Payload, Frame) != FrameError::None ||
      Frame.Verb != DistVerb::MpMsg)
    return syntheticTerminate();
  int Src = -1, Dest = -1, Tag = 0;
  Message Msg;
  if (!decodeMpMsgBody(Frame.Body, Src, Dest, Tag, Msg.Payload) ||
      Dest != Rank)
    return syntheticTerminate();
  Msg.Source = Src;
  Msg.Tag = Tag;
  BytesIn.fetch_add(Msg.Payload.size(), std::memory_order_relaxed);
  return Msg;
}

//===----------------------------------------------------------------------===//
// MasterSocketEndpoint
//===----------------------------------------------------------------------===//

MasterSocketEndpoint::MasterSocketEndpoint(std::vector<int> SlaveFds) {
  assert(!SlaveFds.empty() && "need at least one slave connection");
  Links.reserve(SlaveFds.size());
  for (int Fd : SlaveFds) {
    auto L = std::make_unique<Link>();
    L->Fd = Fd;
    Links.push_back(std::move(L));
  }
  for (std::size_t I = 0; I < Links.size(); ++I)
    Links[I]->Reader = std::thread([this, I] { readerLoop(static_cast<int>(I)); });
}

MasterSocketEndpoint::~MasterSocketEndpoint() {
  Stopping.store(true, std::memory_order_release);
  for (auto &L : Links)
    ::shutdown(L->Fd, SHUT_RDWR);
  for (auto &L : Links)
    if (L->Reader.joinable())
      L->Reader.join();
  for (auto &L : Links)
    ::close(L->Fd);
}

void MasterSocketEndpoint::noteTraffic(int Tag, std::uint64_t PayloadBytes) {
  Messages.fetch_add(1, std::memory_order_relaxed);
  Bytes.fetch_add(PayloadBytes, std::memory_order_relaxed);
  MutexLock Lock(TrafficMu);
  TagTraffic &T = Traffic[Tag];
  T.Tag = Tag;
  ++T.Messages;
  T.Bytes += PayloadBytes;
}

void MasterSocketEndpoint::writeTo(int Dest,
                                   const std::vector<std::uint8_t> &Payload) {
  assert(Dest >= 1 && Dest <= static_cast<int>(Links.size()) &&
         "relay destination out of range");
  Link &L = *Links[static_cast<std::size_t>(Dest - 1)];
  MutexLock Lock(L.WriteMu);
  if (!writeFrame(L.Fd, Payload))
    L.Failed.store(true, std::memory_order_release);
}

void MasterSocketEndpoint::send(int Dest, int Tag,
                                std::vector<std::uint8_t> Payload) {
  DistFrame Frame;
  Frame.Verb = DistVerb::MpMsg;
  std::uint64_t PayloadBytes = Payload.size();
  Frame.Body = encodeMpMsgBody(0, Dest, Tag, Payload);
  writeTo(Dest, encodeDistFrame(Frame));
  noteTraffic(Tag, PayloadBytes);
}

void MasterSocketEndpoint::readerLoop(int LinkIndex) {
  Link &L = *Links[static_cast<std::size_t>(LinkIndex)];
  std::vector<std::uint8_t> Raw;
  for (;;) {
    if (readFrame(L.Fd, Raw) != FrameError::None) {
      // A slave that completed its session (final Stats delivered) may
      // close before the master tears the endpoint down; that EOF is a
      // clean end, not a failed rank.
      if (!Stopping.load(std::memory_order_acquire) &&
          !L.SessionDone.load(std::memory_order_acquire))
        L.Failed.store(true, std::memory_order_release);
      return;
    }
    DistFrame Frame;
    int Src = -1, Dest = -1, Tag = 0;
    std::vector<std::uint8_t> Payload;
    if (decodeDistFrame(Raw, Frame) != FrameError::None ||
        Frame.Verb != DistVerb::MpMsg ||
        !decodeMpMsgBody(Frame.Body, Src, Dest, Tag, Payload) ||
        Src != LinkIndex + 1 || Dest < 0 ||
        Dest > static_cast<int>(Links.size())) {
      L.Failed.store(true, std::memory_order_release);
      return;
    }
    noteTraffic(Tag, Payload.size());
    if (Dest == 0 && Tag == MpTagStats)
      L.SessionDone.store(true, std::memory_order_release);
    if (Dest == 0) {
      Message Msg;
      Msg.Source = Src;
      Msg.Tag = Tag;
      Msg.Payload = std::move(Payload);
      {
        MutexLock Lock(InboxMu);
        Inbox.push_back(std::move(Msg));
      }
      InboxReady.notify_one();
      continue;
    }
    // Worker-to-worker frame: relay its bytes in arrival order, which
    // preserves the per-(src, dest) FIFO across the two TCP hops.
    writeTo(Dest, Raw);
  }
}

std::optional<Message> MasterSocketEndpoint::tryRecv() {
  MutexLock Lock(InboxMu);
  if (Inbox.empty())
    return std::nullopt;
  Message Msg = std::move(Inbox.front());
  Inbox.pop_front();
  return Msg;
}

Message MasterSocketEndpoint::recv() {
  MutexLock Lock(InboxMu);
  while (Inbox.empty())
    InboxReady.wait(Lock);
  Message Msg = std::move(Inbox.front());
  Inbox.pop_front();
  return Msg;
}

std::vector<int> MasterSocketEndpoint::failedRanks() const {
  std::vector<int> Out;
  for (std::size_t I = 0; I < Links.size(); ++I)
    if (Links[I]->Failed.load(std::memory_order_acquire))
      Out.push_back(static_cast<int>(I) + 1);
  return Out;
}

std::vector<TagTraffic> MasterSocketEndpoint::trafficByTag() const {
  MutexLock Lock(TrafficMu);
  std::vector<TagTraffic> Out;
  Out.reserve(Traffic.size());
  for (const auto &[Tag, T] : Traffic)
    Out.push_back(T);
  return Out;
}

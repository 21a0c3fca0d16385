//===- dist/MpSocket.h - MpEndpoint over framed TCP sockets -----*- C++ -*-===//
///
/// \file
/// The socket communicator: `MpEndpoint` implementations that carry the
/// `mp/MpBnb.h` master/slave protocol across machines in `MpMsg` frames
/// (`dist/Wire.h` over `service/Transport.h`), so the B&B loops run
/// unchanged on a cluster.
///
/// Topology is a star rooted at the master: the master holds one
/// connection per slave; slaves hold exactly one connection. Frames
/// carry explicit (src, dest) ranks, and the master's reader threads
/// *relay* worker-to-worker frames (steal requests, peer incumbent
/// broadcasts) between connections in arrival order — which preserves
/// the per-(source, destination) FIFO the protocol's termination proof
/// needs, because each relayed channel flows through exactly one
/// ordered TCP stream on each hop.
///
/// Failure semantics are deliberately simple at this layer: a broken
/// connection surfaces as a synthetic `Terminate` at a slave and as a
/// recorded failed rank at the master. Fault *recovery* lives a level
/// up, in the cluster's job stealing + journal re-enqueue
/// (`dist/Cluster.h`), not inside one B&B session.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_DIST_MPSOCKET_H
#define MUTK_DIST_MPSOCKET_H

#include "dist/Wire.h"
#include "mp/Communicator.h"
#include "mp/Endpoint.h"
#include "support/Mutex.h"

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace mutk::dist {

/// Slave-side endpoint over one connected socket to the master. All
/// traffic — including worker-to-worker steal frames — flows through
/// that socket; the master relays by rank.
class SlaveSocketEndpoint : public MpEndpoint {
public:
  /// Borrows \p Fd (the caller owns and closes it) as rank \p Rank of a
  /// world of \p WorldSize ranks.
  SlaveSocketEndpoint(int Fd, int Rank, int WorldSize);

  int rank() const override { return Rank; }
  int size() const override { return WorldSize; }

  void send(int Dest, int Tag, std::vector<std::uint8_t> Payload) override;
  std::optional<Message> tryRecv() override;
  Message recv() override;

  /// True once the connection failed; `recv` has returned (or will
  /// return) a synthetic `Terminate` and `send` drops silently.
  bool failed() const { return Broken.load(std::memory_order_acquire); }

  std::uint64_t bytesSent() const { return BytesOut.load(); }
  std::uint64_t bytesReceived() const { return BytesIn.load(); }

private:
  Message syntheticTerminate();

  int Fd;
  int Rank;
  int WorldSize;
  /// Serializes frame writes; guards no fields (the fd is immutable).
  Mutex WriteMu{"mpsock.write"};
  std::atomic<bool> Broken{false};
  std::atomic<std::uint64_t> BytesOut{0};
  std::atomic<std::uint64_t> BytesIn{0};
};

/// Master-side endpoint over one connection per slave. Owns the fds and
/// a reader thread per connection; worker-to-worker frames are relayed,
/// master-addressed frames land in a shared inbox.
class MasterSocketEndpoint : public MpEndpoint {
public:
  /// Takes ownership of \p SlaveFds (closed on destruction); fd `i`
  /// talks to rank `i + 1`.
  explicit MasterSocketEndpoint(std::vector<int> SlaveFds);
  ~MasterSocketEndpoint() override;

  MasterSocketEndpoint(const MasterSocketEndpoint &) = delete;
  MasterSocketEndpoint &operator=(const MasterSocketEndpoint &) = delete;

  int rank() const override { return 0; }
  int size() const override { return static_cast<int>(Links.size()) + 1; }

  void send(int Dest, int Tag, std::vector<std::uint8_t> Payload) override;
  std::optional<Message> tryRecv() override;
  Message recv() override;

  /// Ranks whose connection failed mid-session (empty on a clean run).
  std::vector<int> failedRanks() const;

  /// Transport totals across every connection, relays included.
  std::uint64_t messagesSent() const { return Messages.load(); }
  std::uint64_t bytesSent() const { return Bytes.load(); }

  /// Per-tag totals of every frame this master wrote or received.
  std::vector<TagTraffic> trafficByTag() const;

private:
  struct Link {
    int Fd = -1;
    /// Serializes frame writes on this link; guards no fields.
    Mutex WriteMu{"mpsock.write"};
    std::thread Reader;
    std::atomic<bool> Failed{false};
    // Set once the slave's final Stats message landed in the inbox; an
    // EOF after that point is the slave closing a finished session, not
    // a mid-search failure.
    std::atomic<bool> SessionDone{false};
  };

  void readerLoop(int LinkIndex);
  /// Writes one encoded `DistFrame` payload to rank \p Dest.
  void writeTo(int Dest, const std::vector<std::uint8_t> &Payload);
  void noteTraffic(int Tag, std::uint64_t WireBytes);

  std::vector<std::unique_ptr<Link>> Links;
  Mutex InboxMu{"mpsock.inbox"};
  CondVar InboxReady;
  std::deque<Message> Inbox MUTK_GUARDED_BY(InboxMu);
  std::atomic<bool> Stopping{false};
  std::atomic<std::uint64_t> Messages{0};
  std::atomic<std::uint64_t> Bytes{0};
  mutable Mutex TrafficMu{"mpsock.traffic"};
  std::map<int, TagTraffic> Traffic MUTK_GUARDED_BY(TrafficMu);
};

/// \name MpMsg body codec shared by both endpoints.
/// @{
std::vector<std::uint8_t> encodeMpMsgBody(int Src, int Dest, int Tag,
                                          const std::vector<std::uint8_t> &Payload);
bool decodeMpMsgBody(const std::vector<std::uint8_t> &Body, int &Src,
                     int &Dest, int &Tag, std::vector<std::uint8_t> &Payload);
/// @}

} // namespace mutk::dist

#endif // MUTK_DIST_MPSOCKET_H

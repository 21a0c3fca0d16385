//===- dist/Cluster.h - mutkd cluster node ----------------------*- C++ -*-===//
///
/// \file
/// One `mutkd` peer of a work-stealing cluster. Every node runs the same
/// three roles over the framed wire (`dist/Wire.h`):
///
///  * **Membership** — a pacer thread heartbeats every peer on the
///    static seed list and sweeps the liveness registry; the
///    consistent-hash ring over the alive set is rebuilt on every death
///    or revival.
///  * **Sharded result cache** — the node implements the service's
///    `DistCache` hook: a local miss — whole-matrix or per-block —
///    probes the key's owning peer (single-flighted per key, bounded by
///    a recv timeout, falling back to a local solve on any failure),
///    and exact solutions are forwarded one-way to their owner. Remote
///    entries carry the full canonical identity bytes plus their
///    namespace flag and are collision-checked on both ends.
///  * **Job stealing** — steal threads watch the local service; when
///    the queue is dry and workers idle they ask peers for queued jobs
///    (`StealJob` -> `JobGrant`), solve them through the local service,
///    and post `JobResult` back. The victim keeps the requester's
///    promise and journal entry, so a SIGKILLed thief loses nothing:
///    the death sweep re-enqueues every job lent to it, and a crash of
///    the victim itself re-runs the job from its `JobJournal` on
///    restart.
///
/// Incoming connections self-select their protocol with the first
/// frame: `Hello` opens a peer control session (heartbeats, cache and
/// steal verbs), `MpOpen` parks the connection in a distributed B&B
/// slave session (`dist/DistBnb.h`). Topology, verbs, failure semantics
/// and tuning are documented in docs/distributed.md.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_DIST_CLUSTER_H
#define MUTK_DIST_CLUSTER_H

#include "dist/Peers.h"
#include "dist/Wire.h"
#include "service/Service.h"
#include "support/Mutex.h"
#include "support/SingleFlight.h"

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mutk::obs {
struct DistInstruments;
} // namespace mutk::obs

namespace mutk::dist {

/// Deployment knobs of one cluster node.
struct ClusterOptions {
  /// This node's index in `Peers`.
  int SelfId = 0;
  /// The shared seed list; identical (same order) on every node.
  std::vector<PeerSpec> Peers;
  /// Cluster listen port; 0 uses `Peers[SelfId].Port`. The client
  /// protocol port (`service/Server.h`) is separate.
  int ListenPort = 0;
  /// Address the cluster listener binds.
  std::string ListenHost = "0.0.0.0";

  double HeartbeatSeconds = 0.5;
  /// A peer with no sign of life for this long is declared dead.
  double DeadAfterSeconds = 3.0;
  /// Ring points per peer; more = smoother shard split.
  int VirtualNodes = 64;
  /// Budget for one remote cache/steal RPC; on expiry the link is
  /// closed (a late reply must never be matched to a newer request).
  double RpcTimeoutSeconds = 0.25;
  double ConnectTimeoutSeconds = 0.25;

  /// Enable the job-stealing threads.
  bool StealJobs = true;
  /// Idle-check cadence of each steal thread.
  double StealPollSeconds = 0.05;
};

/// One peer of the mutkd cluster (see the file comment for the roles).
/// Owns the cluster listener, the peer links and the pacer/steal
/// threads; borrows the service. `start()` attaches the node to the
/// service's dist-cache and stats hooks, `stop()` detaches them.
class ClusterNode : public DistCache {
public:
  ClusterNode(TreeService &Service, const ClusterOptions &Options);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode &) = delete;
  ClusterNode &operator=(const ClusterNode &) = delete;

  /// Binds the cluster port and spawns the acceptor, pacer and steal
  /// threads. \returns false (with \p Error filled) on bind failure.
  bool start(std::string *Error = nullptr);

  /// Detaches from the service, re-enqueues jobs still lent to peers,
  /// closes every connection and joins all threads. Idempotent; the
  /// destructor calls it.
  void stop();

  /// Bound cluster port (-1 before a successful `start`).
  int port() const { return Listener.port(); }

  /// DistCache: remote shard probe / forwarded store (service workers).
  /// The tier never changes routing (key spaces are salted apart); the
  /// entry's `Block` flag travels the wire, so a subtree solved on one
  /// peer recovers as a block entry on its owner.
  std::optional<CachedSolution> lookup(std::uint64_t Key,
                                       const std::vector<std::uint8_t> &Bytes,
                                       CacheTier Tier) override;
  void insert(std::uint64_t Key, const CachedSolution &Value,
              CacheTier Tier) override;

  /// The `cluster` section of `StatsJson` (peer states, shard shares,
  /// lent jobs); schema in docs/distributed.md.
  std::string statsJson() const;

  /// Membership view (tests and tools).
  PeerRegistry &registry() { return Registry; }

  /// Current ring owner of \p Key (-1 on an empty ring).
  int ownerOf(std::uint64_t Key) const;

private:
  /// One lazily-connected outgoing link to a peer. A mutex serializes
  /// users, so at most one RPC is outstanding per link and a reply can
  /// only belong to the request that is waiting for it; `Seq` echo is
  /// verified anyway, and any failure closes the fd (reconnect next use).
  struct PeerLink {
    Mutex Mu{"cluster.link"};
    int Fd MUTK_GUARDED_BY(Mu) = -1;
    std::uint64_t NextSeq MUTK_GUARDED_BY(Mu) = 1;
  };

  void serveConnection(int Fd);
  void controlLoop(int Fd, int Peer);
  void pacerLoop();
  void stealLoop();
  void stealOnce();

  /// Records life from \p Peer, rebuilding the ring on a revival.
  void noteAlive(int Peer);
  void onPeerDead(int Peer);
  void rebuildRing();
  void closeLink(int Peer);

  /// Under `Link.Mu`: connect + `Hello` if needed. False marks failure.
  bool ensureConnected(PeerLink &Link, int Peer) MUTK_REQUIRES(Link.Mu);
  /// One-way frame; retries once through a reconnect.
  bool sendOneWay(int Peer, const DistFrame &Frame);
  /// Request/response with `Seq` correlation and the RPC timeout.
  std::optional<DistFrame> rpc(int Peer, DistFrame Request);

  int nextVictim();

  TreeService &Service;
  ClusterOptions Options;
  obs::DistInstruments &Obs;
  PeerRegistry Registry;

  mutable Mutex RingMu{"cluster.ring"};
  ShardRing Ring MUTK_GUARDED_BY(RingMu);
  std::int64_t AliveGaugeValue MUTK_GUARDED_BY(RingMu) = 0;

  std::vector<std::unique_ptr<PeerLink>> Links;

  std::thread Pacer;
  std::vector<std::thread> Stealers;
  Mutex PacerMu{"cluster.pacer"};
  CondVar PacerCv;
  bool StopFlag MUTK_GUARDED_BY(PacerMu) = false;

  /// Which peer each lent-out job token went to (victim side).
  mutable Mutex LentMu{"cluster.lent"};
  std::unordered_map<std::uint64_t, int> LentToPeer MUTK_GUARDED_BY(LentMu);

  /// Per-key single flight of remote lookups: concurrent misses on one
  /// key make one RPC, the rest re-probe the local cache afterwards.
  KeyedMutex LookupFlights;

  std::atomic<std::uint64_t> VictimCursor{0};
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopped{false};
  /// Serializes whole `stop()` runs; the outermost cluster lock.
  Mutex StopMu{"cluster.stop"};
  /// The cluster port; one session thread per inbound connection. Last:
  /// destroyed first, so no session outlives the state above.
  SocketListener Listener;
};

} // namespace mutk::dist

#endif // MUTK_DIST_CLUSTER_H

//===- service/Service.h - Concurrent tree-construction service -*- C++ -*-===//
///
/// \file
/// The long-lived core of `mutkd`: a bounded MPMC job queue feeding a
/// worker pool that runs the compact-set pipeline, fronted by a sharded
/// LRU result cache keyed by relabeling-invariant matrix fingerprints.
/// Whole-matrix hits replay a stored canonical tree onto the request's
/// labels without touching a solver; misses still reuse per-condensed-
/// block subtrees, so overlapping queries pay only for the blocks they
/// have never seen.
///
/// The class is transport-free ("loopback mode"): tests and benches call
/// `submit`/`submitAsync` directly, while `service/Server.h` feeds it
/// from sockets. Deadlines are enforced at dequeue time and wired into
/// the per-block branch-and-bound node budget
/// (`BnbOptions::MaxBranchedNodes`), so an over-deadline job cannot pin
/// a worker indefinitely; shutdown drains in-flight work and fails
/// queued jobs with `ShuttingDown` instead of dropping them.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_SERVICE_H
#define MUTK_SERVICE_SERVICE_H

#include "compact/CompactSetPipeline.h"
#include "obs/Instruments.h"
#include "persist/CacheStore.h"
#include "persist/JobJournal.h"
#include "qos/Admission.h"
#include "qos/Coalescer.h"
#include "qos/CostModel.h"
#include "qos/Scheduler.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "service/ServiceStats.h"
#include "support/Mutex.h"

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

namespace mutk {

/// Which cache namespace a remote probe or insert is about. The key
/// spaces are already salted apart, so the tier never changes routing or
/// correctness; it exists for per-tier accounting and policy (e.g. the
/// size floor on shipping block subtrees across the ring).
enum class CacheTier : std::uint8_t {
  Whole = 0, ///< Whole-matrix result.
  Block = 1, ///< Per-condensed-block subtree.
};

/// Remote extension point of the result cache: when attached
/// (`TreeService::setDistCache`) a local miss — whole-matrix or block —
/// also probes the cluster's consistent-hash-sharded cache, and exact
/// solutions are forwarded to their owning peer. Implemented by
/// `dist::ClusterNode`; both calls run on service worker threads, so
/// implementations must be bounded (timeouts, not retries) and
/// thread-safe.
class DistCache {
public:
  virtual ~DistCache() = default;

  /// Probe the owning peer for \p Key. A miss, a timeout, a dead owner
  /// and "self owns it" all return nullopt — the caller solves locally.
  virtual std::optional<CachedSolution>
  lookup(std::uint64_t Key, const std::vector<std::uint8_t> &Bytes,
         CacheTier Tier) = 0;

  /// Forward \p Value to the owning peer (one-way, fire-and-forget).
  virtual void insert(std::uint64_t Key, const CachedSolution &Value,
                      CacheTier Tier) = 0;
};

/// Deployment knobs of a TreeService instance.
struct ServiceOptions {
  int NumWorkers = 4;
  std::size_t QueueCapacity = 256;
  /// Total cache entries across shards (0 disables caching).
  std::size_t CacheCapacity = 1024;
  int CacheShards = 8;
  /// Deadline-to-budget conversion: a request with `DeadlineMillis = d`
  /// gets a per-block node budget of `d * NodesPerMilli` (tighter of
  /// this and the request's own `NodeBudget`). Calibrate to the
  /// hardware; the default is conservative for ~1us/node branching.
  std::uint64_t NodesPerMilli = 20'000;
  /// Inline matrices larger than this are rejected with `TooLarge`.
  int MaxSpecies = 2048;
  /// `submitAsync` blocks when the queue is full (backpressure); set to
  /// false to shed load with `QueueFull` instead.
  bool BlockOnFullQueue = true;
  /// Engine used for each condensed block.
  BlockSolver Solver = BlockSolver::Sequential;
  /// Condensed blocks each request solves concurrently
  /// (`PipelineOptions::BlockConcurrency`): 1 = sequential walk, 0 =
  /// auto — divide the machine's threads among the `NumWorkers`
  /// request workers so concurrent requests do not oversubscribe.
  int BlockConcurrency = 1;
  /// B&B workers inside each block solve when `Solver == Threaded`
  /// (`PipelineOptions::ThreadsPerBlock`; 0 = auto).
  int ThreadsPerBlock = 0;

  /// Durable state directory; empty disables persistence. When set the
  /// service recovers the result cache (snapshot + WAL replay) and
  /// re-enqueues journaled-but-unfinished jobs on startup, journals
  /// every exact solution and accepted job while running, checkpoints
  /// long block solves under `<StateDir>/ckpt/`, and compacts the cache
  /// into the snapshot on shutdown. Formats and recovery semantics are
  /// documented in docs/persistence.md.
  std::string StateDir;
  /// Compact the durable cache early once its WAL exceeds this many
  /// bytes (0 = compact only on shutdown); after a failed compaction,
  /// once it has grown by this many more.
  std::uint64_t WalCompactBytes = 8u << 20;
  /// Sync the durable cache's records before any answer or cluster
  /// insert that depends on them (one group-committed fdatasync per
  /// answer at most). Durable by default; switch off to trade
  /// crash-durability of the newest records for latency.
  /// The job journal ignores it: `Submitted` records always sync,
  /// `Completed` marks never do.
  bool SyncWrites = true;

  /// \name Cost-predictive QoS layer (docs/qos.md).
  /// @{

  /// Admission control and tier routing; `Qos.Enabled` is the master
  /// switch. Off by default: with it off (and uniform tickets) the
  /// service behaves exactly as before the QoS layer existed.
  qos::AdmissionOptions Qos;
  /// Ready-queue starvation hatch: entries waiting longer than this are
  /// served oldest-first regardless of priority/tenant rank (0 disables).
  double QosStarvationMillis = 5000.0;
  /// Coalesce identical in-flight requests onto one leader solve (only
  /// consulted when `Qos.Enabled`).
  bool QosCoalesce = true;

  /// @}
};

/// A concurrent tree-construction service (queue + workers + cache).
class TreeService {
public:
  explicit TreeService(const ServiceOptions &Options = {});
  ~TreeService();

  TreeService(const TreeService &) = delete;
  TreeService &operator=(const TreeService &) = delete;

  /// Enqueues a job; the future resolves when a worker answers it (every
  /// admitted job is answered, even across shutdown). With a state dir
  /// it returns only after flushing the job's journal record, which it
  /// does while a worker already solves the job.
  std::future<BuildResponse> submitAsync(BuildRequest Request);

  /// Synchronous convenience wrapper around `submitAsync`.
  BuildResponse submit(BuildRequest Request);

  /// Protocol-level dispatch used by the socket server and by loopback
  /// clients that speak encoded frames. `Shutdown` is acknowledged but
  /// acted upon by the caller (the transport decides when to stop).
  /// Takes the request by value so a decoded Build moves into its job.
  Response handle(Request R);

  /// Current counters (includes live queue depth and cache size).
  StatsSnapshot stats() const;

  /// One JSON object merging this instance's snapshot with the
  /// process-wide metrics registry (queue, cache, request-latency and
  /// B&B counters). Answered to the `StatsJson` verb; schema in
  /// `docs/observability.md`.
  std::string statsJson() const;

  /// \name Cluster integration (`src/dist`).
  /// @{

  /// Attaches the remote cache tier probed after a local whole-matrix
  /// miss. Borrowed; detach (nullptr) before destroying the cache.
  void setDistCache(DistCache *Cache) {
    Remote.store(Cache, std::memory_order_release);
  }

  /// Merges \p Fn's JSON object into `statsJson()` as the `cluster`
  /// section (schema in docs/distributed.md).
  void setClusterStats(std::function<std::string()> Fn);

  /// A queued job handed to a remote peer. `Token` redeems it in
  /// `completeLentJob`/`reenqueueLentJob`; `EncodedRequest` is the
  /// protocol frame the thief decodes and solves.
  struct LentJob {
    std::uint64_t Token = 0;
    std::vector<std::uint8_t> EncodedRequest;
  };

  /// Pops one queued job for a remote peer to solve (nullopt when the
  /// queue is empty). The job's promise and journal entry stay here:
  /// the requester is answered by `completeLentJob`, and a crash of
  /// this node still re-runs the job from the journal on restart.
  std::optional<LentJob> lendQueuedJob();

  /// Resolves a lent job with the thief's response. \returns false for
  /// an unknown token (already completed, re-enqueued, or failed over).
  bool completeLentJob(std::uint64_t Token, BuildResponse Response);

  /// Returns a lent job to the local queue (thief died). \returns false
  /// for an unknown token; a job that no longer fits the queue is
  /// answered `ShuttingDown` instead of dropped.
  bool reenqueueLentJob(std::uint64_t Token);

  /// Jobs currently lent out to peers.
  std::size_t lentJobCount() const;

  /// Direct result-cache access for serving remote peers' shard
  /// lookups/inserts (collision-checked like any local access; stores
  /// also reach the durable tier). No-ops / misses when caching is off.
  /// A hit carries its full identity: `ShardedLruCache::lookup` leaves
  /// the bytes out, and this fills them from \p Bytes because both
  /// cluster callers forward the entry (a peer's `CacheHit` reply, or
  /// an adoption into the probing service's cache).
  std::optional<CachedSolution>
  cacheLookup(std::uint64_t Key, const std::vector<std::uint8_t> &Bytes);
  void cacheStore(std::uint64_t Key, CachedSolution Value);

  /// Jobs being solved by workers right now (steal-idleness probe).
  std::uint64_t inFlight() const {
    return InFlightJobs.load(std::memory_order_relaxed);
  }

  /// @}

  /// Graceful shutdown: stops admissions, fails queued jobs with
  /// `ShuttingDown`, lets in-flight solves finish, joins the workers.
  /// Idempotent; the destructor calls it.
  void stop();

  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

  const ServiceOptions &options() const { return Options; }

private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    BuildRequest Request;
    std::promise<BuildResponse> Promise;
    Clock::time_point SubmitTime;
    /// Job-journal id (0 = not journaled: persistence off, or a
    /// rejected job that never reached the journal).
    std::uint64_t JournalId = 0;
    /// Execution tier chosen at admission (Exact when QoS is off).
    QosTier Tier = QosTier::Exact;
    /// Admission-time cost prediction, echoed to the client.
    double PredictedMillis = 0.0;
    double PredictedNodes = 0.0;
    /// Coalescing flight this job leads (0 = not coalesced); the
    /// response is fanned out to the flight's followers on resolve.
    std::uint64_t CoalesceKey = 0;
  };

  void workerLoop();
  void recoverState();
  /// Inserts \p Value into the cache. With a state dir its durable
  /// record is written first, unsynced, in one `PersistMu` section with
  /// the insertion and the early-compaction decision, so a compaction
  /// snapshot holds every cached record of the WAL it truncates.
  /// \returns the record's WAL sequence number (0 without a state dir
  /// or when the write failed).
  std::uint64_t storeSolution(std::uint64_t Key, CachedSolution Value)
      MUTK_EXCLUDES(PersistMu);
  void journalCompleted(std::uint64_t JournalId);
  /// Answers a job a worker or a peer solved: counts it completed or
  /// failed, records its end-to-end latency, then resolves it.
  void answerSolved(Job &&J, BuildResponse Resp);
  /// The single exit point of every admitted job: marks the journal
  /// entry done, fans the response out to coalesced followers, then
  /// resolves the leader's promise.
  void resolveJob(Job &&J, BuildResponse Resp);
  std::string checkpointPath(std::uint64_t Key) const;
  BuildResponse process(const Job &J);
  BuildResponse solveFresh(const DistanceMatrix &M,
                           const BuildRequest &Request,
                           Clock::time_point Deadline, bool HasDeadline,
                           PhyloTree &OutTree);

  ServiceOptions Options;
  obs::ServiceInstruments &Obs;
  obs::QosInstruments &QosObs;
  /// QoS layer: cost prediction, admission/tier routing and in-flight
  /// coalescing. Constructed before the queue (the queue's scheduler
  /// options borrow a QoS counter).
  qos::CostModel Cost;
  qos::AdmissionController Admission;
  qos::Coalescer Coalesce;
  qos::ReadyQueue<Job> Queue;
  ShardedLruCache Cache;
  ServiceStats Counters;
  std::vector<std::thread> Workers;
  std::atomic<bool> Stopping{false};
  /// Serializes whole `stop()` runs; the outermost service lock
  /// (ordered before the queue, persist, lent and cache-shard locks it
  /// reaches while draining).
  Mutex StopMu{"service.stop"};

  /// Persistence (null when `Options.StateDir` is empty). Both stores
  /// are internally locked and group-commit their syncs. `PersistMu`
  /// orders the cache store's writes, loads and compactions with the
  /// in-memory cache they mirror (`storeSolution`); waits for
  /// durability run outside it. The pointers are set once before the
  /// workers exist.
  std::unique_ptr<persist::CacheStore> Store;
  std::unique_ptr<persist::JobJournal> Journal;
  Mutex PersistMu{"service.persist"};
  /// The cache WAL's size when an early compaction last failed (0 after
  /// one succeeded): the next attempt waits for `WalCompactBytes` more,
  /// so a snapshot that cannot be written is not retried on every store.
  std::uint64_t FailedCompactBytes MUTK_GUARDED_BY(PersistMu) = 0;
  std::atomic<std::uint64_t> NextJobId{1};
  BlockCheckpointHooks CheckpointHooks;

  /// Cluster integration state. `Remote` is borrowed (see
  /// `setDistCache`); `Lent` holds the promises of jobs peers are
  /// solving, keyed by loan token.
  std::atomic<DistCache *> Remote{nullptr};
  mutable Mutex ClusterStatsMu{"service.clusterstats"};
  std::function<std::string()> ClusterStats MUTK_GUARDED_BY(ClusterStatsMu);
  mutable Mutex LentMu{"service.lent"};
  std::unordered_map<std::uint64_t, Job> Lent MUTK_GUARDED_BY(LentMu);
  std::uint64_t NextLentToken MUTK_GUARDED_BY(LentMu) = 1;
  std::atomic<std::uint64_t> InFlightJobs{0};
};

} // namespace mutk

#endif // MUTK_SERVICE_SERVICE_H

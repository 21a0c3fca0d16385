//===- obs/Instruments.h - Built-in instrument bundles ----------*- C++ -*-===//
///
/// \file
/// Every metric the mutk tree exports, registered once in the global
/// `MetricsRegistry` and handed to the instrumented components as plain
/// pointers/references. All metric *names* live in `Instruments.cpp` —
/// nowhere else — so `scripts/lint.sh` can verify that each registered
/// name is documented in `docs/observability.md` (the full catalog with
/// meanings lives there).
///
/// Bundles are process-wide singletons: several `TreeService` instances
/// in one process share the counters, which matches the Prometheus model
/// (cumulative per process) and keeps instrument lifetime trivially
/// safe — the registry never frees an instrument.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_OBS_INSTRUMENTS_H
#define MUTK_OBS_INSTRUMENTS_H

#include "obs/Metrics.h"

#include <cstdint>
#include <vector>

namespace mutk {
struct BnbStats;
} // namespace mutk

namespace mutk::obs {

/// Hooks the service's `qos::ReadyQueue` updates when attached (all
/// optional).
struct QueueInstruments {
  Gauge *Depth = nullptr;       ///< Items currently queued.
  Counter *Enqueued = nullptr;  ///< Successful pushes.
  Counter *Rejected = nullptr;  ///< Pushes refused (full or closed).
};

/// Request-path instruments of the tree-construction service.
struct ServiceInstruments {
  Counter &Submitted;
  Counter &Completed;
  Counter &Failed;
  Counter &Rejected;
  Counter &DeadlineExpired;
  Counter &WholeHits;
  Counter &WholeMisses;
  Gauge &InFlight;
  Histogram &RequestOkMillis;
  Histogram &RequestErrorMillis;
  Histogram &QueueWaitMillis;
  QueueInstruments Queue;
};
ServiceInstruments &serviceInstruments();

/// Per-shard counter trio of the result cache (also used as the
/// aggregate trio with null-free pointers).
struct CacheShardInstruments {
  Counter *Hits = nullptr;
  Counter *Misses = nullptr;
  Counter *Evictions = nullptr;
};

/// Aggregate cache counters.
struct CacheInstruments {
  Counter &Hits;
  Counter &Misses;
  Counter &Evictions;
};
CacheInstruments &cacheInstruments();

/// Labeled `{shard="i"}` instrument families for shards `0..NumShards-1`
/// (registered on first request; repeated calls return the same
/// instruments).
std::vector<CacheShardInstruments> cacheShardInstruments(int NumShards);

/// Socket-frontend instruments.
struct ServerInstruments {
  Counter &ConnectionsAccepted;
  Gauge &ConnectionsActive;
  Counter &FramesRead;
  Counter &ParseErrors;
};
ServerInstruments &serverInstruments();

/// Branch-and-bound search counters, aggregated across every solver
/// (sequential DFS, best-first, threaded). Solvers accumulate their
/// per-solve `BnbStats` locally — zero contention on the search hot
/// path — and flush once per solve via `recordBnbSolve`.
struct BnbInstruments {
  Counter &Solves;
  Counter &Incomplete;
  Counter &NodesExpanded;
  Counter &NodesGenerated;
  Counter &PrunedByBound;
  Counter &PrunedByThreeThree;
  Counter &BoundEvals;
  Counter &UbUpdates;
};
BnbInstruments &bnbInstruments();

/// Flushes one solve's counters into the global registry (gated by
/// `BnbOptions::PublishMetrics` at the call sites).
void recordBnbSolve(const BnbStats &Stats);

/// Durability-layer instruments (`src/persist`): WAL traffic and
/// flushes, snapshot compactions, startup recovery and B&B checkpoint
/// writes.
struct PersistInstruments {
  Counter &WalAppends;
  Counter &WalAppendBytes;
  Counter &WalSyncs;
  Counter &WalAppendErrors;
  Counter &SnapshotWrites;
  Counter &RecoveredRecords;
  Counter &DroppedRecords;
  Counter &RecoveredJobs;
  Counter &CheckpointWrites;
  Gauge &WalBytes;
  Gauge &SnapshotBytes;
  Histogram &CheckpointWriteMillis;
};
PersistInstruments &persistInstruments();

/// Cluster-layer instruments (`src/dist`): peer liveness, cluster-frame
/// traffic, cross-node job stealing, the sharded remote result cache
/// and distributed B&B slave sessions.
struct DistInstruments {
  Gauge &PeersAlive;
  Counter &PeerDeaths;
  Counter &PeerRevivals;
  Counter &HeartbeatsSent;
  Counter &HeartbeatsReceived;
  Counter &Frames;
  Counter &FrameErrors;
  Counter &JobsLent;
  Counter &JobsStolen;
  Counter &JobsReenqueued;
  Counter &RemoteLookups;
  Counter &RemoteHits;
  Counter &RemoteTimeouts;
  Counter &InsertsForwarded;
  Counter &MpSessions;
  Counter &WorkStolen;
  Counter &WorkDonated;
  Counter &IncumbentBroadcasts;
};
DistInstruments &distInstruments();

/// Cross-request block-cache tier counters (`docs/caching.md`): the
/// service-path view of per-condensed-block reuse. `Hits`/`Misses`/
/// `Inserts` count local block-tier traffic, the `Remote*` trio counts
/// probes of the cluster ring's block namespace, and `Recovered` counts
/// block records replayed from the durable store at startup.
struct BlockCacheInstruments {
  Counter &Hits;
  Counter &Misses;
  Counter &Inserts;
  Counter &RemoteLookups;
  Counter &RemoteHits;
  Counter &RemoteInserts;
  Counter &Recovered;
};
BlockCacheInstruments &blockCacheInstruments();

/// Cost-predictive QoS layer counters (`docs/qos.md`): admission
/// outcomes (sheds, rate limits, per-tier routing), coalescing
/// (followers answered by a leader, fan-out sizes), scheduler
/// starvation promotions, the predictor's dry-run memo traffic and the
/// predicted-vs-actual latency pair used to judge calibration.
struct QosInstruments {
  Counter &Shed;
  Counter &RateLimited;
  Counter &TierExact;
  Counter &TierPipeline;
  Counter &TierHeuristic;
  Counter &Coalesced;
  Counter &StarvationPromotions;
  Counter &ProfileDryRuns;
  Counter &ProfileMemoHits;
  /// Calibrated cost-per-node coefficient, in nanoseconds per search
  /// node (gauges are integers; ns keeps useful resolution).
  Gauge &CostPerNodeNanos;
  Histogram &CoalesceFanout;
  Histogram &PredictedMillis;
  Histogram &ActualMillis;
};
QosInstruments &qosInstruments();

/// Compact-set pipeline counters.
struct PipelineInstruments {
  Counter &Runs;
  Counter &Blocks;
  Counter &BlockCacheHits;
  Counter &ExactBlocks;
  Counter &HeuristicBlocks;
  Counter &HeightClamps;
  /// Block solves handed to the DAG scheduler's ready queue
  /// (`compact/BlockScheduler.h`); only parallel runs increment it.
  Counter &ReadyBlocks;
  /// Solves that blocked on another thread already solving a block with
  /// the same canonical fingerprint (single-flight contention).
  Counter &SingleFlightWaits;
  Gauge &BlocksInflight;
  Histogram &BlockSize;
  Histogram &BlockSolveMillis;
};
PipelineInstruments &pipelineInstruments();

} // namespace mutk::obs

#endif // MUTK_OBS_INSTRUMENTS_H

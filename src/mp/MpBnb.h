//===- mp/MpBnb.h - Message-passing master/slave B&B ------------*- C++ -*-===//
///
/// \file
/// A faithful port of the papers' MPI master/slave architecture onto the
/// transport-agnostic `MpEndpoint`: rank 0 is the master control node
/// holding the global pool, ranks 1..P are slave computing nodes with
/// local pools. All coordination happens through tagged messages:
///
///   Init         master -> worker   relabeled matrix + initial UB
///   Work         master -> worker   one serialized BBT node
///   WorkRequest  worker -> master   local pool empty
///   Donation     worker -> master   worker's worst BBT node (after a
///                                    NeedWork broadcast — the paper's
///                                    "send the last UT in sorted LP to
///                                    GP" step)
///   Solution     worker -> master   improved complete tree
///   UbUpdate     master -> workers  new global upper bound
///                worker -> workers  peer incumbent broadcast (when
///                                    `PeerUbBroadcast` is on)
///   NeedWork     master -> workers  the global pool ran dry
///   Terminate    master -> workers  all pools empty: search done
///   Stats        worker -> master   final per-worker counters
///   StealRequest worker -> worker   thief asks a peer for work
///   StealReply   worker -> worker   victim's answer (maybe a node)
///   StealGrant   worker -> master   victim reports a successful steal
///                                    so the master's credit counters
///                                    stay consistent
///
/// Termination is safe because per-channel delivery is FIFO: when every
/// worker has an outstanding WorkRequest and the global pool is empty,
/// no Donation can still be in flight. Work stealing preserves the
/// invariant: a victim reports every grant to the master *before* any
/// later idle report it makes, and a thief waiting on a StealReply has
/// no pending WorkRequest, so it can never be counted idle while stolen
/// work is in flight to it (see `docs/distributed.md`).
///
/// Unlike `parallel/ThreadedBnb.h` (shared-memory upper bound), nothing
/// here crosses ranks except messages, so the implementation doubles as
/// executable documentation of the original cluster protocol — and runs
/// unchanged across machines over `dist/MpSocket.h`. The search itself
/// (the master phase, the node step, the incumbent) is `bnb/Search.h`,
/// shared with every other driver; this file holds the protocol.
///
/// A slave reads payloads from a peer it does not control. A malformed
/// one — a short Init, a matrix outside 2..`MaxBnbSpecies` species, a
/// Work or StealReply that is not one whole topology, an unsolicited
/// StealReply, a tag no master sends — ends its session the way a
/// broken link does: the slave sends its Stats and returns. The master
/// cannot skip a malformed slave payload (a dropped Donation loses a
/// subtree, a forged Solution would become the answer), so a Donation
/// that is not one topology, a Solution that is not a tree over all n
/// species with exactly the minimal heights of the master's relabeled
/// matrix, a StealGrant that does not name a slave rank, a short
/// WorkRequest or a tag no slave sends ends the solve: the master stops
/// dealing, broadcasts Terminate, collects every Stats message and
/// returns its incumbent with `Stats.Complete = false`.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_MP_MPBNB_H
#define MUTK_MP_MPBNB_H

#include "bnb/SequentialBnb.h"
#include "mp/Communicator.h"
#include "parallel/ThreadedBnb.h"

namespace mutk {

/// Wire tags of the master/slave protocol. Public so socket transports
/// and traffic benches can name them.
enum MpTag : int {
  MpTagInit = 1,
  MpTagWork,
  MpTagWorkRequest,
  MpTagDonation,
  MpTagSolution,
  MpTagUbUpdate,
  MpTagNeedWork,
  MpTagTerminate,
  MpTagStats,
  MpTagStealRequest,
  MpTagStealReply,
  MpTagStealGrant,
};

/// Human-readable name for an `MpTag` value ("?" for unknown tags).
const char *mpTagName(int Tag);

/// Protocol extensions layered over the paper's baseline.
struct MpProtocolOptions {
  /// Dry workers first try to steal a node from a peer's local deque
  /// (one outstanding attempt, round-robin victim) before falling back
  /// to the master's WorkRequest path.
  bool WorkStealing = false;
  /// Only nodes with at most this many placed species may be stolen
  /// (depth-bounded spawning: shallow nodes travel, deep ones stay).
  /// 0 means no bound.
  int StealDepthBound = 0;
  /// Workers broadcast improved incumbents directly to their peers (in
  /// addition to the Solution sent to the master), so bound updates do
  /// not wait a master round-trip. Each worker keeps the min over
  /// everything it has heard — its local bound cache.
  bool PeerUbBroadcast = false;
};

/// Result of a message-passing solve, with traffic accounting.
struct MpMutResult : MutResult {
  std::vector<WorkerStats> Workers;
  std::uint64_t MessagesSent = 0;
  std::uint64_t BytesSent = 0;
  /// Per-tag message/byte counts, ascending by tag (empty when the
  /// transport does not track per-tag traffic).
  std::vector<TagTraffic> Traffic;
};

/// Runs the master control node over \p Self (must be rank 0 of a world
/// with at least 2 ranks): seeds the frontier, deals work, brokers
/// donations and bound updates, and drives termination. Every other
/// rank must be running `runMpSlave` with the same protocol options.
/// \returns the solved tree/cost plus aggregated worker stats (the
/// transport-level `MessagesSent`/`BytesSent`/`Traffic` fields are left
/// to the caller, which owns the transport).
MpMutResult runMpMaster(MpEndpoint &Self, const DistanceMatrix &M,
                        const BnbOptions &Options = {},
                        const MpProtocolOptions &Proto = {});

/// Runs one slave computing node over \p Self until the master
/// terminates the search, the link breaks or a payload is malformed.
/// \returns the worker counters this slave also shipped to the master in
/// its final Stats message.
WorkerStats runMpSlave(MpEndpoint &Self, const BnbOptions &Options = {},
                       const MpProtocolOptions &Proto = {});

/// Solves the MUT problem with \p NumWorkers slave ranks plus one master
/// rank, all ranks in-process threads communicating via messages.
/// Cost-equal to the sequential solver. `CollectAllOptimal` and
/// `MaxBranchedNodes` are unsupported (the protocol always runs to
/// exhaustion).
MpMutResult solveMutMessagePassing(const DistanceMatrix &M, int NumWorkers,
                                   const BnbOptions &Options = {},
                                   const MpProtocolOptions &Proto = {});

} // namespace mutk

#endif // MUTK_MP_MPBNB_H

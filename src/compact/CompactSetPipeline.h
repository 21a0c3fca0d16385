//===- compact/CompactSetPipeline.h - The paper's fast technique *- C++ -*-===//
///
/// \file
/// The PaCT 2005 contribution end-to-end (paper §3): find all compact
/// sets of the distance matrix, convert the matrix into the hierarchy of
/// small condensed matrices D', solve every D' with branch-and-bound (or
/// UPGMM beyond a size cap), and merge the subtrees T' into one
/// ultrametric tree T.
///
/// With the *maximum* condensation the merged tree is always a feasible
/// ultrametric tree for the original matrix, and compactness guarantees
/// the merge never has to adjust heights: the distance between two blocks
/// strictly exceeds every block's diameter.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_COMPACT_COMPACTSETPIPELINE_H
#define MUTK_COMPACT_COMPACTSETPIPELINE_H

#include "bnb/Checkpoint.h"
#include "bnb/SequentialBnb.h"
#include "graph/CompactSets.h"
#include "matrix/Condense.h"
#include "sim/ClusterSim.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace mutk {

/// Which engine solves each condensed matrix.
enum class BlockSolver {
  Sequential,       ///< Algorithm BBU per block.
  Threaded,         ///< Shared-memory parallel B&B (`parallel/ThreadedBnb`)
                    ///< with `PipelineOptions::ThreadsPerBlock` workers.
  SimulatedCluster, ///< Parallel B&B on the simulated cluster per block.
};

/// A memoized block solution. The tree's leaves carry *canonical* labels
/// (`matrix/Fingerprint.h` maxmin order of the condensed matrix), so one
/// entry serves every relabeling of the same block.
struct BlockCacheEntry {
  PhyloTree Tree;
  double Cost = 0.0;
  bool Exact = true;
};

/// Optional memoization hooks consulted for every condensed matrix D'.
///
/// `Lookup` receives the block's relabeling-invariant fingerprint and the
/// canonical bytes backing it (see `CanonicalForm`); implementations must
/// compare the bytes before returning a hit so hash collisions stay
/// harmless. `Store` is called after a fresh solve with the entry already
/// in canonical labels. Both may be called concurrently from several
/// pipelines sharing one cache.
struct BlockCacheHooks {
  std::function<std::optional<BlockCacheEntry>(
      std::uint64_t Key, const std::vector<std::uint8_t> &Bytes)>
      Lookup;
  std::function<void(std::uint64_t Key,
                     const std::vector<std::uint8_t> &Bytes,
                     const BlockCacheEntry &Entry)>
      Store;
};

/// Optional per-compact-set checkpoint/resume hooks. Each exactly-solved
/// block is an independent branch-and-bound search; with these hooks the
/// pipeline checkpoints every such search under the block's canonical
/// fingerprint (cadence from `PipelineOptions::Bnb`) and, when a prior
/// run was interrupted, resumes each unfinished block from its saved
/// state instead of from the root. Only the sequential block solver
/// checkpoints (the simulated-cluster solver is itself a simulation).
/// Files are keyed by the canonical key, which a relabeled twin of the
/// block shares; the state itself is stamped with the block's
/// `labeledKey`, which the pipeline and the solver check before resuming,
/// so a stale state or a twin's costs a fresh solve. A forged or
/// colliding 64-bit stamp is not caught.
struct BlockCheckpointHooks {
  /// Returns the sink that persists checkpoints for the block with this
  /// canonical key (null = do not checkpoint this block).
  std::function<std::unique_ptr<CheckpointSink>(std::uint64_t Key)> SinkFor;
  /// Loads a previously-captured state for the block (nullopt = none).
  std::function<std::optional<SearchCheckpoint>(std::uint64_t Key)> Load;
  /// The block finished — its checkpoint file is obsolete.
  std::function<void(std::uint64_t Key)> Done;
};

/// Default per-block B&B options: the pipeline turns the paper's 3-3
/// third-species constraint on. Compact-set blocks are clustered by
/// construction — exactly the structured shape on which `ThirdSpecies`
/// is proven cost-preserving (tests/bnb_test.cpp) — so the filter prunes
/// for free. Callers can still override `PipelineOptions::Bnb`.
inline BnbOptions defaultPipelineBnb() {
  BnbOptions B;
  B.ThreeThree = ThreeThreeMode::ThirdSpecies;
  return B;
}

/// Options of the decomposition pipeline.
struct PipelineOptions {
  /// How cross-block distances collapse into D' entries; the paper
  /// studies Maximum (the only mode guaranteeing feasibility).
  CondenseMode Mode = CondenseMode::Maximum;
  /// Options forwarded to the per-block B&B (3-3 third-species pruning
  /// on by default, see `defaultPipelineBnb`).
  BnbOptions Bnb = defaultPipelineBnb();
  /// Condensed matrices larger than this are solved heuristically with
  /// UPGMM instead of exactly (keeps worst-case time bounded; reported
  /// per block).
  int MaxExactBlockSize = 16;
  BlockSolver Solver = BlockSolver::Sequential;
  /// Cluster model used when `Solver == SimulatedCluster`.
  ClusterSpec Cluster;
  /// Condensed matrices solved concurrently by the block DAG scheduler
  /// (`compact/BlockScheduler.h`). 1 = the classic sequential recursive
  /// walk; 0 = auto-tune from `hardware_concurrency`; K > 1 = that many
  /// pool threads (capped at the number of blocks). The merged tree is
  /// identical for every value — only wall-clock changes.
  int BlockConcurrency = 1;
  /// B&B workers inside each block solve when `Solver == Threaded`
  /// (0 = auto: divide the remaining hardware threads among the
  /// concurrent blocks). Ignored by the other solvers.
  int ThreadsPerBlock = 0;
  /// Run a subtree-prune-and-regraft polish on the merged tree
  /// (`heur/NniSearch.h`) — the papers' future-work extension. Never
  /// increases the cost; most useful when blocks fell back to UPGMM.
  bool PolishTopology = false;
  /// When set, every block solve first consults the cache (borrowed, must
  /// outlive the pipeline run).
  const BlockCacheHooks *BlockCache = nullptr;
  /// When set, exact block solves checkpoint/resume through these hooks
  /// (borrowed, must outlive the pipeline run).
  const BlockCheckpointHooks *BlockCheckpoint = nullptr;
};

/// Accounting for one condensed matrix D'.
struct BlockReport {
  /// Hierarchy node this block tree belongs to.
  int HierarchyNode = -1;
  /// Size of the condensed matrix (number of partition blocks).
  int NumBlocks = 0;
  /// Weight of the block tree (over D').
  double Cost = 0.0;
  /// False when the size cap forced the UPGMM fallback.
  bool Exact = true;
  /// True when the block tree was replayed from the block cache (then
  /// `Branched == 0` and no solver ran).
  bool FromCache = false;
  /// BBT nodes branched solving this block.
  std::uint64_t Branched = 0;
  /// Virtual makespan of the block's cluster run (0 for Sequential).
  double VirtualTime = 0.0;
};

/// Result of the full pipeline.
struct PipelineResult {
  /// The merged ultrametric tree over all species, original labels.
  PhyloTree Tree;
  /// Its weight (the paper's "total tree cost").
  double Cost = 0.0;
  /// The detected compact sets.
  std::vector<CompactSet> Sets;
  std::vector<BlockReport> Blocks;
  /// Aggregate solver counters across blocks.
  BnbStats TotalStats;
  /// Sum of per-block virtual makespans (blocks solved one after the
  /// other on one cluster).
  double TotalVirtualTime = 0.0;
  /// Max per-block virtual makespan (blocks are independent, so this is
  /// the virtual time with one cluster per block — the paper's
  /// "constructing evolutionary tree in parallel").
  double ParallelVirtualTime = 0.0;
  /// Number of merge steps that had to raise a height to keep edge
  /// weights nonnegative. Always 0 for CondenseMode::Maximum.
  int HeightClamps = 0;
  /// SPR moves applied by the optional polish (0 when disabled or when
  /// the merged tree was already SPR-optimal).
  int PolishMoves = 0;
  /// The resolved thread-budget split this run actually used: number of
  /// concurrent block solves (1 = sequential walk) × B&B workers per
  /// block. Reported so benchmarks and tests can confirm the auto-tune.
  int BlockConcurrency = 1;
  int WorkersPerBlock = 1;
};

/// Runs the fast technique on \p M.
PipelineResult buildCompactSetTree(const DistanceMatrix &M,
                                   const PipelineOptions &Options = {});

} // namespace mutk

#endif // MUTK_COMPACT_COMPACTSETPIPELINE_H

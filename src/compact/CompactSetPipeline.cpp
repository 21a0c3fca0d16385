//===- compact/CompactSetPipeline.cpp - The paper's fast technique --------===//

#include "compact/CompactSetPipeline.h"

#include "bnb/Topology.h"
#include "compact/BlockScheduler.h"
#include "graph/Hierarchy.h"
#include "heur/NniSearch.h"
#include "heur/Upgma.h"
#include "matrix/Fingerprint.h"
#include "matrix/MetricUtils.h"
#include "obs/Instruments.h"
#include "parallel/ThreadedBnb.h"
#include "support/Audit.h"
#include "support/SingleFlight.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace mutk;

namespace {

/// Serializes block solves per canonical fingerprint, process-wide: the
/// cache and checkpoint hooks may be shared by every pipeline in the
/// process (the service shares one state dir across workers), so two
/// identical blocks — whether in one parallel run or in two concurrent
/// requests — must not race one `ckpt/<fingerprint>.ckpt` file or solve
/// the same matrix twice. The second solver waits, then replays the
/// first's freshly stored cache entry.
KeyedMutex &blockFlight() {
  static KeyedMutex Flight;
  return Flight;
}

/// Read-only inputs shared by every block solve of one pipeline run.
struct SolveContext {
  const DistanceMatrix &M;
  const PipelineOptions &Options;
  const CompactHierarchy &Hierarchy;
  /// B&B workers inside each block solve (`BlockSolver::Threaded`).
  int WorkersPerBlock = 1;
};

/// Everything one block solve reports back, written by exactly one
/// thread and merged into the `PipelineResult` deterministically (in
/// hierarchy preorder) after all solves finished.
struct BlockOutcome {
  BlockReport Report;
  /// Contribution to `PipelineResult::TotalStats`.
  BnbStats Stats;
  /// Heights raised while grafting this node's subtree.
  int HeightClamps = 0;
};

/// Solves the condensed matrix of hierarchy node \p Id and fills \p Out.
/// Thread-safe across distinct calls: shared state is only reached
/// through the (caller-synchronized) cache/checkpoint hooks, which are
/// single-flighted per fingerprint below.
///
/// Opted out of thread-safety analysis: the single-flight guard is
/// default-constructed and conditionally move-assigned from
/// `KeyedMutex::lock`, a hand-off the scoped-capability model cannot
/// express (which key is held is runtime data).
PhyloTree solveOneBlock(const SolveContext &Ctx, int Id, BlockOutcome &Out)
    MUTK_NO_THREAD_SAFETY_ANALYSIS {
  DistanceMatrix Condensed =
      condense(Ctx.M, Ctx.Hierarchy.partitionAt(Id), Ctx.Options.Mode);
  BlockReport &Report = Out.Report;
  Report.HierarchyNode = Id;
  Report.NumBlocks = Condensed.size();

  const bool Publish = Ctx.Options.Bnb.PublishMetrics;
  if (Publish) {
    obs::PipelineInstruments &I = obs::pipelineInstruments();
    I.Blocks.inc();
    I.BlockSize.record(static_cast<double>(Condensed.size()));
  }

  const BlockCacheHooks *Cache = Ctx.Options.BlockCache;
  const BlockCheckpointHooks *Ckpt = Ctx.Options.BlockCheckpoint;
  CanonicalForm Form;
  bool HaveForm = false;
  if ((Cache || Ckpt) && Condensed.size() >= 2) {
    Form = canonicalForm(Condensed);
    HaveForm = true;
  }

  // Single-flight per fingerprint: for the duration of the solve this
  // thread owns the block's cache/checkpoint identity. An identical
  // block on another thread blocks here and then (cache hit below)
  // replays this solve's stored entry instead of duplicating it — and
  // the checkpoint file under `ckpt/<fingerprint>.ckpt` always has at
  // most one writer.
  KeyedMutex::Guard Flight;
  if (HaveForm) {
    bool Contended = false;
    Flight = blockFlight().lock(Form.Key, &Contended);
    if (Contended && Publish)
      obs::pipelineInstruments().SingleFlightWaits.inc();
  }

  // Consult the block cache: the canonical fingerprint is invariant under
  // block relabeling, so a hit replays the stored canonical tree with the
  // leaves permuted back into this block's label space.
  if (Cache && HaveForm && Cache->Lookup) {
    if (std::optional<BlockCacheEntry> Hit =
            Cache->Lookup(Form.Key, Form.Bytes)) {
      Report.Exact = Hit->Exact;
      Report.Cost = Hit->Cost;
      Report.FromCache = true;
      if (Publish)
        obs::pipelineInstruments().BlockCacheHits.inc();
      // The block is solved for good; a checkpoint left by an
      // interrupted earlier run is obsolete.
      if (Ckpt && Ckpt->Done)
        Ckpt->Done(Form.Key);
      return Hit->Tree.relabeled(Form.Perm);
    }
  }

  // Per-block checkpoint/resume (exact solves through the sequential or
  // threaded engine: the UPGMM fallback is instant and the simulated
  // cluster has no durable state worth saving).
  const bool ExactPath =
      Condensed.size() <= Ctx.Options.MaxExactBlockSize &&
      Condensed.size() <= MaxBnbSpecies;
  BnbOptions BlockBnb = Ctx.Options.Bnb;
  std::unique_ptr<CheckpointSink> Sink;
  std::optional<SearchCheckpoint> Resume;
  if (Ckpt && HaveForm && ExactPath &&
      Ctx.Options.Solver != BlockSolver::SimulatedCluster &&
      !BlockBnb.CollectAllOptimal) {
    if (Ckpt->SinkFor)
      Sink = Ckpt->SinkFor(Form.Key);
    BlockBnb.Checkpoint = Sink.get();
    if (Ckpt->Load) {
      Resume = Ckpt->Load(Form.Key);
      if (Resume && Resume->MatrixKey != 0 && Resume->MatrixKey != Form.Key) {
        // Stale or colliding state: the solver would refuse it anyway,
        // but waiting for a *successful* solve to delete it replays the
        // useless load forever when every attempt is truncated (budget,
        // deadline) or throws. Remove on mismatch, eagerly.
        if (Ckpt->Done)
          Ckpt->Done(Form.Key);
        Resume.reset();
      }
      if (Resume)
        BlockBnb.ResumeFrom = &*Resume;
    }
  }

  PhyloTree Tree;
  if (!ExactPath) {
    Tree = upgmm(Condensed);
    Report.Exact = false;
    Report.Cost = Tree.weight();
  } else if (Ctx.Options.Solver == BlockSolver::SimulatedCluster) {
    ClusterSimResult Solved = simulateClusterBnb(
        Condensed, Ctx.Options.Cluster, Ctx.Options.Bnb);
    Tree = std::move(Solved.Tree);
    Report.Cost = Solved.Cost;
    Report.Branched = Solved.Stats.Branched;
    Report.VirtualTime = Solved.Makespan;
    Report.Exact = Solved.Stats.Complete;
    Out.Stats = Solved.Stats;
  } else if (Ctx.Options.Solver == BlockSolver::Threaded) {
    ParallelMutResult Solved =
        solveMutThreaded(Condensed, Ctx.WorkersPerBlock, BlockBnb);
    Tree = std::move(Solved.Tree);
    Report.Cost = Solved.Cost;
    Report.Branched = Solved.Stats.Branched;
    Report.Exact = Solved.Stats.Complete;
    Out.Stats = Solved.Stats;
  } else {
    MutResult Solved = solveMutSequential(Condensed, BlockBnb);
    Tree = std::move(Solved.Tree);
    Report.Cost = Solved.Cost;
    Report.Branched = Solved.Stats.Branched;
    Report.Exact = Solved.Stats.Complete;
    Out.Stats = Solved.Stats;
  }

  // A completed exact search makes the block's checkpoint obsolete; an
  // interrupted one (budget/deadline truncation) keeps it so the next
  // attempt resumes instead of restarting.
  if (Ckpt && Ckpt->Done && HaveForm && ExactPath && Report.Exact)
    Ckpt->Done(Form.Key);

  if (Cache && Cache->Store && HaveForm) {
    // Store in canonical labels: canonical index k sits where the solve
    // saw block index Form.Perm[k].
    BlockCacheEntry Entry;
    Entry.Tree = Tree.relabeled(Form.inversePerm());
    Entry.Cost = Report.Cost;
    Entry.Exact = Report.Exact;
    Cache->Store(Form.Key, Form.Bytes, Entry);
  }

  if (Publish) {
    obs::PipelineInstruments &I = obs::pipelineInstruments();
    if (Report.Exact)
      I.ExactBlocks.inc();
    else
      I.HeuristicBlocks.inc();
  }
  return Tree;
}

/// Copies \p BlockNode of \p BlockTree into \p Out, substituting block
/// leaves by the trees in \p ChildTrees. Returns the new node index and
/// updates \p Clamps when a parent height had to be raised.
int graft(const PhyloTree &BlockTree, int BlockNode,
          const std::vector<PhyloTree> &ChildTrees, PhyloTree &Out,
          int &Clamps) {
  const PhyloNode &N = BlockTree.node(BlockNode);
  if (N.isLeaf()) {
    const PhyloTree &Child = ChildTrees[static_cast<std::size_t>(N.Leaf)];
    std::vector<int> Identity;
    int MaxSpecies = -1;
    for (int S : Child.allSpecies())
      MaxSpecies = std::max(MaxSpecies, S);
    Identity.resize(static_cast<std::size_t>(MaxSpecies) + 1);
    for (int S = 0; S <= MaxSpecies; ++S)
      Identity[static_cast<std::size_t>(S)] = S;
    return Out.adoptSubtree(Child, Identity);
  }

  int Left = graft(BlockTree, N.Left, ChildTrees, Out, Clamps);
  int Right = graft(BlockTree, N.Right, ChildTrees, Out, Clamps);
  double Height = N.Height;
  double ChildMax =
      std::max(Out.node(Left).Height, Out.node(Right).Height);
  if (ChildMax > Height) {
    // Only possible for Minimum/Average condensation: the block distance
    // understated a child subtree's diameter.
    Height = ChildMax;
    ++Clamps;
  }
  return Out.addInternal(Left, Right, Height);
}

/// Grafts each child's assembled subtree in place of the corresponding
/// block leaf of \p BlockTree. Returns hierarchy node \p Id's subtree in
/// *original* species ids with consistent heights.
PhyloTree graftNode(PhyloTree BlockTree, std::vector<PhyloTree> ChildTrees,
                    int &Clamps) {
  PhyloTree Out;
  Out.setRoot(
      graft(BlockTree, BlockTree.root(), ChildTrees, Out, Clamps));
  return Out;
}

/// Merges one block's outcome into the run result. Every aggregate is a
/// sum or a maximum except `Blocks`, whose order is fixed by the caller
/// (DFS preorder of the hierarchy — the sequential walk's natural order).
void mergeOutcome(const BlockOutcome &Out, PipelineResult &Result) {
  Result.TotalStats.Branched += Out.Stats.Branched;
  Result.TotalStats.Generated += Out.Stats.Generated;
  Result.TotalStats.PrunedByBound += Out.Stats.PrunedByBound;
  Result.TotalStats.PrunedByThreeThree += Out.Stats.PrunedByThreeThree;
  Result.TotalStats.BoundEvals += Out.Stats.BoundEvals;
  Result.TotalStats.UbUpdates += Out.Stats.UbUpdates;
  Result.TotalVirtualTime += Out.Report.VirtualTime;
  Result.ParallelVirtualTime =
      std::max(Result.ParallelVirtualTime, Out.Report.VirtualTime);
  Result.Blocks.push_back(Out.Report);
}

/// The classic sequential walk: solves hierarchy node \p Id's condensed
/// matrix (reporting it in DFS preorder, before the children), recurses
/// into the children, grafts.
PhyloTree assembleSequential(const SolveContext &Ctx, int Id,
                             PipelineResult &Result) {
  const CompactHierarchy::Node &Node = Ctx.Hierarchy.node(Id);
  if (Node.isSingleton()) {
    PhyloTree Leaf;
    Leaf.addLeaf(Node.Species.front());
    return Leaf;
  }

  BlockOutcome Out;
  PhyloTree BlockTree = solveOneBlock(Ctx, Id, Out);
  mergeOutcome(Out, Result);

  std::vector<PhyloTree> ChildTrees;
  ChildTrees.reserve(Node.Children.size());
  for (int Child : Node.Children)
    ChildTrees.push_back(assembleSequential(Ctx, Child, Result));

  return graftNode(std::move(BlockTree), std::move(ChildTrees),
                   Result.HeightClamps);
}

/// Internal hierarchy nodes in the order the sequential walk reports
/// them (DFS preorder, children in `Node::Children` order); the parallel
/// scheduler emits its per-block reports in this same order so the two
/// paths produce bit-identical `PipelineResult`s.
void preorderInternal(const CompactHierarchy &Hierarchy, int Id,
                      std::vector<int> &Out) {
  if (Hierarchy.node(Id).isSingleton())
    return;
  Out.push_back(Id);
  for (int Child : Hierarchy.node(Id).Children)
    preorderInternal(Hierarchy, Child, Out);
}

/// The parallel path: all block solves submitted to the DAG scheduler,
/// outcomes merged afterwards in the sequential walk's report order.
PhyloTree assembleParallel(const SolveContext &Ctx, int PoolThreads,
                           PipelineResult &Result) {
  const int NumNodes = Ctx.Hierarchy.numNodes();
  std::vector<BlockOutcome> Outcomes(static_cast<std::size_t>(NumNodes));

  PhyloTree Tree = scheduleBlockDag(
      Ctx.Hierarchy, PoolThreads, Ctx.Options.Bnb.PublishMetrics,
      [&](int Id) {
        return solveOneBlock(Ctx, Id, Outcomes[static_cast<std::size_t>(Id)]);
      },
      [&](int Id, PhyloTree BlockTree, std::vector<PhyloTree> ChildTrees) {
        return graftNode(std::move(BlockTree), std::move(ChildTrees),
                         Outcomes[static_cast<std::size_t>(Id)].HeightClamps);
      });

  std::vector<int> Order;
  preorderInternal(Ctx.Hierarchy, Ctx.Hierarchy.rootId(), Order);
  for (int Id : Order) {
    BlockOutcome &Out = Outcomes[static_cast<std::size_t>(Id)];
    mergeOutcome(Out, Result);
    Result.HeightClamps += Out.HeightClamps;
  }
  return Tree;
}

} // namespace

PipelineResult mutk::buildCompactSetTree(const DistanceMatrix &M,
                                         const PipelineOptions &Options) {
  PipelineResult Result;
  if (M.size() == 0)
    return Result;
  if (M.size() == 1) {
    Result.Tree.addLeaf(0);
    Result.Tree.setNames(M.names());
    return Result;
  }

  // The MUT problem (and the compactness lemmas) assume a metric input;
  // non-metric matrices reach here only through a bug upstream.
  MUTK_AUDIT(M.size() > MaxAuditedSpecies || isMetric(M),
             "pipeline input must satisfy the triangle inequality "
             "(Definition 2)");

  Result.Sets = findCompactSets(M);
  MUTK_AUDIT(isLaminarFamily(Result.Sets),
             "detected compact sets must be laminar (Lemma 3)");
  CompactHierarchy Hierarchy(M.size(), Result.Sets);

  if (Options.Bnb.PublishMetrics)
    obs::pipelineInstruments().Runs.inc();

  const int SolvableBlocks =
      static_cast<int>(Hierarchy.internalNodesTopDown().size());
  ThreadBudget Budget = splitThreadBudget(
      Options.BlockConcurrency, Options.ThreadsPerBlock,
      Options.Solver == BlockSolver::Threaded, SolvableBlocks,
      std::thread::hardware_concurrency());
  Result.BlockConcurrency = Budget.Blocks;
  Result.WorkersPerBlock = Budget.PerBlock;

  SolveContext Ctx{M, Options, Hierarchy, Budget.PerBlock};
  PhyloTree Tree =
      Budget.Blocks > 1
          ? assembleParallel(Ctx, Budget.Blocks, Result)
          : assembleSequential(Ctx, Hierarchy.rootId(), Result);
  Tree.setNames(M.names());
  if (Options.PolishTopology) {
    // SPR strictly contains the NNI neighborhood; complete-linkage block
    // trees are frequently NNI-optimal but not SPR-optimal.
    NniReport Polish = sprImprove(Tree, M);
    Result.PolishMoves = Polish.MovesApplied;
  }
  Result.Cost = Tree.weight();
  Result.Tree = std::move(Tree);
  if (Options.Bnb.PublishMetrics && Result.HeightClamps > 0)
    obs::pipelineInstruments().HeightClamps.inc(
        static_cast<std::uint64_t>(Result.HeightClamps));
  // Maximum condensation is the mode with the paper's feasibility
  // guarantee: the merged tree never understates a distance, and no
  // merge step had to clamp a height (Minimum/Average trade exactly
  // this away, so they are exempt).
  if (Options.Mode == CondenseMode::Maximum) {
    MUTK_AUDIT(Result.HeightClamps == 0,
               "maximum condensation must never clamp merge heights");
    MUTK_AUDIT(Result.Tree.hasMonotoneHeights(),
               "merged tree must be ultrametric");
    MUTK_AUDIT(M.size() > MaxAuditedSpecies ||
                   Result.Tree.dominatesMatrix(M),
               "merged tree must dominate the input matrix (d_T >= M)");
  }
  return Result;
}

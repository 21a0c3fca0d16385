//===- tests/hotloop_test.cpp - B&B hot-loop invariants ---------*- C++ -*-===//
//
// Regression tests for the hot-loop overhaul: the once-per-child cached
// lower bound (BnbStats::BoundEvals), the 3-3-before-bound pruning
// attribution, the per-solver TopologyArena, the bitmask maxmin fast
// path and the threaded solver's deterministic stats aggregation. The
// Search suite pins the counters of every deterministic engine, and the
// pricing tests check each child's priced cost against the built child.
//
//===----------------------------------------------------------------------===//

#include "bnb/Arena.h"
#include "bnb/BestFirstBnb.h"
#include "bnb/Engine.h"
#include "bnb/SequentialBnb.h"
#include "bnb/Topology.h"
#include "matrix/Generators.h"
#include "matrix/MetricUtils.h"
#include "parallel/ThreadedBnb.h"
#include "seq/EvolutionSim.h"
#include "sim/ClusterSim.h"
#include "support/Rng.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace mutk;

namespace {

BnbOptions quietOptions(ThreeThreeMode TT = ThreeThreeMode::None) {
  BnbOptions Options;
  Options.ThreeThree = TT;
  Options.PublishMetrics = false;
  return Options;
}

DistanceMatrix hardDna(int N, std::uint64_t Seed) {
  EvolutionSpec Spec;
  Spec.SequenceLength = 120;
  Spec.SubstitutionRate = 0.5;
  Spec.RateVariation = 1.2;
  return hmdnaLikeMatrix(N, Seed, Spec);
}

// ---------------------------------------------------------------------------
// S1: the lower bound is evaluated exactly once per generated child.
// ---------------------------------------------------------------------------

TEST(HotLoop, BranchEvaluatesBoundOncePerChild) {
  DistanceMatrix M = hmdnaLikeMatrix(10, 3);
  BnbEngine Engine(M, quietOptions());
  BnbStats Stats;
  std::vector<BranchedChild> Children;
  Topology T = Engine.rootTopology();
  // Walk a few levels; at every branching the bound must have run
  // exactly once per generated child, and each survivor must carry the
  // bound the engine would recompute for it.
  while (!Engine.isComplete(T)) {
    std::uint64_t GenBefore = Stats.Generated;
    std::uint64_t EvalBefore = Stats.BoundEvals;
    Engine.branch(T, Engine.initialUpperBound() + 1.0, Stats, Children);
    EXPECT_EQ(Stats.BoundEvals - EvalBefore, Stats.Generated - GenBefore);
    ASSERT_FALSE(Children.empty());
    for (const BranchedChild &BC : Children)
      EXPECT_EQ(BC.LowerBound, Engine.lowerBound(BC.Node));
    T = Children.front().Node;
  }
}

TEST(HotLoop, SolversEvaluateBoundOncePerGeneratedChild) {
  DistanceMatrix M = hardDna(13, 5);
  for (ThreeThreeMode TT :
       {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies,
        ThreeThreeMode::AllInsertions}) {
    MutResult Seq = solveMutSequential(M, quietOptions(TT));
    EXPECT_EQ(Seq.Stats.BoundEvals, Seq.Stats.Generated);
    BestFirstResult Best = solveMutBestFirst(M, quietOptions(TT));
    EXPECT_EQ(Best.Stats.BoundEvals, Best.Stats.Generated);
  }
  BnbOptions All = quietOptions();
  All.CollectAllOptimal = true;
  MutResult Seq = solveMutSequential(M, All);
  EXPECT_EQ(Seq.Stats.BoundEvals, Seq.Stats.Generated);
}

// ---------------------------------------------------------------------------
// S2: pruning attribution precedence (documented on ThreeThreeMode).
// ---------------------------------------------------------------------------

TEST(HotLoop, CheapThreeThreeRunsBeforeBoundCheck) {
  // Maxmin-ordered by construction: d(0,1) = 10 is the global maximum.
  // With an impossible upper bound every child dies; under ThirdSpecies
  // the two 3-3-rejected insertions of species 2 must be attributed to
  // the filter (it runs first), with only the 3-3-surviving child left
  // for the bound to kill.
  DistanceMatrix M(3);
  M.set(0, 1, 10.0);
  M.set(0, 2, 4.0);
  M.set(1, 2, 7.0);

  auto branchWith = [&](ThreeThreeMode TT) {
    BnbOptions Options = quietOptions(TT);
    Options.AssumeMaxminOrdered = true;
    Options.InitialUpperBound = 0.0;
    BnbEngine Engine(M, Options);
    BnbStats Stats;
    std::vector<BranchedChild> Children;
    Engine.branch(Engine.rootTopology(), 0.0, Stats, Children);
    EXPECT_TRUE(Children.empty());
    EXPECT_EQ(Stats.Generated, 3u);
    EXPECT_EQ(Stats.BoundEvals, 3u);
    return Stats;
  };

  BnbStats Third = branchWith(ThreeThreeMode::ThirdSpecies);
  EXPECT_EQ(Third.PrunedByThreeThree, 2u);
  EXPECT_EQ(Third.PrunedByBound, 1u);

  // Under AllInsertions the O(k^2) filter stays behind the bound, so the
  // same three dead children are all attributed to the bound.
  BnbStats All = branchWith(ThreeThreeMode::AllInsertions);
  EXPECT_EQ(All.PrunedByThreeThree, 0u);
  EXPECT_EQ(All.PrunedByBound, 3u);

  BnbStats None = branchWith(ThreeThreeMode::None);
  EXPECT_EQ(None.PrunedByThreeThree, 0u);
  EXPECT_EQ(None.PrunedByBound, 3u);
}

// ---------------------------------------------------------------------------
// S3a: arena reuse is invisible to the search.
// ---------------------------------------------------------------------------

TEST(HotLoop, ArenaRecyclesTopologyStorage) {
  TopologyArena Arena(8);
  EXPECT_EQ(Arena.pooled(), 0u);
  EXPECT_EQ(Arena.reuses(), 0u);
  Topology A = Arena.acquire();
  EXPECT_EQ(Arena.reuses(), 0u); // pool was dry: fresh object
  Arena.release(std::move(A));
  EXPECT_EQ(Arena.pooled(), 1u);
  Topology B = Arena.acquire();
  EXPECT_EQ(Arena.reuses(), 1u);
  EXPECT_EQ(Arena.pooled(), 0u);
  Arena.release(std::move(B));
}

TEST(HotLoop, BranchWithArenaMatchesBranchWithout) {
  DistanceMatrix M = hmdnaLikeMatrix(12, 9);
  BnbEngine Engine(M, quietOptions(ThreeThreeMode::ThirdSpecies));
  TopologyArena Arena(Engine.numSpecies());
  BnbStats StatsPlain, StatsArena;
  std::vector<BranchedChild> Plain, Pooled;
  Topology T = Engine.rootTopology();
  // Drive both variants down one best-first path; every level the
  // arena-backed expansion must produce byte-identical children, even
  // though its topologies reuse storage released at earlier levels.
  while (!Engine.isComplete(T)) {
    Engine.branch(T, Engine.initialUpperBound() + 1.0, StatsPlain, Plain);
    Engine.branch(T, Engine.initialUpperBound() + 1.0, StatsArena, Pooled,
                  &Arena);
    ASSERT_EQ(Plain.size(), Pooled.size());
    for (std::size_t I = 0; I < Plain.size(); ++I) {
      EXPECT_EQ(Plain[I].LowerBound, Pooled[I].LowerBound);
      EXPECT_EQ(Plain[I].Node.cost(), Pooled[I].Node.cost());
      EXPECT_EQ(Plain[I].Node.numPlaced(), Pooled[I].Node.numPlaced());
    }
    T = Plain.front().Node;
    // Recycle everything the arena-backed expansion produced.
    for (BranchedChild &BC : Pooled)
      Arena.release(std::move(BC.Node));
  }
  EXPECT_GT(Arena.reuses(), 0u);
}

TEST(HotLoop, RepeatedSolvesOnOneArenaAreIdentical) {
  // The sequential solver owns an arena internally; solving twice in a
  // row (fresh arena each solve) and comparing against a third solve
  // must be byte-identical — storage recycling may never leak into the
  // answer.
  DistanceMatrix M = hardDna(12, 11);
  MutResult First = solveMutSequential(M, quietOptions());
  MutResult Second = solveMutSequential(M, quietOptions());
  EXPECT_EQ(First.Cost, Second.Cost);
  EXPECT_EQ(toNewick(First.Tree), toNewick(Second.Tree));
  EXPECT_EQ(First.Stats.Branched, Second.Stats.Branched);
  EXPECT_EQ(First.Stats.Generated, Second.Stats.Generated);
  EXPECT_EQ(First.Stats.BoundEvals, Second.Stats.BoundEvals);
}

// ---------------------------------------------------------------------------
// S3b: the bitmask maxmin fast path is exactly the generic algorithm.
// ---------------------------------------------------------------------------

TEST(HotLoop, MaskMaxminMatchesGenericOnRandomMatrices) {
  for (int N : {2, 3, 5, 9, 16, 24, 40, 63, 64})
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
      EXPECT_EQ(maxminPermutation(uniformRandomMetric(N, Seed)),
                maxminPermutationGeneric(uniformRandomMetric(N, Seed)))
          << "uniform n=" << N << " seed=" << Seed;
      EXPECT_EQ(maxminPermutation(randomUltrametricMatrix(N, Seed)),
                maxminPermutationGeneric(randomUltrametricMatrix(N, Seed)))
          << "ultrametric n=" << N << " seed=" << Seed;
    }
}

TEST(HotLoop, MaskMaxminMatchesGenericUnderHeavyTies) {
  // Quantized distances force ties everywhere; both paths must resolve
  // them identically (lowest index wins on equal keys).
  for (int N : {6, 12, 20, 33, 64})
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
      DistanceMatrix M = uniformRandomMetric(N, Seed, 10.0, 14.0);
      for (int I = 0; I < N; ++I)
        for (int J = I + 1; J < N; ++J)
          M.set(I, J, std::round(M.at(I, J)));
      EXPECT_EQ(maxminPermutation(M), maxminPermutationGeneric(M))
          << "quantized n=" << N << " seed=" << Seed;
    }
}

// ---------------------------------------------------------------------------
// S3c: threaded solver statistics are deterministic.
// ---------------------------------------------------------------------------

TEST(HotLoop, ThreadedStatsIdenticalAcrossWorkerCounts) {
  // On an ultrametric matrix the UPGMM seed is already optimal, so the
  // upper bound never moves mid-search and every pruning decision is
  // schedule-independent: all counters must agree exactly no matter how
  // many workers share the search.
  for (std::uint64_t Seed : {1ull, 3ull, 9ull}) {
    DistanceMatrix M = randomUltrametricMatrix(24, Seed);
    BnbOptions Options = quietOptions(ThreeThreeMode::ThirdSpecies);
    ParallelMutResult Base = solveMutThreaded(M, 1, Options);
    for (int Workers : {2, 4}) {
      ParallelMutResult R = solveMutThreaded(M, Workers, Options);
      EXPECT_EQ(R.Cost, Base.Cost) << "workers=" << Workers;
      EXPECT_EQ(R.Stats.Branched, Base.Stats.Branched);
      EXPECT_EQ(R.Stats.Generated, Base.Stats.Generated);
      EXPECT_EQ(R.Stats.PrunedByBound, Base.Stats.PrunedByBound);
      EXPECT_EQ(R.Stats.PrunedByThreeThree, Base.Stats.PrunedByThreeThree);
      EXPECT_EQ(R.Stats.BoundEvals, Base.Stats.BoundEvals);
      EXPECT_EQ(R.Stats.UbUpdates, Base.Stats.UbUpdates);
    }
  }
}

TEST(HotLoop, ThreadedBoundEvalInvariantHoldsUnderContention) {
  // Scheduling may reshuffle who expands what, but one-bound-eval-per-
  // generated-child is a per-branching invariant: the merged totals obey
  // it for every worker count, on a search big enough to actually engage
  // the workers and their per-worker arenas.
  DistanceMatrix M = hardDna(16, 7);
  for (int Workers : {1, 2, 4}) {
    ParallelMutResult R =
        solveMutThreaded(M, Workers, quietOptions(ThreeThreeMode::ThirdSpecies));
    EXPECT_EQ(R.Stats.BoundEvals, R.Stats.Generated)
        << "workers=" << Workers;
    EXPECT_GT(R.Stats.PrunedByThreeThree, 0u);
  }
}

// ---------------------------------------------------------------------------
// Search: the deterministic engines' counters are pinned.
// ---------------------------------------------------------------------------

/// FNV-1a over \p Text: a compact stand-in for a whole Newick string.
std::uint64_t fnv1a(const std::string &Text) {
  std::uint64_t Hash = 1469598103934665603ull;
  for (char C : Text) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 1099511628211ull;
  }
  return Hash;
}

std::string formatRow(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

/// Cost bits, the six counters, completeness and the tree's Newick hash.
std::string outcomeRow(const std::string &Label, const MutResult &R) {
  return formatRow(
      "%s cost=%016llx br=%llu gen=%llu pb=%llu p33=%llu be=%llu ub=%llu "
      "done=%d nwk=%016llx",
      Label.c_str(),
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(R.Cost)),
      static_cast<unsigned long long>(R.Stats.Branched),
      static_cast<unsigned long long>(R.Stats.Generated),
      static_cast<unsigned long long>(R.Stats.PrunedByBound),
      static_cast<unsigned long long>(R.Stats.PrunedByThreeThree),
      static_cast<unsigned long long>(R.Stats.BoundEvals),
      static_cast<unsigned long long>(R.Stats.UbUpdates),
      R.Stats.Complete ? 1 : 0,
      static_cast<unsigned long long>(fnv1a(toNewick(R.Tree))));
}

/// The size of the co-optimal set and a hash of its Newick strings.
std::string optimalSetRow(const MutResult &R) {
  std::string Trees;
  for (const PhyloTree &T : R.AllOptimal)
    Trees += toNewick(T) + "\n";
  return formatRow(" opt=%zu trees=%016llx", R.AllOptimal.size(),
                   static_cast<unsigned long long>(fnv1a(Trees)));
}

std::string clusterRow(const std::string &Label, const ClusterSimResult &R) {
  std::string Row = outcomeRow(Label, R) +
                    formatRow(" makespan=%.17g seed=%.17g", R.Makespan,
                              R.SeedTime);
  for (const SimNodeStats &N : R.Nodes)
    Row += formatRow(" [%.17g %.17g %.17g %llu %llu %llu %llu]", N.BusyTime,
                     N.IdleTime, N.FinishTime,
                     static_cast<unsigned long long>(N.Branched),
                     static_cast<unsigned long long>(N.PulledFromGlobal),
                     static_cast<unsigned long long>(N.DonatedToGlobal),
                     static_cast<unsigned long long>(N.UbUpdates));
  return Row;
}

struct PinnedInstance {
  std::string Name;
  DistanceMatrix Matrix;
};

std::vector<PinnedInstance> pinnedInstances() {
  std::vector<PinnedInstance> Out;
  for (int N : {10, 11, 12, 13, 14})
    Out.push_back({"harddna-" + std::to_string(N),
                   hardDna(N, static_cast<std::uint64_t>(N) - 9)});
  for (int N : {4, 10, 12, 14})
    Out.push_back({"uniform-" + std::to_string(N),
                   uniformRandomMetric(N, static_cast<std::uint64_t>(N),
                                       1.0, 100.0)});
  // Near-equidistant species: weak bounds, the regime of the service's
  // cold exact solves.
  for (int N : {11, 12, 13})
    Out.push_back({"flat-" + std::to_string(N),
                   uniformRandomMetric(N, static_cast<std::uint64_t>(N),
                                       18.0, 20.0)});
  // Integer distances in [10, 14]: equal bounds and equal-cost trees
  // everywhere, so settle and pop order decide the counters.
  DistanceMatrix Ties = uniformRandomMetric(11, 7, 10.0, 14.0);
  for (int I = 0; I < Ties.size(); ++I)
    for (int J = I + 1; J < Ties.size(); ++J)
      Ties.set(I, J, std::round(Ties.at(I, J)));
  Out.push_back({"ties-11", std::move(Ties)});
  return Out;
}

/// Every deterministic engine on every pinned instance, one row each.
std::vector<std::string> deterministicEngineRows() {
  std::vector<std::string> Rows;
  for (const PinnedInstance &I : pinnedInstances()) {
    for (ThreeThreeMode TT :
         {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies}) {
      const std::string Tag =
          I.Name + (TT == ThreeThreeMode::None ? " none" : " third");
      BnbOptions Options = quietOptions(TT);
      Rows.push_back(outcomeRow("seq " + Tag,
                                solveMutSequential(I.Matrix, Options)));
      BestFirstResult Bf = solveMutBestFirst(I.Matrix, Options);
      Rows.push_back(outcomeRow("bf " + Tag, Bf) +
                     formatRow(" peak=%zu", Bf.PeakFrontier));
      ParallelMutResult Thr = solveMutThreaded(I.Matrix, 1, Options);
      Rows.push_back(
          outcomeRow("thr1 " + Tag, Thr) +
          formatRow(" pull=%llu don=%llu",
                    static_cast<unsigned long long>(
                        Thr.Workers[0].PulledFromGlobal),
                    static_cast<unsigned long long>(
                        Thr.Workers[0].DonatedToGlobal)));
      BnbOptions All = Options;
      All.CollectAllOptimal = true;
      MutResult Co = solveMutSequential(I.Matrix, All);
      Rows.push_back(outcomeRow("all " + Tag, Co) + optimalSetRow(Co));
      for (int P : {1, 4}) {
        ClusterSpec Spec;
        Spec.NumNodes = P;
        Rows.push_back(clusterRow("sim" + std::to_string(P) + " " + Tag,
                                  simulateClusterBnb(I.Matrix, Spec, Options)));
      }
    }
  }
  // A grid: mixed node speeds and a slow broadcast.
  ClusterSpec Grid;
  Grid.NumNodes = 4;
  Grid.NodeSpeeds = {1.0, 0.5, 2.0, 0.75};
  Grid.UbBroadcastLatency = 10.0;
  Rows.push_back(clusterRow(
      "grid4 harddna-13 third",
      simulateClusterBnb(hardDna(13, 4), Grid,
                         quietOptions(ThreeThreeMode::ThirdSpecies))));
  return Rows;
}

/// Generated by the engines before they shared one search core; any
/// change to a search's order, pruning or incumbent rule shows up here.
const char *const PinnedRows[] = {
    "seq harddna-10 none cost=406c400000000000 br=61 gen=655 pb=595"
        " p33=0 be=655 ub=0 done=1 nwk=347ab010a5657190",
    "bf harddna-10 none cost=406c400000000000 br=61 gen=655 pb=595"
        " p33=0 be=655 ub=0 done=1 nwk=347ab010a5657190 peak=11",
    "thr1 harddna-10 none cost=406c400000000000 br=61 gen=655 pb=595"
        " p33=0 be=655 ub=0 done=1 nwk=347ab010a5657190 pull=2 don=2",
    "all harddna-10 none cost=406c400000000000 br=83 gen=909 pb=826"
        " p33=0 be=909 ub=0 done=1 nwk=347ab010a5657190 opt=1"
        " trees=632658bc938d9a9e",
    "sim1 harddna-10 none cost=406c400000000000 br=61 gen=655 pb=595"
        " p33=0 be=655 ub=0 done=1 nwk=347ab010a5657190 makespan=67 seed=1"
        " [60 0 67 60 2 2 0]",
    "sim4 harddna-10 none cost=406c400000000000 br=61 gen=655 pb=595"
        " p33=0 be=655 ub=0 done=1 nwk=347ab010a5657190 makespan=23 seed=3"
        " [16 0 23 16 1 1 0] [12 6 17 12 0 0 0] [14 4 19 14 0 0 0] [16 2 21"
        " 16 0 0 0]",
    "seq harddna-10 third cost=406c400000000000 br=32 gen=350 pb=317"
        " p33=2 be=350 ub=0 done=1 nwk=347ab010a5657190",
    "bf harddna-10 third cost=406c400000000000 br=32 gen=350 pb=317"
        " p33=2 be=350 ub=0 done=1 nwk=347ab010a5657190 peak=6",
    "thr1 harddna-10 third cost=406c400000000000 br=32 gen=350 pb=317"
        " p33=2 be=350 ub=0 done=1 nwk=347ab010a5657190 pull=1 don=1",
    "all harddna-10 third cost=406c400000000000 br=44 gen=490 pb=444"
        " p33=2 be=490 ub=0 done=1 nwk=347ab010a5657190 opt=1"
        " trees=632658bc938d9a9e",
    "sim1 harddna-10 third cost=406c400000000000 br=32 gen=350 pb=317"
        " p33=2 be=350 ub=0 done=1 nwk=347ab010a5657190 makespan=36 seed=2"
        " [30 0 36 30 1 1 0]",
    "sim4 harddna-10 third cost=406c400000000000 br=32 gen=350 pb=317"
        " p33=2 be=350 ub=0 done=1 nwk=347ab010a5657190 makespan=34 seed=32"
        " [0 0 34 0 0 0 0] [0 0 34 0 0 0 0] [0 0 34 0 0 0 0] [0 0 34 0 0 0"
        " 0]",
    "seq harddna-11 none cost=406e700000000000 br=17 gen=175 pb=158"
        " p33=0 be=175 ub=1 done=1 nwk=3f9027a3cf70524a",
    "bf harddna-11 none cost=406e700000000000 br=19 gen=191 pb=172"
        " p33=0 be=191 ub=1 done=1 nwk=3f9027a3cf70524a peak=4",
    "thr1 harddna-11 none cost=406e700000000000 br=17 gen=175 pb=158"
        " p33=0 be=175 ub=1 done=1 nwk=3f9027a3cf70524a pull=1 don=1",
    "all harddna-11 none cost=406e700000000000 br=22 gen=230 pb=208"
        " p33=0 be=230 ub=1 done=1 nwk=3f9027a3cf70524a opt=1"
        " trees=72459b597bdbc2c0",
    "sim1 harddna-11 none cost=406e700000000000 br=17 gen=175 pb=158"
        " p33=0 be=175 ub=1 done=1 nwk=3f9027a3cf70524a"
        " makespan=21.050000000000001 seed=1 [16.050000000000001 0"
        " 21.050000000000001 16 1 1 1]",
    "sim4 harddna-11 none cost=406e700000000000 br=22 gen=230 pb=208"
        " p33=0 be=230 ub=1 done=1 nwk=3f9027a3cf70524a makespan=24 seed=22"
        " [0 0 24 0 0 0 0] [0 0 24 0 0 0 0] [0 0 24 0 0 0 0] [0 0 24 0 0 0"
        " 0]",
    "seq harddna-11 third cost=406e700000000000 br=14 gen=154 pb=138"
        " p33=2 be=154 ub=1 done=1 nwk=3f9027a3cf70524a",
    "bf harddna-11 third cost=406e700000000000 br=16 gen=170 pb=152"
        " p33=2 be=170 ub=1 done=1 nwk=3f9027a3cf70524a peak=3",
    "thr1 harddna-11 third cost=406e700000000000 br=14 gen=154 pb=138"
        " p33=2 be=154 ub=1 done=1 nwk=3f9027a3cf70524a pull=1 don=1",
    "all harddna-11 third cost=406e700000000000 br=19 gen=209 pb=188"
        " p33=2 be=209 ub=1 done=1 nwk=3f9027a3cf70524a opt=1"
        " trees=72459b597bdbc2c0",
    "sim1 harddna-11 third cost=406e700000000000 br=14 gen=154 pb=138"
        " p33=2 be=154 ub=1 done=1 nwk=3f9027a3cf70524a"
        " makespan=18.050000000000001 seed=2 [12.050000000000001 0"
        " 18.050000000000001 12 1 1 1]",
    "sim4 harddna-11 third cost=406e700000000000 br=19 gen=209 pb=188"
        " p33=2 be=209 ub=1 done=1 nwk=3f9027a3cf70524a makespan=21 seed=19"
        " [0 0 21 0 0 0 0] [0 0 21 0 0 0 0] [0 0 21 0 0 0 0] [0 0 21 0 0 0"
        " 0]",
    "seq harddna-12 none cost=4062400000000000 br=5 gen=35 pb=31 p33=0"
        " be=35 ub=0 done=1 nwk=02401250274c0111",
    "bf harddna-12 none cost=4062400000000000 br=5 gen=35 pb=31 p33=0"
        " be=35 ub=0 done=1 nwk=02401250274c0111 peak=1",
    "thr1 harddna-12 none cost=4062400000000000 br=5 gen=35 pb=31 p33=0"
        " be=35 ub=0 done=1 nwk=02401250274c0111 pull=0 don=0",
    "all harddna-12 none cost=4062400000000000 br=15 gen=219 pb=201"
        " p33=0 be=219 ub=0 done=1 nwk=02401250274c0111 opt=4"
        " trees=b95f920444d2b753",
    "sim1 harddna-12 none cost=4062400000000000 br=5 gen=35 pb=31 p33=0"
        " be=35 ub=0 done=1 nwk=02401250274c0111 makespan=7 seed=5 [0 0 7 0"
        " 0 0 0]",
    "sim4 harddna-12 none cost=4062400000000000 br=5 gen=35 pb=31 p33=0"
        " be=35 ub=0 done=1 nwk=02401250274c0111 makespan=7 seed=5 [0 0 7 0"
        " 0 0 0] [0 0 7 0 0 0 0] [0 0 7 0 0 0 0] [0 0 7 0 0 0 0]",
    "seq harddna-12 third cost=4062400000000000 br=5 gen=35 pb=29 p33=2"
        " be=35 ub=0 done=1 nwk=02401250274c0111",
    "bf harddna-12 third cost=4062400000000000 br=5 gen=35 pb=29 p33=2"
        " be=35 ub=0 done=1 nwk=02401250274c0111 peak=1",
    "thr1 harddna-12 third cost=4062400000000000 br=5 gen=35 pb=29"
        " p33=2 be=35 ub=0 done=1 nwk=02401250274c0111 pull=0 don=0",
    "all harddna-12 third cost=4062400000000000 br=15 gen=219 pb=199"
        " p33=2 be=219 ub=0 done=1 nwk=02401250274c0111 opt=4"
        " trees=b95f920444d2b753",
    "sim1 harddna-12 third cost=4062400000000000 br=5 gen=35 pb=29"
        " p33=2 be=35 ub=0 done=1 nwk=02401250274c0111 makespan=7 seed=5 [0"
        " 0 7 0 0 0 0]",
    "sim4 harddna-12 third cost=4062400000000000 br=5 gen=35 pb=29"
        " p33=2 be=35 ub=0 done=1 nwk=02401250274c0111 makespan=7 seed=5 [0"
        " 0 7 0 0 0 0] [0 0 7 0 0 0 0] [0 0 7 0 0 0 0] [0 0 7 0 0 0 0]",
    "seq harddna-13 none cost=4069d00000000000 br=10 gen=120 pb=111"
        " p33=0 be=120 ub=0 done=1 nwk=8557b9674f59753f",
    "bf harddna-13 none cost=4069d00000000000 br=10 gen=120 pb=111"
        " p33=0 be=120 ub=0 done=1 nwk=8557b9674f59753f peak=1",
    "thr1 harddna-13 none cost=4069d00000000000 br=10 gen=120 pb=111"
        " p33=0 be=120 ub=0 done=1 nwk=8557b9674f59753f pull=0 don=0",
    "all harddna-13 none cost=4069d00000000000 br=11 gen=143 pb=132"
        " p33=0 be=143 ub=0 done=1 nwk=8557b9674f59753f opt=1"
        " trees=fe41a36fc9a3943f",
    "sim1 harddna-13 none cost=4069d00000000000 br=10 gen=120 pb=111"
        " p33=0 be=120 ub=0 done=1 nwk=8557b9674f59753f makespan=12 seed=10"
        " [0 0 12 0 0 0 0]",
    "sim4 harddna-13 none cost=4069d00000000000 br=10 gen=120 pb=111"
        " p33=0 be=120 ub=0 done=1 nwk=8557b9674f59753f makespan=12 seed=10"
        " [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0"
        " 0]",
    "seq harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f",
    "bf harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f peak=1",
    "thr1 harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f pull=0 don=0",
    "all harddna-13 third cost=4069d00000000000 br=11 gen=143 pb=130"
        " p33=2 be=143 ub=0 done=1 nwk=8557b9674f59753f opt=1"
        " trees=fe41a36fc9a3943f",
    "sim1 harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f makespan=12 seed=10"
        " [0 0 12 0 0 0 0]",
    "sim4 harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f makespan=12 seed=10"
        " [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0"
        " 0]",
    "seq harddna-14 none cost=4073480000000000 br=158 gen=1794 pb=1636"
        " p33=0 be=1794 ub=1 done=1 nwk=ec76ec8636499fd9",
    "bf harddna-14 none cost=4073480000000000 br=158 gen=1794 pb=1636"
        " p33=0 be=1794 ub=1 done=1 nwk=0c202d8d3ada83e0 peak=114",
    "thr1 harddna-14 none cost=4073480000000000 br=158 gen=1794 pb=1636"
        " p33=0 be=1794 ub=1 done=1 nwk=ec76ec8636499fd9 pull=2 don=2",
    "all harddna-14 none cost=4073480000000000 br=226 gen=2800 pb=2573"
        " p33=0 be=2800 ub=1 done=1 nwk=ec76ec8636499fd9 opt=2"
        " trees=dc51f03e0ff2f9e8",
    "sim1 harddna-14 none cost=4073480000000000 br=158 gen=1794 pb=1636"
        " p33=0 be=1794 ub=1 done=1 nwk=ec76ec8636499fd9"
        " makespan=164.15000000000001 seed=1 [157.15000000000001 0"
        " 164.15000000000001 157 2 2 1]",
    "sim4 harddna-14 none cost=4073480000000000 br=171 gen=1999 pb=1828"
        " p33=0 be=1999 ub=1 done=1 nwk=ec76ec8636499fd9"
        " makespan=54.100000000000001 seed=3 [42.149999999999999"
        " 4.9500000000000028 52.100000000000001 42 1 2 1]"
        " [43.049999999999997 2.0500000000000043 54.100000000000001 43 2 1"
        " 0] [40.100000000000001 9 45.100000000000001 40 0 0 0]"
        " [43.100000000000001 0 54.100000000000001 43 3 3 0]",
    "seq harddna-14 third cost=4073480000000000 br=120 gen=1436 pb=1314"
        " p33=2 be=1436 ub=1 done=1 nwk=ec76ec8636499fd9",
    "bf harddna-14 third cost=4073480000000000 br=121 gen=1447 pb=1324"
        " p33=2 be=1447 ub=1 done=1 nwk=0c202d8d3ada83e0 peak=81",
    "thr1 harddna-14 third cost=4073480000000000 br=120 gen=1436"
        " pb=1314 p33=2 be=1436 ub=1 done=1 nwk=ec76ec8636499fd9 pull=1"
        " don=1",
    "all harddna-14 third cost=4073480000000000 br=174 gen=2280 pb=2103"
        " p33=2 be=2280 ub=1 done=1 nwk=ec76ec8636499fd9 opt=2"
        " trees=dc51f03e0ff2f9e8",
    "sim1 harddna-14 third cost=4073480000000000 br=120 gen=1436"
        " pb=1314 p33=2 be=1436 ub=1 done=1 nwk=ec76ec8636499fd9"
        " makespan=124.15000000000001 seed=2 [118.15000000000001 0"
        " 124.15000000000001 118 1 1 1]",
    "sim4 harddna-14 third cost=4073480000000000 br=134 gen=1658"
        " pb=1522 p33=2 be=1658 ub=1 done=1 nwk=ec76ec8636499fd9"
        " makespan=46.100000000000001 seed=3 [38.100000000000001 1"
        " 46.100000000000001 38 1 2 1] [32.049999999999997"
        " 3.0500000000000043 44.100000000000001 32 3 3 0]"
        " [24.150000000000002 10.949999999999996 35.150000000000006 24 3 1"
        " 0] [37.100000000000001 4 42.100000000000001 37 0 1 0]",
    "seq uniform-4 none cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0"
        " be=0 ub=0 done=1 nwk=1f5b2ba50cd5dae2",
    "bf uniform-4 none cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0 be=0"
        " ub=0 done=1 nwk=1f5b2ba50cd5dae2 peak=1",
    "thr1 uniform-4 none cost=405f57715a4e0e15 br=1 gen=3 pb=3 p33=0"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 pull=0 don=0",
    "all uniform-4 none cost=405f57715a4e0e15 br=2 gen=8 pb=6 p33=0"
        " be=8 ub=0 done=1 nwk=1f5b2ba50cd5dae2 opt=1"
        " trees=fde4d39b8ce31474",
    "sim1 uniform-4 none cost=405f57715a4e0e15 br=1 gen=3 pb=3 p33=0"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 makespan=3 seed=1 [0 0 3 0"
        " 0 0 0]",
    "sim4 uniform-4 none cost=405f57715a4e0e15 br=1 gen=3 pb=3 p33=0"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 makespan=3 seed=1 [0 0 3 0"
        " 0 0 0] [0 0 3 0 0 0 0] [0 0 3 0 0 0 0] [0 0 3 0 0 0 0]",
    "seq uniform-4 third cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0"
        " be=0 ub=0 done=1 nwk=1f5b2ba50cd5dae2",
    "bf uniform-4 third cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0"
        " be=0 ub=0 done=1 nwk=1f5b2ba50cd5dae2 peak=1",
    "thr1 uniform-4 third cost=405f57715a4e0e15 br=1 gen=3 pb=1 p33=2"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 pull=0 don=0",
    "all uniform-4 third cost=405f57715a4e0e15 br=2 gen=8 pb=4 p33=2"
        " be=8 ub=0 done=1 nwk=1f5b2ba50cd5dae2 opt=1"
        " trees=fde4d39b8ce31474",
    "sim1 uniform-4 third cost=405f57715a4e0e15 br=1 gen=3 pb=1 p33=2"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 makespan=3 seed=1 [0 0 3 0"
        " 0 0 0]",
    "sim4 uniform-4 third cost=405f57715a4e0e15 br=1 gen=3 pb=1 p33=2"
        " be=3 ub=0 done=1 nwk=1f5b2ba50cd5dae2 makespan=3 seed=1 [0 0 3 0"
        " 0 0 0] [0 0 3 0 0 0 0] [0 0 3 0 0 0 0] [0 0 3 0 0 0 0]",
    "seq uniform-10 none cost=4068497b20cf6eb7 br=130 gen=1604 pb=1473"
        " p33=0 be=1604 ub=2 done=1 nwk=3bcb8dc3676150ba",
    "bf uniform-10 none cost=4068497b20cf6eb7 br=82 gen=960 pb=877"
        " p33=0 be=960 ub=1 done=1 nwk=3bcb8dc3676150ba peak=46",
    "thr1 uniform-10 none cost=4068497b20cf6eb7 br=130 gen=1604 pb=1473"
        " p33=0 be=1604 ub=2 done=1 nwk=3bcb8dc3676150ba pull=1 don=1",
    "all uniform-10 none cost=4068497b20cf6eb7 br=130 gen=1604 pb=1473"
        " p33=0 be=1604 ub=2 done=1 nwk=3bcb8dc3676150ba opt=1"
        " trees=fc329308aa5c1b10",
    "sim1 uniform-10 none cost=4068497b20cf6eb7 br=130 gen=1604 pb=1473"
        " p33=0 be=1604 ub=2 done=1 nwk=3bcb8dc3676150ba"
        " makespan=134.34999999999997 seed=1 [129.34999999999997 0"
        " 134.34999999999997 129 1 1 2]",
    "sim4 uniform-10 none cost=4068497b20cf6eb7 br=178 gen=2208 pb=2029"
        " p33=0 be=2208 ub=2 done=1 nwk=3bcb8dc3676150ba"
        " makespan=59.099999999999994 seed=3 [51.099999999999994 3"
        " 56.099999999999994 51 0 3 1] [47.149999999999991"
        " 4.9500000000000028 56.099999999999994 47 1 2 1]"
        " [46.049999999999997 2.0499999999999972 59.099999999999994 46 3 1"
        " 0] [31.050000000000001 17.049999999999997 46.049999999999997 31 3"
        " 1 0]",
    "seq uniform-10 third cost=40689ad6514a2db6 br=64 gen=782 pb=716"
        " p33=2 be=782 ub=1 done=1 nwk=938bcd7417aee1c7",
    "bf uniform-10 third cost=40689ad6514a2db6 br=60 gen=718 pb=656"
        " p33=2 be=718 ub=1 done=1 nwk=938bcd7417aee1c7 peak=23",
    "thr1 uniform-10 third cost=40689ad6514a2db6 br=64 gen=782 pb=716"
        " p33=2 be=782 ub=1 done=1 nwk=938bcd7417aee1c7 pull=1 don=1",
    "all uniform-10 third cost=40689ad6514a2db6 br=64 gen=782 pb=716"
        " p33=2 be=782 ub=1 done=1 nwk=938bcd7417aee1c7 opt=1"
        " trees=656fe9443e29af57",
    "sim1 uniform-10 third cost=40689ad6514a2db6 br=64 gen=782 pb=716"
        " p33=2 be=782 ub=1 done=1 nwk=938bcd7417aee1c7"
        " makespan=68.149999999999991 seed=2 [62.149999999999991 0"
        " 68.149999999999991 62 1 1 1]",
    "sim4 uniform-10 third cost=40689ad6514a2db6 br=70 gen=858 pb=786"
        " p33=2 be=858 ub=1 done=1 nwk=938bcd7417aee1c7"
        " makespan=29.050000000000001 seed=4 [20.050000000000001 1"
        " 29.050000000000001 20 1 2 0] [19.100000000000001"
        " 3.9499999999999993 25.100000000000001 19 0 0 1]"
        " [15.050000000000001 4 26.050000000000001 15 2 1 0]"
        " [12.050000000000001 11 18.050000000000001 12 0 0 0]",
    "seq uniform-12 none cost=40622948287f413d br=94 gen=972 pb=879"
        " p33=0 be=972 ub=0 done=1 nwk=4ab59895bb36cee9",
    "bf uniform-12 none cost=40622948287f413d br=94 gen=972 pb=879"
        " p33=0 be=972 ub=0 done=1 nwk=4ab59895bb36cee9 peak=26",
    "thr1 uniform-12 none cost=40622948287f413d br=94 gen=972 pb=879"
        " p33=0 be=972 ub=0 done=1 nwk=4ab59895bb36cee9 pull=3 don=3",
    "all uniform-12 none cost=40622948287f413d br=97 gen=1029 pb=932"
        " p33=0 be=1029 ub=0 done=1 nwk=4ab59895bb36cee9 opt=1"
        " trees=a227ae44af3fed31",
    "sim1 uniform-12 none cost=40622948287f413d br=94 gen=972 pb=879"
        " p33=0 be=972 ub=0 done=1 nwk=4ab59895bb36cee9 makespan=102 seed=1"
        " [93 0 102 93 3 3 0]",
    "sim4 uniform-12 none cost=40622948287f413d br=94 gen=972 pb=879"
        " p33=0 be=972 ub=0 done=1 nwk=4ab59895bb36cee9 makespan=33 seed=5"
        " [21 3 30 21 1 2 0] [22 4 29 22 0 0 0] [26 0 33 26 0 0 0] [20 4 31"
        " 20 1 0 0]",
    "seq uniform-12 third cost=40622948287f413d br=51 gen=543 pb=491"
        " p33=2 be=543 ub=0 done=1 nwk=4ab59895bb36cee9",
    "bf uniform-12 third cost=40622948287f413d br=51 gen=543 pb=491"
        " p33=2 be=543 ub=0 done=1 nwk=4ab59895bb36cee9 peak=17",
    "thr1 uniform-12 third cost=40622948287f413d br=51 gen=543 pb=491"
        " p33=2 be=543 ub=0 done=1 nwk=4ab59895bb36cee9 pull=2 don=2",
    "all uniform-12 third cost=40622948287f413d br=54 gen=600 pb=544"
        " p33=2 be=600 ub=0 done=1 nwk=4ab59895bb36cee9 opt=1"
        " trees=a227ae44af3fed31",
    "sim1 uniform-12 third cost=40622948287f413d br=51 gen=543 pb=491"
        " p33=2 be=543 ub=0 done=1 nwk=4ab59895bb36cee9 makespan=57 seed=2"
        " [49 0 57 49 2 2 0]",
    "sim4 uniform-12 third cost=40622948287f413d br=51 gen=543 pb=491"
        " p33=2 be=543 ub=0 done=1 nwk=4ab59895bb36cee9 makespan=23 seed=4"
        " [16 1 22 16 0 2 0] [11 2 23 11 2 0 0] [12 5 18 12 0 1 0] [8 7 16"
        " 8 1 0 0]",
    "seq uniform-14 none cost=4066af72d2b70ba4 br=673 gen=9931 pb=9253"
        " p33=0 be=9931 ub=6 done=1 nwk=fa5d0ea4d7673e76",
    "bf uniform-14 none cost=4066af72d2b70ba4 br=553 gen=8113 pb=7555"
        " p33=0 be=8113 ub=2 done=1 nwk=fa5d0ea4d7673e76 peak=502",
    "thr1 uniform-14 none cost=4066af72d2b70ba4 br=673 gen=9931 pb=9253"
        " p33=0 be=9931 ub=6 done=1 nwk=fa5d0ea4d7673e76 pull=2 don=2",
    "all uniform-14 none cost=4066af72d2b70ba4 br=673 gen=9931 pb=9253"
        " p33=0 be=9931 ub=6 done=1 nwk=fa5d0ea4d7673e76 opt=1"
        " trees=d35e5e1a046f2cb4",
    "sim1 uniform-14 none cost=4066af72d2b70ba4 br=673 gen=9931 pb=9253"
        " p33=0 be=9931 ub=6 done=1 nwk=fa5d0ea4d7673e76"
        " makespan=679.65000000000009 seed=1 [672.65000000000009 0"
        " 679.65000000000009 672 2 2 6]",
    "sim4 uniform-14 none cost=4066af72d2b70ba4 br=573 gen=8519 pb=7940"
        " p33=0 be=8519 ub=6 done=1 nwk=fa5d0ea4d7673e76"
        " makespan=195.55000000000001 seed=3 [176.55000000000001 4"
        " 195.55000000000001 176 5 13 6] [173.09999999999999"
        " 7.4500000000000171 194.55000000000001 173 5 12 0] [119.5"
        " 35.050000000000011 188.55000000000001 119 18 6 0] [102.25"
        " 76.300000000000011 160.55000000000001 102 6 3 1]",
    "seq uniform-14 third cost=40670c600d31fe3b br=262 gen=3794 pb=3531"
        " p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102",
    "bf uniform-14 third cost=40670c600d31fe3b br=262 gen=3794 pb=3531"
        " p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102 peak=108",
    "thr1 uniform-14 third cost=40670c600d31fe3b br=262 gen=3794"
        " pb=3531 p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102 pull=1"
        " don=1",
    "all uniform-14 third cost=40670c600d31fe3b br=262 gen=3794 pb=3531"
        " p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102 opt=1"
        " trees=46026137fc681098",
    "sim1 uniform-14 third cost=40670c600d31fe3b br=262 gen=3794"
        " pb=3531 p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102"
        " makespan=266 seed=2 [260 0 266 260 1 1 0]",
    "sim4 uniform-14 third cost=40670c600d31fe3b br=262 gen=3794"
        " pb=3531 p33=2 be=3794 ub=0 done=1 nwk=0caf1eceb1b87102"
        " makespan=98 seed=4 [92 0 98 92 0 6 0] [57 11 97 57 12 5 0] [64 16"
        " 96 64 6 6 0] [45 39 82 45 4 5 0]",
    "seq flat-11 none cost=4059fd8f0c440a9f br=2009 gen=29321 pb=27297"
        " p33=0 be=29321 ub=16 done=1 nwk=4eeca9adea8bc187",
    "bf flat-11 none cost=4059fd8f0c440a9f br=1468 gen=20264 pb=18782"
        " p33=0 be=20264 ub=3 done=1 nwk=4eeca9adea8bc187 peak=7539",
    "thr1 flat-11 none cost=4059fd8f0c440a9f br=2009 gen=29321 pb=27297"
        " p33=0 be=29321 ub=16 done=1 nwk=4eeca9adea8bc187 pull=3 don=3",
    "all flat-11 none cost=4059fd8f0c440a9f br=2009 gen=29321 pb=27297"
        " p33=0 be=29321 ub=16 done=1 nwk=4eeca9adea8bc187 opt=1"
        " trees=a7e5df858b79e297",
    "sim1 flat-11 none cost=4059fd8f0c440a9f br=2009 gen=29321 pb=27297"
        " p33=0 be=29321 ub=16 done=1 nwk=4eeca9adea8bc187"
        " makespan=2018.7499999999995 seed=1 [2009.7499999999995 0"
        " 2018.7499999999995 2008 3 3 16]",
    "sim4 flat-11 none cost=4059fd8f0c440a9f br=1880 gen=26952 pb=25038"
        " p33=0 be=26952 ub=14 done=1 nwk=4eeca9adea8bc187"
        " makespan=496.15000000000003 seed=3 [487.15000000000003 4"
        " 492.15000000000003 486 0 10 10] [487.05000000000013"
        " 4.0999999999999091 492.05000000000013 485 0 3 7]"
        " [472.90000000000003 4.25 496.15000000000003 471 7 4 8]"
        " [436.95000000000005 14.199999999999989 490.15000000000003 435 20"
        " 10 10]",
    "seq flat-11 third cost=4059fd8f0c440a9f br=1155 gen=17589 pb=16417"
        " p33=2 be=17589 ub=16 done=1 nwk=4eeca9adea8bc187",
    "bf flat-11 third cost=4059fd8f0c440a9f br=614 gen=8532 pb=7902"
        " p33=2 be=8532 ub=3 done=1 nwk=4eeca9adea8bc187 peak=3429",
    "thr1 flat-11 third cost=4059fd8f0c440a9f br=1155 gen=17589"
        " pb=16417 p33=2 be=17589 ub=16 done=1 nwk=4eeca9adea8bc187 pull=4"
        " don=4",
    "all flat-11 third cost=4059fd8f0c440a9f br=1155 gen=17589 pb=16417"
        " p33=2 be=17589 ub=16 done=1 nwk=4eeca9adea8bc187 opt=1"
        " trees=a7e5df858b79e297",
    "sim1 flat-11 third cost=4059fd8f0c440a9f br=1155 gen=17589"
        " pb=16417 p33=2 be=17589 ub=16 done=1 nwk=4eeca9adea8bc187"
        " makespan=1166.7499999999995 seed=2 [1154.7499999999995 0"
        " 1166.7499999999995 1153 4 4 16]",
    "sim4 flat-11 third cost=4059fd8f0c440a9f br=1249 gen=19009"
        " pb=17720 p33=2 be=19009 ub=14 done=1 nwk=4eeca9adea8bc187"
        " makespan=329.25 seed=3 [320.2000000000001 2.0499999999998977"
        " 329.25 318 1 2 7] [317.25 5 327.25 316 1 1 12]"
        " [305.75000000000006 10.5 318.75 304 4 1 9] [309.90000000000003"
        " 4.3499999999999659 326.25 308 5 7 11]",
    "seq flat-12 none cost=405c5cdb3a69478b br=1250 gen=17866 pb=16614"
        " p33=0 be=17866 ub=3 done=1 nwk=83801e0cc55fa25e",
    "bf flat-12 none cost=405c5cdb3a69478b br=1249 gen=17845 pb=16595"
        " p33=0 be=17845 ub=2 done=1 nwk=83801e0cc55fa25e peak=1888",
    "thr1 flat-12 none cost=405c5cdb3a69478b br=1250 gen=17866 pb=16614"
        " p33=0 be=17866 ub=3 done=1 nwk=83801e0cc55fa25e pull=4 don=4",
    "all flat-12 none cost=405c5cdb3a69478b br=1250 gen=17866 pb=16614"
        " p33=0 be=17866 ub=3 done=1 nwk=83801e0cc55fa25e opt=1"
        " trees=d25563b36180d4bc",
    "sim1 flat-12 none cost=405c5cdb3a69478b br=1250 gen=17866 pb=16614"
        " p33=0 be=17866 ub=3 done=1 nwk=83801e0cc55fa25e makespan=1260.8"
        " seed=1 [1249.8 0 1260.8 1249 4 4 3]",
    "sim4 flat-12 none cost=405c5cdb3a69478b br=1264 gen=18146 pb=16874"
        " p33=0 be=18146 ub=3 done=1 nwk=83801e0cc55fa25e"
        " makespan=338.94999999999999 seed=3 [327.80000000000001"
        " 2.1499999999999773 336.94999999999999 327 2 4 3]"
        " [317.89999999999998 6.0500000000000114 336.94999999999999 317 5 5"
        " 2] [316.94999999999999 13 338.94999999999999 316 2 2 2] [302.25"
        " 13.699999999999989 329.94999999999999 301 9 7 2]",
    "seq flat-12 third cost=405c5cdb3a69478b br=614 gen=8962 pb=8344"
        " p33=2 be=8962 ub=3 done=1 nwk=83801e0cc55fa25e",
    "bf flat-12 third cost=405c5cdb3a69478b br=613 gen=8941 pb=8325"
        " p33=2 be=8941 ub=2 done=1 nwk=83801e0cc55fa25e peak=974",
    "thr1 flat-12 third cost=405c5cdb3a69478b br=614 gen=8962 pb=8344"
        " p33=2 be=8962 ub=3 done=1 nwk=83801e0cc55fa25e pull=3 don=3",
    "all flat-12 third cost=405c5cdb3a69478b br=614 gen=8962 pb=8344"
        " p33=2 be=8962 ub=3 done=1 nwk=83801e0cc55fa25e opt=1"
        " trees=d25563b36180d4bc",
    "sim1 flat-12 third cost=405c5cdb3a69478b br=614 gen=8962 pb=8344"
        " p33=2 be=8962 ub=3 done=1 nwk=83801e0cc55fa25e"
        " makespan=622.79999999999995 seed=2 [612.79999999999995 0"
        " 622.79999999999995 612 3 3 3]",
    "sim4 flat-12 third cost=405c5cdb3a69478b br=625 gen=9177 pb=8544"
        " p33=2 be=9177 ub=3 done=1 nwk=83801e0cc55fa25e makespan=177.75"
        " seed=3 [164.80000000000001 1.9499999999999886 177.75 164 3 4 3]"
        " [153.29999999999998 9.4500000000000171 174.75 152 5 1 2]"
        " [165.54999999999995 5.2000000000000455 174.75 165 1 7 0]"
        " [142.14999999999998 18.600000000000023 175.75 141 6 3 2]",
    "seq flat-13 none cost=405e92bd9606c9c8 br=1850 gen=27094 pb=25241"
        " p33=0 be=27094 ub=4 done=1 nwk=bfddc29d0f5508b5",
    "bf flat-13 none cost=405e92bd9606c9c8 br=1773 gen=25733 pb=23957"
        " p33=0 be=25733 ub=1 done=1 nwk=bfddc29d0f5508b5 peak=3383",
    "thr1 flat-13 none cost=405e92bd9606c9c8 br=1850 gen=27094 pb=25241"
        " p33=0 be=27094 ub=4 done=1 nwk=bfddc29d0f5508b5 pull=5 don=5",
    "all flat-13 none cost=405e92bd9606c9c8 br=1850 gen=27094 pb=25241"
        " p33=0 be=27094 ub=4 done=1 nwk=bfddc29d0f5508b5 opt=1"
        " trees=5ada6fe10d7ddc8d",
    "sim1 flat-13 none cost=405e92bd9606c9c8 br=1850 gen=27094 pb=25241"
        " p33=0 be=27094 ub=4 done=1 nwk=bfddc29d0f5508b5"
        " makespan=1863.1500000000001 seed=1 [1850.1500000000001 0"
        " 1863.1500000000001 1849 5 5 4]",
    "sim4 flat-13 none cost=405e92bd9606c9c8 br=2067 gen=30759 pb=28689"
        " p33=0 be=30759 ub=4 done=1 nwk=bfddc29d0f5508b5"
        " makespan=557.1500000000002 seed=3 [529.15000000000009 9"
        " 557.1500000000002 528 7 9 4] [507.75000000000011"
        " 24.400000000000091 557.1500000000002 507 10 9 0]"
        " [532.54999999999995 3.6000000000001364 557.1500000000002 532 8 9"
        " 0] [497.70000000000005 40.450000000000102 547.1500000000002 497 7"
        " 5 0]",
    "seq flat-13 third cost=405e92bd9606c9c8 br=779 gen=11741 pb=10957"
        " p33=2 be=11741 ub=4 done=1 nwk=bfddc29d0f5508b5",
    "bf flat-13 third cost=405e92bd9606c9c8 br=702 gen=10380 pb=9673"
        " p33=2 be=10380 ub=1 done=1 nwk=bfddc29d0f5508b5 peak=1377",
    "thr1 flat-13 third cost=405e92bd9606c9c8 br=779 gen=11741 pb=10957"
        " p33=2 be=11741 ub=4 done=1 nwk=bfddc29d0f5508b5 pull=4 don=4",
    "all flat-13 third cost=405e92bd9606c9c8 br=779 gen=11741 pb=10957"
        " p33=2 be=11741 ub=4 done=1 nwk=bfddc29d0f5508b5 opt=1"
        " trees=5ada6fe10d7ddc8d",
    "sim1 flat-13 third cost=405e92bd9606c9c8 br=779 gen=11741 pb=10957"
        " p33=2 be=11741 ub=4 done=1 nwk=bfddc29d0f5508b5"
        " makespan=790.1500000000002 seed=2 [778.15000000000009 0"
        " 790.1500000000002 777 4 4 4]",
    "sim4 flat-13 third cost=405e92bd9606c9c8 br=993 gen=15377 pb=14379"
        " p33=2 be=15377 ub=4 done=1 nwk=bfddc29d0f5508b5"
        " makespan=272.1500000000002 seed=3 [267.15000000000015 0"
        " 272.1500000000002 266 0 5 4] [243.80000000000007"
        " 9.3500000000000796 272.1500000000002 243 7 5 0]"
        " [240.85000000000014 16.30000000000004 270.1500000000002 240 5 5"
        " 0] [241.75000000000006 15.400000000000148 268.1500000000002 241 5"
        " 2 0]",
    "seq ties-11 none cost=4050a00000000000 br=3166 gen=50994 pb=47827"
        " p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6",
    "bf ties-11 none cost=4050a00000000000 br=3163 gen=50937 pb=47771"
        " p33=0 be=50937 ub=2 done=1 nwk=0f32e4a0e6eb6610 peak=1229",
    "thr1 ties-11 none cost=4050a00000000000 br=3166 gen=50994 pb=47827"
        " p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6 pull=4 don=4",
    "all ties-11 none cost=4050a00000000000 br=17231 gen=290791"
        " pb=273018 p33=0 be=290791 ub=2 done=1 nwk=8e00352e126eb5c6"
        " opt=534 trees=f55f43ff17281d39",
    "sim1 ties-11 none cost=4050a00000000000 br=3166 gen=50994 pb=47827"
        " p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6"
        " makespan=3177.1999999999998 seed=1 [3166.1999999999998 0"
        " 3177.1999999999998 3165 4 4 2]",
    "sim4 ties-11 none cost=4050a00000000000 br=3178 gen=51222 pb=48036"
        " p33=0 be=51222 ub=2 done=1 nwk=c20e1431cfcf586c"
        " makespan=823.20000000000005 seed=3 [788.20000000000005 8"
        " 820.20000000000005 787 11 13 2] [808.20000000000005 6"
        " 819.20000000000005 807 2 6 2] [812.20000000000005 4"
        " 823.20000000000005 811 1 1 2] [771.84999999999991"
        " 2.3500000000001364 822.20000000000005 770 22 16 2]",
    "seq ties-11 third cost=4050a00000000000 br=3166 gen=50994 pb=47827"
        " p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6",
    "bf ties-11 third cost=4050a00000000000 br=3163 gen=50937 pb=47771"
        " p33=0 be=50937 ub=2 done=1 nwk=0f32e4a0e6eb6610 peak=1229",
    "thr1 ties-11 third cost=4050a00000000000 br=3166 gen=50994"
        " pb=47827 p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6 pull=4"
        " don=4",
    "all ties-11 third cost=4050a00000000000 br=17231 gen=290791"
        " pb=273018 p33=0 be=290791 ub=2 done=1 nwk=8e00352e126eb5c6"
        " opt=534 trees=f55f43ff17281d39",
    "sim1 ties-11 third cost=4050a00000000000 br=3166 gen=50994"
        " pb=47827 p33=0 be=50994 ub=2 done=1 nwk=8e00352e126eb5c6"
        " makespan=3177.1999999999998 seed=1 [3166.1999999999998 0"
        " 3177.1999999999998 3165 4 4 2]",
    "sim4 ties-11 third cost=4050a00000000000 br=3178 gen=51222"
        " pb=48036 p33=0 be=51222 ub=2 done=1 nwk=c20e1431cfcf586c"
        " makespan=823.20000000000005 seed=3 [788.20000000000005 8"
        " 820.20000000000005 787 11 13 2] [808.20000000000005 6"
        " 819.20000000000005 807 2 6 2] [812.20000000000005 4"
        " 823.20000000000005 811 1 1 2] [771.84999999999991"
        " 2.3500000000001364 822.20000000000005 770 22 16 2]",
    "grid4 harddna-13 third cost=4069d00000000000 br=10 gen=120 pb=109"
        " p33=2 be=120 ub=0 done=1 nwk=8557b9674f59753f makespan=12 seed=10"
        " [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0 0] [0 0 12 0 0 0"
        " 0]",
};

TEST(Search, DeterministicEnginesMatchPinnedCounters) {
  std::vector<std::string> Rows = deterministicEngineRows();
  ASSERT_EQ(Rows.size(), std::size(PinnedRows));
  for (std::size_t I = 0; I < Rows.size(); ++I)
    EXPECT_EQ(Rows[I], PinnedRows[I]);
}

/// The sequential and best-first engines under `AllInsertions`, with and
/// without `CollectAllOptimal`: the mode whose 3-3 filter runs after the
/// bound, on the children that survive it.
std::vector<std::string> allInsertionsEngineRows() {
  std::vector<std::string> Rows;
  for (const PinnedInstance &I : pinnedInstances()) {
    const std::string Tag = I.Name + " every";
    BnbOptions Options = quietOptions(ThreeThreeMode::AllInsertions);
    Rows.push_back(
        outcomeRow("seq " + Tag, solveMutSequential(I.Matrix, Options)));
    BestFirstResult Bf = solveMutBestFirst(I.Matrix, Options);
    Rows.push_back(outcomeRow("bf " + Tag, Bf) +
                   formatRow(" peak=%zu", Bf.PeakFrontier));
    Options.CollectAllOptimal = true;
    MutResult Co = solveMutSequential(I.Matrix, Options);
    Rows.push_back(outcomeRow("all " + Tag, Co) + optimalSetRow(Co));
    BestFirstResult BfCo = solveMutBestFirst(I.Matrix, Options);
    Rows.push_back(outcomeRow("bfall " + Tag, BfCo) +
                   formatRow(" peak=%zu", BfCo.PeakFrontier) +
                   optimalSetRow(BfCo));
  }
  return Rows;
}

/// Generated at the commit that added them, before children were priced
/// without being built.
const char *const AllInsertionsPinnedRows[] = {
    "seq harddna-10 every cost=406c400000000000 br=3 gen=15 pb=6 p33=7"
        " be=15 ub=0 done=1 nwk=347ab010a5657190",
    "bf harddna-10 every cost=406c400000000000 br=3 gen=15 pb=6 p33=7"
        " be=15 ub=0 done=1 nwk=347ab010a5657190 peak=1",
    "all harddna-10 every cost=406c400000000000 br=3 gen=15 pb=4 p33=9"
        " be=15 ub=0 done=1 nwk=347ab010a5657190 opt=1 trees=91eac6490b6008ae",
    "bfall harddna-10 every cost=406c400000000000 br=3 gen=15 pb=4"
        " p33=9 be=15 ub=0 done=1 nwk=347ab010a5657190 peak=1 opt=1"
        " trees=91eac6490b6008ae",
    "seq harddna-11 every cost=406e800000000000 br=2 gen=8 pb=3 p33=4"
        " be=8 ub=0 done=1 nwk=16e11c1c0d45add6",
    "bf harddna-11 every cost=406e800000000000 br=2 gen=8 pb=3 p33=4"
        " be=8 ub=0 done=1 nwk=16e11c1c0d45add6 peak=1",
    "all harddna-11 every cost=406e800000000000 br=2 gen=8 pb=3 p33=4"
        " be=8 ub=0 done=1 nwk=16e11c1c0d45add6 opt=1 trees=26309faa8d666cd4",
    "bfall harddna-11 every cost=406e800000000000 br=2 gen=8 pb=3 p33=4"
        " be=8 ub=0 done=1 nwk=16e11c1c0d45add6 peak=1 opt=1"
        " trees=26309faa8d666cd4",
    "seq harddna-12 every cost=4062400000000000 br=3 gen=15 pb=12 p33=1"
        " be=15 ub=0 done=1 nwk=02401250274c0111",
    "bf harddna-12 every cost=4062400000000000 br=3 gen=15 pb=12 p33=1"
        " be=15 ub=0 done=1 nwk=02401250274c0111 peak=1",
    "all harddna-12 every cost=4062400000000000 br=3 gen=15 pb=12 p33=1"
        " be=15 ub=0 done=1 nwk=02401250274c0111 opt=1 trees=1ee03932c625e0e1",
    "bfall harddna-12 every cost=4062400000000000 br=3 gen=15 pb=12"
        " p33=1 be=15 ub=0 done=1 nwk=02401250274c0111 peak=1 opt=1"
        " trees=1ee03932c625e0e1",
    "seq harddna-13 every cost=4069d00000000000 br=8 gen=80 pb=72 p33=1"
        " be=80 ub=0 done=1 nwk=8557b9674f59753f",
    "bf harddna-13 every cost=4069d00000000000 br=8 gen=80 pb=72 p33=1"
        " be=80 ub=0 done=1 nwk=8557b9674f59753f peak=1",
    "all harddna-13 every cost=4069d00000000000 br=8 gen=80 pb=72 p33=1"
        " be=80 ub=0 done=1 nwk=8557b9674f59753f opt=1 trees=ed853f8bd502290f",
    "bfall harddna-13 every cost=4069d00000000000 br=8 gen=80 pb=72"
        " p33=1 be=80 ub=0 done=1 nwk=8557b9674f59753f peak=1 opt=1"
        " trees=ed853f8bd502290f",
    "seq harddna-14 every cost=4073580000000000 br=4 gen=24 pb=4 p33=17"
        " be=24 ub=0 done=1 nwk=1a510ece7f7a924d",
    "bf harddna-14 every cost=4073580000000000 br=4 gen=24 pb=4 p33=17"
        " be=24 ub=0 done=1 nwk=1a510ece7f7a924d peak=1",
    "all harddna-14 every cost=4073580000000000 br=4 gen=24 pb=3 p33=18"
        " be=24 ub=0 done=1 nwk=1a510ece7f7a924d opt=1 trees=324e6fe29d468ea5",
    "bfall harddna-14 every cost=4073580000000000 br=4 gen=24 pb=3"
        " p33=18 be=24 ub=0 done=1 nwk=1a510ece7f7a924d peak=1 opt=1"
        " trees=324e6fe29d468ea5",
    "seq uniform-4 every cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0"
        " be=0 ub=0 done=1 nwk=1f5b2ba50cd5dae2",
    "bf uniform-4 every cost=405f57715a4e0e15 br=0 gen=0 pb=1 p33=0"
        " be=0 ub=0 done=1 nwk=1f5b2ba50cd5dae2 peak=1",
    "all uniform-4 every cost=405f57715a4e0e15 br=2 gen=8 pb=6 p33=0"
        " be=8 ub=0 done=1 nwk=1f5b2ba50cd5dae2 opt=1 trees=fde4d39b8ce31474",
    "bfall uniform-4 every cost=405f57715a4e0e15 br=2 gen=8 pb=6 p33=0"
        " be=8 ub=0 done=1 nwk=1f5b2ba50cd5dae2 peak=1 opt=1"
        " trees=fde4d39b8ce31474",
    "seq uniform-10 every cost=4068be83e2ebd9c5 br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=bacfa85a80cdca87",
    "bf uniform-10 every cost=4068be83e2ebd9c5 br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=bacfa85a80cdca87 peak=1",
    "all uniform-10 every cost=4068be83e2ebd9c5 br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=bacfa85a80cdca87 opt=1 trees=3ca59ec8ddaf2d97",
    "bfall uniform-10 every cost=4068be83e2ebd9c5 br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=bacfa85a80cdca87 peak=1 opt=1"
        " trees=3ca59ec8ddaf2d97",
    "seq uniform-12 every cost=40622948287f413d br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=4ab59895bb36cee9",
    "bf uniform-12 every cost=40622948287f413d br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=4ab59895bb36cee9 peak=1",
    "all uniform-12 every cost=40622948287f413d br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=4ab59895bb36cee9 opt=1 trees=2961296d1e218bb9",
    "bfall uniform-12 every cost=40622948287f413d br=2 gen=8 pb=2 p33=5"
        " be=8 ub=0 done=1 nwk=4ab59895bb36cee9 peak=1 opt=1"
        " trees=2961296d1e218bb9",
    "seq uniform-14 every cost=40670c600d31fe3b br=2 gen=8 pb=1 p33=6"
        " be=8 ub=0 done=1 nwk=0caf1eceb1b87102",
    "bf uniform-14 every cost=40670c600d31fe3b br=2 gen=8 pb=1 p33=6"
        " be=8 ub=0 done=1 nwk=0caf1eceb1b87102 peak=1",
    "all uniform-14 every cost=40670c600d31fe3b br=2 gen=8 pb=1 p33=6"
        " be=8 ub=0 done=1 nwk=0caf1eceb1b87102 opt=1 trees=46026137fc681098",
    "bfall uniform-14 every cost=40670c600d31fe3b br=2 gen=8 pb=1 p33=6"
        " be=8 ub=0 done=1 nwk=0caf1eceb1b87102 peak=1 opt=1"
        " trees=46026137fc681098",
    "seq flat-11 every cost=405a3bfb813c7056 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=4a95d4f5995a33c6",
    "bf flat-11 every cost=405a3bfb813c7056 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=4a95d4f5995a33c6 peak=1",
    "all flat-11 every cost=405a3bfb813c7056 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=4a95d4f5995a33c6 opt=1 trees=16cca953944603a4",
    "bfall flat-11 every cost=405a3bfb813c7056 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=4a95d4f5995a33c6 peak=1 opt=1"
        " trees=16cca953944603a4",
    "seq flat-12 every cost=405c6cc275589b74 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=53485222faed039a",
    "bf flat-12 every cost=405c6cc275589b74 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=53485222faed039a peak=1",
    "all flat-12 every cost=405c6cc275589b74 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=53485222faed039a opt=1 trees=70e7217060bd0db0",
    "bfall flat-12 every cost=405c6cc275589b74 br=3 gen=15 pb=0 p33=13"
        " be=15 ub=0 done=1 nwk=53485222faed039a peak=1 opt=1"
        " trees=70e7217060bd0db0",
    "seq flat-13 every cost=405ea5219c81a1fe br=2 gen=8 pb=0 p33=7 be=8"
        " ub=0 done=1 nwk=7c404c30d237789d",
    "bf flat-13 every cost=405ea5219c81a1fe br=2 gen=8 pb=0 p33=7 be=8"
        " ub=0 done=1 nwk=7c404c30d237789d peak=1",
    "all flat-13 every cost=405ea5219c81a1fe br=2 gen=8 pb=0 p33=7 be=8"
        " ub=0 done=1 nwk=7c404c30d237789d opt=1 trees=58ba0df53441e895",
    "bfall flat-13 every cost=405ea5219c81a1fe br=2 gen=8 pb=0 p33=7"
        " be=8 ub=0 done=1 nwk=7c404c30d237789d peak=1 opt=1"
        " trees=58ba0df53441e895",
    "seq ties-11 every cost=4050e00000000000 br=7 gen=39 pb=0 p33=33"
        " be=39 ub=0 done=1 nwk=f02911c98839d586",
    "bf ties-11 every cost=4050e00000000000 br=7 gen=39 pb=0 p33=33"
        " be=39 ub=0 done=1 nwk=f02911c98839d586 peak=3",
    "all ties-11 every cost=4050e00000000000 br=7 gen=39 pb=0 p33=33"
        " be=39 ub=0 done=1 nwk=f02911c98839d586 opt=1 trees=4f9ec5727a45dce4",
    "bfall ties-11 every cost=4050e00000000000 br=7 gen=39 pb=0 p33=33"
        " be=39 ub=0 done=1 nwk=f02911c98839d586 peak=3 opt=1"
        " trees=4f9ec5727a45dce4",
};

TEST(Search, AllInsertionsEnginesMatchPinnedCounters) {
  std::vector<std::string> Rows = allInsertionsEngineRows();
  ASSERT_EQ(Rows.size(), std::size(AllInsertionsPinnedRows));
  for (std::size_t I = 0; I < Rows.size(); ++I)
    EXPECT_EQ(Rows[I], AllInsertionsPinnedRows[I]);
}

// ---------------------------------------------------------------------------
// S4: children are priced from their parent before any is built.
// ---------------------------------------------------------------------------

std::uint64_t bits(double Value) {
  return std::bit_cast<std::uint64_t>(Value);
}

/// Random, near-equidistant and tie-heavy matrices, two degenerate ones
/// (all equal; all zero, some entries -0.0) and one at the 64-species
/// width of the leaf masks.
std::vector<PinnedInstance> pricingInstances() {
  std::vector<PinnedInstance> Out;
  Out.push_back({"uniform-12", uniformRandomMetric(12, 3, 1.0, 100.0)});
  Out.push_back({"flat-12", uniformRandomMetric(12, 5, 18.0, 20.0)});
  DistanceMatrix Ties = uniformRandomMetric(12, 7, 10.0, 14.0);
  for (int I = 0; I < Ties.size(); ++I)
    for (int J = I + 1; J < Ties.size(); ++J)
      Ties.set(I, J, std::round(Ties.at(I, J)));
  DistanceMatrix Equal(10);
  DistanceMatrix Zero(10);
  for (int I = 0; I < 10; ++I)
    for (int J = I + 1; J < 10; ++J) {
      Equal.set(I, J, 7.0);
      Zero.set(I, J, (I + J) % 3 == 0 ? 0.0 : -0.0);
    }
  Out.push_back({"ties-12", std::move(Ties)});
  Out.push_back({"equal-10", std::move(Equal)});
  Out.push_back({"zero-10", std::move(Zero)});
  Out.push_back({"uniform-64", uniformRandomMetric(MaxBnbSpecies, 9, 1.0,
                                                   100.0)});
  return Out;
}

/// The engine's `Remainder[K]`, recomputed: `min_{j<i} M[i,j] / 2` summed
/// over `i >= K`, from the last species down.
double remainderFrom(const DistanceMatrix &M, int K) {
  double Sum = 0.0;
  for (int I = M.size() - 1; I >= std::max(K, 2); --I) {
    double Min = M.at(I, 0);
    for (int J = 1; J < I; ++J)
      Min = std::min(Min, M.at(I, J));
    Sum += Min / 2.0;
  }
  return Sum;
}

/// Calls \p Check(Name, Engine, Parent) at every parent of random
/// root-to-leaf paths through the BBT of each pricing instance.
template <typename CheckFn>
void forEachPricedParent(const BnbOptions &Options, CheckFn Check) {
  for (const PinnedInstance &I : pricingInstances()) {
    BnbEngine Engine(I.Matrix, Options);
    const DistanceMatrix &M = Engine.relabeledMatrix();
    Rng Random(static_cast<std::uint64_t>(M.size()));
    const int Paths = M.size() == MaxBnbSpecies ? 3 : 24;
    for (int Path = 0; Path < Paths; ++Path)
      for (Topology T = Engine.rootTopology(); !Engine.isComplete(T);
           T = T.withNextSpeciesAt(
               static_cast<int>(Random.nextBelow(
                   static_cast<std::uint64_t>(T.numNodes()))),
               M))
        Check(I.Name, Engine, T);
  }
}

TEST(HotLoop, PricedCostMatchesBuiltChildBitForBit) {
  std::uint64_t Priced = 0;
  forEachPricedParent(quietOptions(), [&](const std::string &Name,
                                          const BnbEngine &Engine,
                                          const Topology &T) {
    const InsertionPrices Prices(T, Engine.relabeledMatrix());
    Topology Child;
    for (int P = 0; P < T.numNodes(); ++P) {
      T.expandInto(P, Engine.relabeledMatrix(), Child);
      ASSERT_EQ(bits(Prices.cost(P)), bits(Child.cost()))
          << Name << " k=" << T.numPlaced() << " position=" << P;
      ASSERT_LE(Prices.costFloor(P), Prices.cost(P))
          << Name << " k=" << T.numPlaced() << " position=" << P;
      ++Priced;
    }
  });
  EXPECT_GT(Priced, 10000u);
}

TEST(HotLoop, PricedFloorCutsOnlyChildrenTheirBoundCuts) {
  for (bool CollectAll : {false, true}) {
    BnbOptions Options = quietOptions();
    Options.CollectAllOptimal = CollectAll;
    const double Eps = Options.Epsilon;
    std::uint64_t FloorCuts = 0;
    forEachPricedParent(Options, [&](const std::string &Name,
                                     const BnbEngine &Engine,
                                     const Topology &T) {
      const DistanceMatrix &M = Engine.relabeledMatrix();
      const double Rest = remainderFrom(M, T.numPlaced() + 1);
      const InsertionPrices Prices(T, M);
      Topology Child;
      for (int P = 0; P < T.numNodes(); ++P) {
        T.expandInto(P, M, Child);
        const double Exact = Engine.lowerBound(Child);
        ASSERT_EQ(bits(Exact), bits(Child.cost() + Rest)) << Name;
        const double Floor = Prices.costFloor(P) + Rest;
        // Upper bounds on both sides of each cut, and exactly on it.
        for (double Base : {Floor, Exact})
          for (double Offset : {-2 * Eps, -Eps, 0.0, Eps, 2 * Eps})
            for (double Ub :
                 {Base + Offset, std::nextafter(Base + Offset, -INFINITY),
                  std::nextafter(Base + Offset, INFINITY)}) {
              if (!Engine.boundCuts(Floor, Ub))
                continue;
              ++FloorCuts;
              ASSERT_TRUE(Engine.boundCuts(Exact, Ub))
                  << Name << " k=" << T.numPlaced() << " position=" << P
                  << " collect-all=" << CollectAll;
            }
      }
    });
    EXPECT_GT(FloorCuts, 10000u) << "collect-all=" << CollectAll;
  }
}

} // namespace

//===- bnb/Engine.cpp - Shared branch-and-bound machinery ------------------===//

#include "bnb/Engine.h"

#include "bnb/Arena.h"
#include "bnb/ThreeThree.h"
#include "heur/NniSearch.h"
#include "heur/Upgma.h"
#include "matrix/MetricUtils.h"
#include "support/Audit.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

using namespace mutk;

BnbEngine::BnbEngine(const DistanceMatrix &M, const BnbOptions &Options)
    : Opts(Options), OriginalNames(M.names()) {
  assert(M.size() >= 2 && "engine needs at least two species");
  assert(M.size() <= MaxBnbSpecies && "matrix exceeds the 64-species cap");

  // Step 1 of Algorithm BBU: maxmin relabeling (identity when the caller
  // guarantees the matrix is already in maxmin order).
  if (Opts.AssumeMaxminOrdered) {
    Perm.resize(static_cast<std::size_t>(M.size()));
    for (int I = 0; I < M.size(); ++I)
      Perm[static_cast<std::size_t>(I)] = I;
    Relabeled = M;
  } else {
    Perm = maxminPermutation(M);
    Relabeled = M.permuted(Perm);
  }

  // Lower-bound suffix sums: minHalf[i] = min_{j < i} M[i, j] / 2 is what
  // placing species i must at least add to the tree weight.
  const int N = Relabeled.size();
  std::vector<double> MinHalf(static_cast<std::size_t>(N), 0.0);
  // Cache-blocked scan over the relabeled matrix: each strict
  // lower-triangle row is consumed from its raw row pointer in L1-sized
  // panels with four independent accumulators, so the min reduction has
  // no length-I dependency chain. min is order-independent, so the
  // result is bit-identical to the naive scan.
  constexpr int Panel = 64;
  for (int I = 2; I < N; ++I) {
    const double *Row = Relabeled.row(I);
    double Min = Row[0];
    for (int J0 = 1; J0 < I; J0 += Panel) {
      const int End = std::min(I, J0 + Panel);
      double M0 = Min, M1 = Min, M2 = Min, M3 = Min;
      int J = J0;
      for (; J + 3 < End; J += 4) {
        M0 = std::min(M0, Row[J]);
        M1 = std::min(M1, Row[J + 1]);
        M2 = std::min(M2, Row[J + 2]);
        M3 = std::min(M3, Row[J + 3]);
      }
      for (; J < End; ++J)
        M0 = std::min(M0, Row[J]);
      Min = std::min(std::min(M0, M1), std::min(M2, M3));
    }
    MinHalf[static_cast<std::size_t>(I)] = Min / 2.0;
  }
  Remainder.assign(static_cast<std::size_t>(N) + 1, 0.0);
  for (int K = N - 1; K >= 0; --K)
    Remainder[static_cast<std::size_t>(K)] =
        Remainder[static_cast<std::size_t>(K) + 1] +
        MinHalf[static_cast<std::size_t>(K)];

  // Step 3: UPGMM feasible solution as the initial upper bound. Built on
  // the original matrix so the reported tree keeps original labels.
  InitialUbTree = upgmm(M);
  if (Opts.ImproveInitialUpperBound)
    sprImprove(InitialUbTree, M); // stays feasible; can only tighten
  InitialUb = InitialUbTree.weight();
  if (Opts.InitialUpperBound < InitialUb)
    InitialUb = Opts.InitialUpperBound;
}

Topology BnbEngine::rootTopology() const {
  return Topology::initialPair(Relabeled);
}

bool BnbEngine::threeThreeAllows(const Topology &Child) const {
  int Inserted = Child.numPlaced() - 1;
  switch (Opts.ThreeThree) {
  case ThreeThreeMode::None:
    return true;
  case ThreeThreeMode::ThirdSpecies:
    if (Inserted != 2)
      return true;
    break;
  case ThreeThreeMode::AllInsertions:
    break;
  }
  return insertionRespectsThreeThree(Child, Relabeled, Inserted);
}

void BnbEngine::branch(const Topology &T, double UpperBound, BnbStats &Stats,
                       std::vector<BranchedChild> &Children,
                       TopologyArena *Arena) const {
  assert(!isComplete(T) && "cannot branch a complete topology");
  const int Positions = T.numNodes();
  Children.clear();
  Children.reserve(static_cast<std::size_t>(Positions));
  const InsertionPrices Prices(T, Relabeled);
  const double Rest = Remainder[static_cast<std::size_t>(T.numPlaced()) + 1];
  // The 3-3 filter runs before the bound check when it is cheap and
  // after it when it is O(k^2) per child (AllInsertions); see the
  // precedence note on ThreeThreeMode. None never rejects, and
  // ThirdSpecies looks only at the insertion of species 2, whose three
  // children are therefore built before they are bounded.
  const bool ThreeThreeFirst =
      Opts.ThreeThree == ThreeThreeMode::ThirdSpecies && T.numPlaced() == 2;
  const bool ThreeThreeLast = Opts.ThreeThree == ThreeThreeMode::AllInsertions;
  // The floor never exceeds the exact cost and the cut is monotone, so a
  // floor that reaches the cut prunes the child without the re-sum.
  auto priceCuts = [&](int Position, double &Cost) {
    if (boundCuts(Prices.costFloor(Position) + Rest, UpperBound))
      return true;
    Cost = Prices.cost(Position);
    return boundCuts(Cost + Rest, UpperBound);
  };
  // Every position is one generated child whose bound is evaluated once,
  // priced before the child exists; the cached value feeds the guard, the
  // sort and the caller.
  Stats.Generated += static_cast<std::uint64_t>(Positions);
  Stats.BoundEvals += static_cast<std::uint64_t>(Positions);
  std::uint64_t CutByBound = 0;
  std::uint64_t CutByThreeThree = 0;
  // Positions 0..numNodes()-1 cover every edge once (the root position is
  // the above-root insertion).
  for (int Position = 0; Position < Positions; ++Position) {
    double Cost = 0.0;
    const bool Cut = priceCuts(Position, Cost);
    if (Cut && !ThreeThreeFirst) {
      ++CutByBound;
      continue;
    }
    BranchedChild Child{Arena ? Arena->acquire() : Topology(), Cost + Rest};
    T.expandInto(Position, Relabeled, Child.Node);
    MUTK_AUDIT(Cut || std::bit_cast<std::uint64_t>(Child.Node.cost()) ==
                          std::bit_cast<std::uint64_t>(Cost),
               "priced cost differs from the built child's");
    if (ThreeThreeFirst && !threeThreeAllows(Child.Node))
      ++CutByThreeThree;
    else if (Cut)
      ++CutByBound;
    else if (ThreeThreeLast && !threeThreeAllows(Child.Node))
      ++CutByThreeThree;
    else {
      Children.push_back(std::move(Child));
      continue;
    }
    if (Arena)
      Arena->release(std::move(Child.Node));
  }
  Stats.PrunedByBound += CutByBound;
  Stats.PrunedByThreeThree += CutByThreeThree;
  std::sort(Children.begin(), Children.end(),
            [](const BranchedChild &A, const BranchedChild &B) {
              return A.LowerBound < B.LowerBound;
            });
}

PhyloTree BnbEngine::finalize(const Topology &T) const {
  PhyloTree Tree = T.toPhyloTree(Perm);
  Tree.setNames(OriginalNames);
  return Tree;
}

//===- bnb/Engine.h - Shared branch-and-bound machinery ---------*- C++ -*-===//
///
/// \file
/// The pieces of Algorithm BBU shared by every driver (sequential loop,
/// thread pool, simulated cluster): the maxmin relabeling, the UPGMM
/// initial upper bound, the admissible lower bound
/// `LB(v) = w(T_k) + sum_{i >= k} min_{j < i} M[i,j] / 2`
/// with precomputed suffix sums, and the branching rule with optional 3-3
/// filtering. Drivers differ only in how they schedule BBT nodes and share
/// the upper bound.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_ENGINE_H
#define MUTK_BNB_ENGINE_H

#include "bnb/BnbOptions.h"
#include "bnb/Topology.h"
#include "matrix/DistanceMatrix.h"
#include "tree/PhyloTree.h"

#include <vector>

namespace mutk {

class TopologyArena;

/// A surviving child of one branching step together with its lower
/// bound, computed exactly once inside `branch()` and reused by the
/// pruning guard, the best-first sort, and the caller (heap keys, pool
/// ordering).
struct BranchedChild {
  Topology Node;
  double LowerBound = 0.0;
};

/// Immutable per-solve machinery. Thread-safe after construction (all
/// methods are const and touch no mutable state).
class BnbEngine {
public:
  /// Prepares a solve of \p M: relabels via maxmin permutation, computes
  /// the lower-bound suffix sums and the UPGMM upper bound.
  /// Requires `2 <= M.size() <= MaxBnbSpecies`.
  BnbEngine(const DistanceMatrix &M, const BnbOptions &Options);

  int numSpecies() const { return Relabeled.size(); }
  const BnbOptions &options() const { return Opts; }
  const DistanceMatrix &relabeledMatrix() const { return Relabeled; }
  const std::vector<int> &permutation() const { return Perm; }

  /// Weight of the UPGMM tree (the initial upper bound).
  double initialUpperBound() const { return InitialUb; }

  /// The UPGMM tree in *original* species labels.
  const PhyloTree &initialTree() const { return InitialUbTree; }

  /// The BBT root: the unique 2-species topology.
  Topology rootTopology() const;

  /// `LB(v)`: current cost plus the remaining-species bound.
  double lowerBound(const Topology &T) const {
    return T.cost() + Remainder[static_cast<std::size_t>(T.numPlaced())];
  }

  /// True when a node whose lower bound is \p Lb can no longer win against
  /// \p Ub: \p Lb reaches `Ub - Epsilon`, unless `CollectAllOptimal` keeps
  /// a tie within `Epsilon`. Monotone: any bound above a cut one is cut.
  bool boundCuts(double Lb, double Ub) const {
    return Lb >= Ub - Opts.Epsilon &&
           !(Opts.CollectAllOptimal && Lb <= Ub + Opts.Epsilon);
  }

  /// True if every species has been placed.
  bool isComplete(const Topology &T) const {
    return T.numPlaced() == numSpecies();
  }

  /// Expands \p T: prices the insertion of the next species at every
  /// position from one `InsertionPrices` pass over \p T, drops the
  /// children whose lower bound is cut by \p UpperBound (`boundCuts`)
  /// and the ones the 3-3 filter rejects per `options().ThreeThree`, and
  /// fills \p Children with the survivors sorted by ascending cached
  /// lower bound (best-first). Only survivors are built (`expandInto`),
  /// plus, under `ThirdSpecies`, the three children of species 2, which
  /// the filter examines before the bound. \p Children is cleared first;
  /// reusing one vector across calls keeps its capacity and makes the
  /// expansion allocation-free.
  ///
  /// Each generated child's lower bound is evaluated exactly once
  /// (`Stats.BoundEvals`), bit-identical to `lowerBound` of the built
  /// child, and cached in the `BranchedChild`. Pruning attribution
  /// follows the precedence documented on `ThreeThreeMode`.
  ///
  /// When \p Arena is non-null, built children are drawn from it and
  /// pruned ones are returned to it; callers should release consumed
  /// survivors back to the same arena.
  ///
  /// \param [in,out] Stats Generated / PrunedByBound / PrunedByThreeThree
  /// / BoundEvals are incremented.
  void branch(const Topology &T, double UpperBound, BnbStats &Stats,
              std::vector<BranchedChild> &Children,
              TopologyArena *Arena = nullptr) const;

  /// Converts a complete topology back to original labels and attaches
  /// species names.
  PhyloTree finalize(const Topology &T) const;

private:
  BnbOptions Opts;
  std::vector<int> Perm;
  DistanceMatrix Relabeled;
  std::vector<double> Remainder; // Remainder[k] = sum_{i>=k} minHalf[i]
  double InitialUb = 0.0;
  PhyloTree InitialUbTree;
  std::vector<std::string> OriginalNames;

  bool threeThreeAllows(const Topology &Child) const;
};

} // namespace mutk

#endif // MUTK_BNB_ENGINE_H

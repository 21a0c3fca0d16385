//===- bnb/SequentialBnb.h - Algorithm BBU (single processor) ---*- C++ -*-===//
///
/// \file
/// The sequential branch-and-bound of Wu-Chao-Tang 1999 ("Algorithm BBU"):
/// DFS over partial topologies, pruning by `LB(v) >= UB`, with the UPGMM
/// tree as the initial feasible solution. This is the single-processor
/// baseline of both papers' experiments. Its loop also runs the
/// best-first variant (`bnb/BestFirstBnb.h`) over a lower-bound heap.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_SEQUENTIALBNB_H
#define MUTK_BNB_SEQUENTIALBNB_H

#include "bnb/BnbOptions.h"
#include "matrix/DistanceMatrix.h"
#include "tree/PhyloTree.h"

#include <vector>

namespace mutk {

/// Outcome of a MUT solve.
struct MutResult {
  /// The best (minimum-weight) ultrametric tree found, original labels.
  PhyloTree Tree;
  /// Its weight. Equals the optimum when `Stats.Complete`.
  double Cost = 0.0;
  BnbStats Stats;
  /// Every optimal tree, filled only under `CollectAllOptimal`.
  std::vector<PhyloTree> AllOptimal;
};

/// Solves the (metric) MUT problem for \p M exactly (up to
/// `MaxBranchedNodes`). Handles `n <= 1` trivially; requires
/// `n <= MaxBnbSpecies`.
MutResult solveMutSequential(const DistanceMatrix &M,
                             const BnbOptions &Options = {});

} // namespace mutk

#endif // MUTK_BNB_SEQUENTIALBNB_H

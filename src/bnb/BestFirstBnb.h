//===- bnb/BestFirstBnb.h - Best-first MUT search ----------------*- C++ -*-===//
///
/// \file
/// A best-first variant of Algorithm BBU: instead of the paper's DFS
/// ("v = get the tree for branch using DFS"), BBT nodes are expanded in
/// ascending lower-bound order from a priority queue. Best-first expands
/// the *provably minimal* number of nodes whose lower bound is below the
/// optimum, at the price of holding the whole frontier in memory — the
/// classic B&B trade-off this pair of solvers lets the ablation bench
/// quantify (`mutk_paper ablation_search_order`).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_BESTFIRSTBNB_H
#define MUTK_BNB_BESTFIRSTBNB_H

#include "bnb/SequentialBnb.h"

namespace mutk {

/// A MutResult extended with frontier-memory accounting.
struct BestFirstResult : MutResult {
  /// Largest number of BBT nodes simultaneously held in the queue.
  std::size_t PeakFrontier = 0;
};

/// Solves the MUT problem with best-first (lowest lower bound first)
/// expansion. Same optimum as `solveMutSequential`; `CollectAllOptimal`
/// is supported. `MaxBranchedNodes` bounds the expansion count.
BestFirstResult solveMutBestFirst(const DistanceMatrix &M,
                                  const BnbOptions &Options = {});

} // namespace mutk

#endif // MUTK_BNB_BESTFIRSTBNB_H

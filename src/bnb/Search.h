//===- bnb/Search.h - The search core every B&B driver shares ---*- C++ -*-===//
///
/// \file
/// The parts of Algorithm BBU and of the HPCAsia master phase that every
/// driver (sequential and best-first loop, thread pool, message-passing
/// ranks, simulated cluster) runs the same way:
///
///  * `solveTrivial` answers `n <= 1`;
///  * `searchStep` / `expandNode` are BBU's node step: re-check the
///    popped node's bound, branch it, settle complete children and hand
///    the rest back to the caller's frontier;
///  * `Incumbent` holds the upper bound, the best tree and the
///    co-optimal set, and finalizes the answer once;
///  * `seedFrontier` + `dealByBound` are the master phase: expand to
///    2 x P nodes breadth-first, sort by bound, deal cyclically;
///  * `finishSolve` audits the answer and flushes the counters.
///
/// Drivers keep only what differs between them: how nodes are scheduled
/// and how the upper bound is shared (a local, an atomic, a message, a
/// virtual clock).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_SEARCH_H
#define MUTK_BNB_SEARCH_H

#include "bnb/Arena.h"
#include "bnb/Checkpoint.h"
#include "bnb/Engine.h"
#include "bnb/SequentialBnb.h"

#include <deque>
#include <optional>
#include <utility>
#include <vector>

namespace mutk {

/// Answers the sizes no search is needed for (`n <= 1`): the empty tree
/// or the single leaf, at cost 0. \returns false for `n >= 2`.
bool solveTrivial(const DistanceMatrix &M, MutResult &Result);

/// The order a node step settles and pushes the children `branch()`
/// returns sorted by ascending bound.
enum class ChildOrder {
  /// Best child first: a lower-bound heap and the breadth-first seeding.
  Ascending,
  /// Worst child first, so a DFS stack or pool ends with the best child
  /// on top and pops it next.
  WorstFirst,
};

/// Branches \p Node (counting it in `Stats.Branched`) against \p Ub,
/// drawing children from \p Arena and returning the parent to it. Each
/// surviving child, in \p Order, goes to \p Solution (as a
/// `const Topology &`) when it is complete — and is then recycled — or
/// is moved to \p Push (as a `BranchedChild &&`) otherwise. \p Children
/// is the caller's reused `branch()` buffer.
///
/// A template over the callbacks on purpose: this is the B&B hot loop,
/// and it must cost no indirect call per child.
template <typename OnSolution, typename OnChild>
void expandNode(const BnbEngine &Engine, Topology &&Node, double Ub,
                BnbStats &Stats, TopologyArena &Arena,
                std::vector<BranchedChild> &Children, ChildOrder Order,
                OnSolution &&Solution, OnChild &&Push) {
  ++Stats.Branched;
  Engine.branch(Node, Ub, Stats, Children, &Arena);
  Arena.release(std::move(Node));
  const std::size_t Count = Children.size();
  for (std::size_t I = 0; I < Count; ++I) {
    BranchedChild &Child =
        Children[Order == ChildOrder::WorstFirst ? Count - 1 - I : I];
    if (Engine.isComplete(Child.Node)) {
      Solution(std::as_const(Child.Node));
      Arena.release(std::move(Child.Node));
      continue;
    }
    Push(std::move(Child));
  }
}

/// BBU's node step for a node just popped from a frontier: the bound is
/// re-checked first, since \p Ub may have improved after the node was
/// pushed. A node that can no longer win — under `CollectAllOptimal` a
/// tie still can — is counted in `Stats.PrunedByBound`, recycled, and
/// \returns false; otherwise the node is expanded as in `expandNode` and
/// \returns true.
template <typename OnSolution, typename OnChild>
bool searchStep(const BnbEngine &Engine, Topology &&Node, double Ub,
                BnbStats &Stats, TopologyArena &Arena,
                std::vector<BranchedChild> &Children, ChildOrder Order,
                OnSolution &&Solution, OnChild &&Push) {
  if (Engine.boundCuts(Engine.lowerBound(Node), Ub)) {
    ++Stats.PrunedByBound;
    Arena.release(std::move(Node));
    return false;
  }
  expandNode(Engine, std::move(Node), Ub, Stats, Arena, Children, Order,
             std::forward<OnSolution>(Solution), std::forward<OnChild>(Push));
  return true;
}

/// The best solution a search knows: the upper bound, the best complete
/// topology once one beats the starting tree, and the co-optimal set
/// under `CollectAllOptimal`. Topologies are kept as they are and turned
/// into trees once, by `finish()`.
class Incumbent {
public:
  /// Starts from the engine's UPGMM tree and bound, or from \p Resume's
  /// incumbent when its bound is strictly lower — the one resume rule.
  explicit Incumbent(const BnbEngine &Engine,
                     const SearchCheckpoint *Resume = nullptr);

  double upperBound() const { return Ub; }

  /// Settles the complete topology \p T. A tree strictly below the upper
  /// bound becomes the incumbent (and restarts the co-optimal set); under
  /// `CollectAllOptimal` a tie within epsilon joins the co-optimal set.
  /// \returns true on a strict improvement.
  bool offer(const Topology &T);

  /// The incumbent tree in original labels, built anew on each call
  /// (for checkpoints).
  PhyloTree tree() const;

  /// Writes the answer into \p Result: the tree, its cost (the upper
  /// bound) and, under `CollectAllOptimal`, every optimal tree — the
  /// starting tree too when nothing else reached its cost.
  void finish(MutResult &Result);

private:
  const BnbEngine &Engine;
  double Ub;
  /// The UPGMM tree, or the resumed incumbent.
  PhyloTree Start;
  std::optional<Topology> Best;
  std::vector<Topology> CoOptimal;
};

/// The matrix fingerprint that stamps checkpoints and guards resumes, or
/// 0 when \p Options neither checkpoints nor resumes (it costs O(n^2)).
std::uint64_t checkpointKey(const DistanceMatrix &M, const BnbOptions &Options);

/// Hands `Options.Checkpoint` a snapshot of an unfinished search.
void writeCheckpoint(const BnbOptions &Options, std::uint64_t MatrixKey,
                     std::vector<Topology> Frontier, const Incumbent &Best,
                     const BnbStats &Stats);

/// The master phase's expansion (HPCAsia Steps 4-5): branches the BBT
/// breadth-first from the root until the frontier holds \p Target nodes
/// or runs dry. Complete trees met on the way are offered to \p Best;
/// children settle in ascending bound order. \returns the frontier in
/// breadth-first order.
std::vector<Topology> seedFrontier(const BnbEngine &Engine, std::size_t Target,
                                   Incumbent &Best, BnbStats &Stats);

/// Step 6: sorts \p Frontier by lower bound and deals it cyclically over
/// \p NumPools pools, best node first, so each pool ends with its best
/// node at the back — the end a DFS pool pops from.
std::vector<std::deque<Topology>> dealByBound(const BnbEngine &Engine,
                                              std::vector<Topology> Frontier,
                                              int NumPools);

/// The end every solve shares: the answer must be a feasible ultrametric
/// tree for \p M (Definition 8: `d_T >= M`), whether it is optimal,
/// truncated or the UPGMM seed; the counters are flushed to the metrics
/// registry when `Options.PublishMetrics`.
void finishSolve(const DistanceMatrix &M, const BnbOptions &Options,
                 const MutResult &Result);

} // namespace mutk

#endif // MUTK_BNB_SEARCH_H

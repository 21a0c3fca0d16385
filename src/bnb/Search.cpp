//===- bnb/Search.cpp - The search core every B&B driver shares ------------===//

#include "bnb/Search.h"

#include "matrix/Fingerprint.h"
#include "obs/Instruments.h"
#include "support/Audit.h"

#include <algorithm>
#include <cmath>
#include <iterator>

using namespace mutk;

bool mutk::solveTrivial(const DistanceMatrix &M, MutResult &Result) {
  if (M.size() > 1)
    return false;
  if (M.size() == 1) {
    Result.Tree.addLeaf(0);
    Result.Tree.setNames(M.names());
  }
  Result.Cost = 0.0;
  return true;
}

/// A checkpoint stamped with a different matrix fingerprint must not
/// seed this search.
const SearchCheckpoint *mutk::usableResume(const BnbOptions &Options,
                                           std::uint64_t MatrixKey) {
  const SearchCheckpoint *Resume = Options.ResumeFrom;
  if (!Resume)
    return nullptr;
  if (Resume->MatrixKey != 0 && MatrixKey != 0 &&
      Resume->MatrixKey != MatrixKey)
    return nullptr;
  return Resume;
}

Incumbent::Incumbent(const BnbEngine &Engine, const SearchCheckpoint *Resume)
    : Engine(Engine), Ub(Engine.initialUpperBound()),
      Start(Engine.initialTree()) {
  if (Resume && Resume->UpperBound < Ub) {
    Ub = Resume->UpperBound;
    Start = Resume->Incumbent;
    Start.setNames(Engine.initialTree().names());
  }
}

bool Incumbent::offer(const Topology &T) {
  const BnbOptions &Options = Engine.options();
  const double Cost = T.cost();
  if (Cost < Ub - Options.Epsilon) {
    Ub = Cost;
    Best = T;
    if (Options.CollectAllOptimal) {
      CoOptimal.clear();
      CoOptimal.push_back(T);
    }
    return true;
  }
  if (Options.CollectAllOptimal && Cost <= Ub + Options.Epsilon)
    CoOptimal.push_back(T);
  return false;
}

PhyloTree Incumbent::tree() const {
  return Best ? Engine.finalize(*Best) : Start;
}

void Incumbent::finish(MutResult &Result) {
  Result.Tree = Best ? Engine.finalize(*Best) : std::move(Start);
  Result.Cost = Ub;
  if (!Engine.options().CollectAllOptimal)
    return;
  Result.AllOptimal.clear();
  for (const Topology &T : CoOptimal)
    Result.AllOptimal.push_back(Engine.finalize(T));
  // The UPGMM seed may already have been optimal.
  if (Result.AllOptimal.empty() &&
      std::fabs(Engine.initialTree().weight() - Ub) <=
          Engine.options().Epsilon)
    Result.AllOptimal.push_back(Engine.initialTree());
}

std::uint64_t mutk::checkpointKey(const DistanceMatrix &M,
                                  const BnbOptions &Options) {
  return Options.Checkpoint || Options.ResumeFrom ? fingerprint(M) : 0;
}

void mutk::writeCheckpoint(const BnbOptions &Options, std::uint64_t MatrixKey,
                           std::vector<Topology> Frontier,
                           const Incumbent &Best, const BnbStats &Stats) {
  SearchCheckpoint Ck;
  Ck.Frontier = std::move(Frontier);
  Ck.Incumbent = Best.tree();
  Ck.UpperBound = Best.upperBound();
  Ck.Stats = Stats;
  Ck.Stats.Complete = false; // a checkpoint is an unfinished search
  Ck.MatrixKey = MatrixKey;
  Options.Checkpoint->checkpoint(Ck);
}

std::vector<Topology> mutk::seedFrontier(const BnbEngine &Engine,
                                         std::size_t Target, Incumbent &Best,
                                         BnbStats &Stats) {
  std::deque<Topology> Bfs;
  Bfs.push_back(Engine.rootTopology());
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Children;
  while (!Bfs.empty() && Bfs.size() < Target) {
    Topology T = std::move(Bfs.front());
    Bfs.pop_front();
    if (Engine.isComplete(T)) {
      Best.offer(T);
      continue;
    }
    expandNode(
        Engine, std::move(T), Best.upperBound(), Stats, Arena, Children,
        ChildOrder::Ascending,
        [&](const Topology &Child) {
          if (Best.offer(Child))
            ++Stats.UbUpdates;
        },
        [&](BranchedChild &&Child) { Bfs.push_back(std::move(Child.Node)); });
  }
  return {std::make_move_iterator(Bfs.begin()),
          std::make_move_iterator(Bfs.end())};
}

std::vector<std::deque<Topology>>
mutk::dealByBound(const BnbEngine &Engine, std::vector<Topology> Frontier,
                  int NumPools) {
  std::sort(Frontier.begin(), Frontier.end(),
            [&Engine](const Topology &A, const Topology &B) {
              return Engine.lowerBound(A) < Engine.lowerBound(B);
            });
  std::vector<std::deque<Topology>> Pools(static_cast<std::size_t>(NumPools));
  for (std::size_t I = 0; I < Frontier.size(); ++I)
    Pools[I % Pools.size()].push_front(std::move(Frontier[I]));
  return Pools;
}

void mutk::finishSolve([[maybe_unused]] const DistanceMatrix &M,
                       const BnbOptions &Options, const MutResult &Result) {
  MUTK_AUDIT(Result.Tree.hasMonotoneHeights(),
             "B&B result must be ultrametric (leaves at 0, heights "
             "nondecreasing toward the root)");
  MUTK_AUDIT(Result.Tree.dominatesMatrix(M),
             "B&B result must dominate the input matrix (d_T >= M)");
  if (Options.PublishMetrics)
    obs::recordBnbSolve(Result.Stats);
}

//===- bnb/SequentialBnb.cpp - Algorithm BBU (single processor) -----------===//
//
// One search loop serves both single-processor solvers; the frontier type
// is all that tells the DFS of the paper from the best-first variant.
//
//===----------------------------------------------------------------------===//

#include "bnb/SequentialBnb.h"

#include "bnb/BestFirstBnb.h"
#include "bnb/Search.h"

#include <algorithm>
#include <cassert>

using namespace mutk;

namespace {

/// The paper's DFS: a stack whose top is the best child of the latest
/// expansion. A node found stale on pop is skipped; deeper entries may
/// still beat the upper bound.
class DepthFirstStack {
public:
  static constexpr ChildOrder Order = ChildOrder::WorstFirst;
  static constexpr bool StalePopEndsSearch = false;

  void seed(const BnbEngine &, std::vector<Topology> Nodes) {
    Stack = std::move(Nodes);
  }
  bool empty() const { return Stack.empty(); }
  std::size_t size() const { return Stack.size(); }
  Topology pop() {
    Topology T = std::move(Stack.back());
    Stack.pop_back();
    return T;
  }
  void push(BranchedChild &&Child) { Stack.push_back(std::move(Child.Node)); }
  /// Bottom to top.
  std::vector<Topology> snapshot() const { return Stack; }

private:
  std::vector<Topology> Stack;
};

/// Best-first: a heap on the lower bound `branch()` already computed. An
/// explicit heap rather than `std::priority_queue`, because a checkpoint
/// walks the whole frontier. Once the best bound is stale, so is every
/// other node, and the search ends.
class LowerBoundHeap {
public:
  static constexpr ChildOrder Order = ChildOrder::Ascending;
  static constexpr bool StalePopEndsSearch = true;

  void seed(const BnbEngine &Engine, std::vector<Topology> Nodes) {
    Heap.reserve(Nodes.size());
    for (Topology &T : Nodes) {
      const double Lb = Engine.lowerBound(T);
      Heap.push_back(Entry{std::move(T), Lb});
    }
    std::make_heap(Heap.begin(), Heap.end(), WorseLowerBound{});
  }
  bool empty() const { return Heap.empty(); }
  std::size_t size() const { return Heap.size(); }
  Topology pop() {
    Peak = std::max(Peak, Heap.size());
    std::pop_heap(Heap.begin(), Heap.end(), WorseLowerBound{});
    Topology T = std::move(Heap.back().Node);
    Heap.pop_back();
    return T;
  }
  void push(BranchedChild &&Child) {
    Heap.push_back(Entry{std::move(Child.Node), Child.LowerBound});
    std::push_heap(Heap.begin(), Heap.end(), WorseLowerBound{});
  }
  /// Heap order.
  std::vector<Topology> snapshot() const {
    std::vector<Topology> Nodes;
    Nodes.reserve(Heap.size());
    for (const Entry &E : Heap)
      Nodes.push_back(E.Node);
    return Nodes;
  }
  /// Largest number of nodes held at once.
  std::size_t peak() const { return Peak; }

private:
  struct Entry {
    Topology Node;
    double LowerBound = 0.0;
  };
  struct WorseLowerBound {
    bool operator()(const Entry &A, const Entry &B) const {
      return A.LowerBound > B.LowerBound;
    }
  };
  std::vector<Entry> Heap;
  std::size_t Peak = 0;
};

/// Algorithm BBU on one processor over the frontier \p Open: resume,
/// checkpoint pacing, `MaxBranchedNodes` and `CollectAllOptimal` live
/// here once for both search orders.
template <typename Frontier>
void searchSerial(const DistanceMatrix &M, const BnbOptions &Options,
                  Frontier &Open, MutResult &Result) {
  assert(!(Options.Checkpoint && Options.CollectAllOptimal) &&
         "checkpointing does not capture the co-optimal set");
  if (solveTrivial(M, Result))
    return;

  BnbEngine Engine(M, Options);
  const std::uint64_t MatrixKey = checkpointKey(M, Options);
  const SearchCheckpoint *Resume = usableResume(Options, MatrixKey);
  Incumbent Best(Engine, Resume);
  BnbStats &Stats = Result.Stats;
  if (Resume) {
    Open.seed(Engine, Resume->Frontier);
    Stats = Resume->Stats;
    Stats.Complete = true; // re-decided by this run
  } else {
    Open.seed(Engine, {Engine.rootTopology()});
  }

  CheckpointPacer Pacer(Options.CheckpointEveryNodes,
                        Options.CheckpointEverySeconds, Stats.Branched);
  // The arena recycles topology buffers across expansions and Children
  // is the reused branch() output, so the loop allocates nothing after
  // warm-up.
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Children;
  while (!Open.empty()) {
    if (Options.MaxBranchedNodes != 0 &&
        Stats.Branched >= Options.MaxBranchedNodes) {
      Stats.Complete = false;
      break;
    }
    if (!searchStep(
            Engine, Open.pop(), Best.upperBound(), Stats, Arena, Children,
            Frontier::Order,
            [&](const Topology &T) {
              if (Best.offer(T))
                ++Stats.UbUpdates;
            },
            [&](BranchedChild &&Child) { Open.push(std::move(Child)); })) {
      if constexpr (Frontier::StalePopEndsSearch) {
        Stats.PrunedByBound += Open.size();
        break;
      }
      continue;
    }
    // After an expansion the state is consistent: the popped node is
    // represented by its surviving children.
    if (Options.Checkpoint && Pacer.due(Stats.Branched)) {
      writeCheckpoint(Options, MatrixKey, Open.snapshot(), Best, Stats);
      Pacer.taken(Stats.Branched);
    }
  }

  Best.finish(Result);
  finishSolve(M, Options, Result);
}

} // namespace

MutResult mutk::solveMutSequential(const DistanceMatrix &M,
                                   const BnbOptions &Options) {
  MutResult Result;
  DepthFirstStack Open;
  searchSerial(M, Options, Open, Result);
  return Result;
}

BestFirstResult mutk::solveMutBestFirst(const DistanceMatrix &M,
                                        const BnbOptions &Options) {
  BestFirstResult Result;
  LowerBoundHeap Open;
  searchSerial(M, Options, Open, Result);
  Result.PeakFrontier = Open.peak();
  return Result;
}

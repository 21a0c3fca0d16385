//===- parallel/ThreadedBnb.cpp - Master/slave parallel B&B ---------------===//

#include "parallel/ThreadedBnb.h"

#include "bnb/Search.h"
#include "support/Mutex.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <iterator>
#include <thread>

using namespace mutk;

namespace {

/// State shared by all workers.
struct SharedState {
  const BnbEngine &Engine;
  explicit SharedState(const BnbEngine &Engine) : Engine(Engine) {}

  // Global pool (the master's GP), protected by PoolMutex.
  Mutex PoolMutex{"bnb.pool"};
  std::deque<Topology> GlobalPool MUTK_GUARDED_BY(PoolMutex);
  CondVar PoolCv;
  /// BBT nodes alive anywhere (pools + in-flight); part of the
  /// termination handshake.
  long Outstanding MUTK_GUARDED_BY(PoolMutex) = 0;
  bool Cancelled MUTK_GUARDED_BY(PoolMutex) = false;
  /// Checkpoint rendezvous: when set, every worker returns its local
  /// pool to the global pool and exits, leaving the master with the
  /// complete frontier. Outstanding is untouched — the nodes stay
  /// alive, they just change owner.
  bool Paused MUTK_GUARDED_BY(PoolMutex) = false;

  // Upper bound, shared lock-free; the best topology under a mutex.
  std::atomic<double> Ub{0.0};
  Mutex BestMutex{"bnb.best"};
  Topology BestTopology MUTK_GUARDED_BY(BestMutex);
  bool HasBest MUTK_GUARDED_BY(BestMutex) = false;

  std::atomic<std::uint64_t> TotalBranched{0};

  /// Lowers the shared UB to the cost of \p T if that improves it; keeps
  /// the tree. \returns true on a strict improvement.
  bool offerSolution(const Topology &T, double Eps) {
    double Cost = T.cost();
    double Current = Ub.load(std::memory_order_relaxed);
    bool Improved = false;
    while (Cost < Current - Eps) {
      // On failure compare_exchange reloads Current and we re-test.
      if (Ub.compare_exchange_weak(Current, Cost,
                                   std::memory_order_relaxed)) {
        Improved = true;
        break;
      }
    }
    if (!Improved)
      return false;

    MutexLock Lock(BestMutex);
    if (!HasBest || Cost < BestTopology.cost()) {
      BestTopology = T;
      HasBest = true;
    }
    return true;
  }
};

/// One slave computing processor: DFS over a local pool with global-pool
/// load balancing (HPCAsia Table 1, Step 7).
void workerMain(SharedState &Shared, const BnbOptions &Options,
                std::deque<Topology> LocalPool, BnbStats &Stats,
                WorkerStats &Worker) {
  const double Eps = Options.Epsilon;
  const BnbEngine &Engine = Shared.Engine;
  // Worker-private recycling pool + branch() output buffer: the hot loop
  // allocates nothing after warm-up. Nodes that migrate through the
  // global pool keep their own storage, so pooling stays worker-local.
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Children;

  for (;;) {
    Topology Current;
    bool HaveWork = false;

    {
      MutexLock Lock(Shared.PoolMutex);
      // Checkpoint rendezvous: hand the whole local pool back and exit.
      // Only checked between expansions, so every returned node is a
      // consistent, un-expanded BBT node.
      if (Shared.Paused) {
        for (Topology &T : LocalPool)
          Shared.GlobalPool.push_back(std::move(T));
        LocalPool.clear();
        Shared.PoolCv.notify_all();
        return;
      }
      if (LocalPool.empty()) {
        while (Shared.GlobalPool.empty() && Shared.Outstanding != 0 &&
               !Shared.Cancelled && !Shared.Paused)
          Shared.PoolCv.wait(Lock);
        if (Shared.Paused) {
          Shared.PoolCv.notify_all();
          return;
        }
        if (Shared.Cancelled ||
            (Shared.GlobalPool.empty() && Shared.Outstanding == 0))
          return;
        Current = std::move(Shared.GlobalPool.front());
        Shared.GlobalPool.pop_front();
        ++Worker.PulledFromGlobal;
        HaveWork = true;
      }
    }
    if (!HaveWork) {
      // Local pools keep the best node at the back.
      Current = std::move(LocalPool.back());
      LocalPool.pop_back();
      HaveWork = true;
    }
    assert(HaveWork && "reached processing without a node");
    (void)HaveWork;

    if (Options.MaxBranchedNodes != 0 &&
        Shared.TotalBranched.load(std::memory_order_relaxed) >=
            Options.MaxBranchedNodes) {
      MutexLock Lock(Shared.PoolMutex);
      Shared.Cancelled = true;
      Shared.PoolCv.notify_all();
      return;
    }

    long Delta = -1; // the consumed node
    if (searchStep(
            Engine, std::move(Current),
            Shared.Ub.load(std::memory_order_relaxed), Stats, Arena, Children,
            ChildOrder::WorstFirst,
            [&](const Topology &T) {
              if (Shared.offerSolution(T, Eps)) {
                ++Stats.UbUpdates;
                ++Worker.UbUpdates;
              }
            },
            [&](BranchedChild &&Child) {
              LocalPool.push_back(std::move(Child.Node));
              ++Delta;
            })) {
      ++Worker.Branched;
      Shared.TotalBranched.fetch_add(1, std::memory_order_relaxed);
    }

    // Donate the *worst* local node whenever the global pool is empty,
    // so idle workers always find something (two-level load balancing).
    {
      MutexLock Lock(Shared.PoolMutex);
      Shared.Outstanding += Delta;
      if (Shared.GlobalPool.empty() && LocalPool.size() > 1) {
        Shared.GlobalPool.push_back(std::move(LocalPool.front()));
        LocalPool.pop_front();
        ++Worker.DonatedToGlobal;
        Shared.PoolCv.notify_one();
      }
      if (Shared.Outstanding == 0)
        Shared.PoolCv.notify_all();
    }
  }
}

} // namespace

ParallelMutResult mutk::solveMutThreaded(const DistanceMatrix &M,
                                         int NumWorkers,
                                         const BnbOptions &Options) {
  assert(NumWorkers >= 1 && "need at least one worker");
  assert(!Options.CollectAllOptimal &&
         "CollectAllOptimal is not supported by the threaded solver");

  ParallelMutResult Result;
  Result.Workers.resize(static_cast<std::size_t>(NumWorkers));
  if (solveTrivial(M, Result))
    return Result;

  BnbEngine Engine(M, Options);
  SharedState Shared(Engine);
  const std::uint64_t MatrixKey = checkpointKey(M, Options);
  const SearchCheckpoint *Resume = usableResume(Options, MatrixKey);
  // The master's incumbent. Workers publish only topologies that
  // strictly beat the shared UB seeded from it, so the shared best, when
  // there is one, always beats it too.
  Incumbent Best(Engine, Resume);
  BnbStats MasterStats;
  std::vector<Topology> Frontier;
  if (Resume) {
    MasterStats = Resume->Stats;
    MasterStats.Complete = true; // re-decided by this run
    Shared.TotalBranched.store(Resume->Stats.Branched,
                               std::memory_order_relaxed);
    Frontier = Resume->Frontier;
  } else {
    Frontier = seedFrontier(
        Engine, 2 * static_cast<std::size_t>(NumWorkers), Best, MasterStats);
  }
  Shared.Ub.store(Best.upperBound(), std::memory_order_relaxed);

  std::vector<BnbStats> WorkerBnbStats(static_cast<std::size_t>(NumWorkers));
  auto mergedStats = [&]() {
    BnbStats S = MasterStats;
    for (const BnbStats &W : WorkerBnbStats) {
      S.Branched += W.Branched;
      S.Generated += W.Generated;
      S.PrunedByBound += W.PrunedByBound;
      S.PrunedByThreeThree += W.PrunedByThreeThree;
      S.BoundEvals += W.BoundEvals;
      S.UbUpdates += W.UbUpdates;
    }
    return S;
  };
  // Folds the workers' best into the master's incumbent. Call only while
  // no workers run.
  auto settleIncumbent = [&]() {
    MutexLock Lock(Shared.BestMutex);
    if (Shared.HasBest)
      Best.offer(Shared.BestTopology);
  };

  const bool Checkpointing =
      Options.Checkpoint != nullptr && (Options.CheckpointEveryNodes > 0 ||
                                        Options.CheckpointEverySeconds > 0.0);
  CheckpointPacer Pacer(Options.CheckpointEveryNodes,
                        Options.CheckpointEverySeconds,
                        Shared.TotalBranched.load(std::memory_order_relaxed));

  // Checkpoint rounds: run the workers; when a checkpoint comes due,
  // raise `Paused` so every worker returns its pool to the global pool
  // and exits, capture the reassembled frontier, then redistribute and
  // respawn. Without checkpointing the loop body runs exactly once.
  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<std::size_t>(NumWorkers));
  while (!Frontier.empty()) {
    {
      MutexLock Lock(Shared.PoolMutex);
      Shared.Outstanding = static_cast<long>(Frontier.size());
      Shared.Paused = false;
    }
    // Step 6; each pool's back is its best node — the invariant
    // workerMain maintains.
    std::vector<std::deque<Topology>> LocalPools =
        dealByBound(Engine, std::move(Frontier), NumWorkers);
    Frontier.clear();

    Threads.clear();
    for (int W = 0; W < NumWorkers; ++W)
      Threads.emplace_back(
          workerMain, std::ref(Shared), std::cref(Options),
          std::move(LocalPools[static_cast<std::size_t>(W)]),
          std::ref(WorkerBnbStats[static_cast<std::size_t>(W)]),
          std::ref(Result.Workers[static_cast<std::size_t>(W)]));

    if (Checkpointing) {
      // Poll for the checkpoint cadence while the round runs. A timed
      // wait (not a sleep) so worker completion wakes us immediately.
      MutexLock Lock(Shared.PoolMutex);
      while (Shared.Outstanding != 0 && !Shared.Cancelled) {
        Shared.PoolCv.waitFor(Lock, std::chrono::milliseconds(20));
        if (Shared.Outstanding == 0 || Shared.Cancelled)
          break;
        if (Pacer.due(
                Shared.TotalBranched.load(std::memory_order_relaxed))) {
          Shared.Paused = true;
          Shared.PoolCv.notify_all();
          break;
        }
      }
      Lock.unlock();
    }
    for (std::thread &T : Threads)
      T.join();

    if (!Checkpointing)
      break;

    // Reclaim whatever the workers returned. Empty means the search
    // finished (exhausted or cancelled) during this round.
    {
      MutexLock Lock(Shared.PoolMutex);
      Frontier.assign(std::make_move_iterator(Shared.GlobalPool.begin()),
                      std::make_move_iterator(Shared.GlobalPool.end()));
      Shared.GlobalPool.clear();
      if (Shared.Cancelled)
        Frontier.clear();
    }
    if (Frontier.empty())
      break;

    settleIncumbent();
    writeCheckpoint(Options, MatrixKey, Frontier, Best, mergedStats());
    Pacer.taken(Shared.TotalBranched.load(std::memory_order_relaxed));
  }

  Result.Stats = mergedStats();
  settleIncumbent();
  Best.finish(Result);
  {
    // Workers are joined; the lock only satisfies the analysis.
    MutexLock Lock(Shared.PoolMutex);
    Result.Stats.Complete = !Shared.Cancelled;
  }
  finishSolve(M, Options, Result);
  return Result;
}

//===- sim/ClusterSim.cpp - Discrete-event PC-cluster simulator -----------===//

#include "sim/ClusterSim.h"

#include "bnb/Search.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

using namespace mutk;

namespace {

/// A published upper-bound improvement.
struct UbEvent {
  double Time = 0.0;
  double Value = 0.0;
};

/// A BBT node sitting in the global pool, stamped with the time it became
/// available there.
struct PoolEntry {
  Topology Node;
  double AvailableTime = 0.0;
};

/// One simulated computing node.
struct SimNode {
  double Clock = 0.0;
  double Speed = 1.0;
  /// Back = best (lowest lower bound among the locally known order).
  std::deque<Topology> Local;
  /// Upper bound this node currently believes in.
  double KnownUb = 0.0;
  SimNodeStats Stats;
};

} // namespace

ClusterSimResult mutk::simulateClusterBnb(const DistanceMatrix &M,
                                          const ClusterSpec &Spec,
                                          const BnbOptions &Options) {
  assert(Spec.NumNodes >= 1 && "need at least one computing node");
  assert(!Options.CollectAllOptimal &&
         "CollectAllOptimal is not supported by the simulator");

  ClusterSimResult Result;
  Result.Nodes.resize(static_cast<std::size_t>(Spec.NumNodes));
  if (solveTrivial(M, Result))
    return Result;

  BnbEngine Engine(M, Options);
  const double Eps = Options.Epsilon;
  const int P = Spec.NumNodes;
  Incumbent GlobalBest(Engine);
  BnbStats &Stats = Result.Stats;

  // --- Master phase (Steps 4-6): seed the BBT to 2 * P frontier nodes,
  // sort by LB, deal cyclically, charge the transfer.
  std::vector<std::deque<Topology>> Pools = dealByBound(
      Engine, seedFrontier(Engine, 2 * static_cast<std::size_t>(P), GlobalBest,
                           Stats),
      P);
  Result.SeedTime = static_cast<double>(Stats.Branched) * Spec.BranchCost;

  std::vector<SimNode> Nodes(static_cast<std::size_t>(P));
  for (int I = 0; I < P; ++I) {
    SimNode &N = Nodes[static_cast<std::size_t>(I)];
    N.Speed = (static_cast<std::size_t>(I) < Spec.NodeSpeeds.size())
                  ? Spec.NodeSpeeds[static_cast<std::size_t>(I)]
                  : 1.0;
    assert(N.Speed > 0.0 && "node speeds must be positive");
    N.Clock = Result.SeedTime + Spec.PoolTransferCost;
    N.KnownUb = GlobalBest.upperBound();
    N.Local = std::move(Pools[static_cast<std::size_t>(I)]);
  }

  std::vector<UbEvent> Events;
  std::deque<PoolEntry> GlobalPool;
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Children;

  // --- Step 7: event loop. Always advance the node able to act at the
  // earliest virtual time.
  for (;;) {
    if (Options.MaxBranchedNodes != 0 &&
        Stats.Branched >= Options.MaxBranchedNodes) {
      Stats.Complete = false;
      break;
    }

    // Pick the acting node: local work acts at Clock; a pull from the
    // global pool acts at max(Clock, AvailableTime) + transfer.
    int Best = -1;
    double BestStart = std::numeric_limits<double>::infinity();
    bool BestIsPull = false;
    for (int I = 0; I < P; ++I) {
      SimNode &N = Nodes[static_cast<std::size_t>(I)];
      if (!N.Local.empty()) {
        if (N.Clock < BestStart) {
          BestStart = N.Clock;
          Best = I;
          BestIsPull = false;
        }
      } else if (!GlobalPool.empty()) {
        double Start = std::max(N.Clock, GlobalPool.front().AvailableTime) +
                       Spec.PoolTransferCost;
        if (Start < BestStart) {
          BestStart = Start;
          Best = I;
          BestIsPull = true;
        }
      }
    }
    if (Best < 0)
      break; // no node has or can obtain work: done

    SimNode &N = Nodes[static_cast<std::size_t>(Best)];
    Topology Current;
    if (BestIsPull) {
      N.Stats.IdleTime += std::max(0.0, BestStart - Spec.PoolTransferCost -
                                            N.Clock);
      N.Clock = BestStart;
      Current = std::move(GlobalPool.front().Node);
      GlobalPool.pop_front();
      ++N.Stats.PulledFromGlobal;
    } else {
      Current = std::move(N.Local.back());
      N.Local.pop_back();
    }

    // Observe UB broadcasts that have reached this node by now. Event
    // times are not globally ordered (nodes advance at different rates),
    // and strict-improvement publications keep the list short, so a full
    // scan is both correct and cheap.
    for (const UbEvent &E : Events)
      if (E.Time + Spec.UbBroadcastLatency <= N.Clock)
        N.KnownUb = std::min(N.KnownUb, E.Value);

    // A branching is published when it completes, at Clock + BranchTime.
    const double BranchTime = Spec.BranchCost / N.Speed;
    const bool Branched = searchStep(
        Engine, std::move(Current), N.KnownUb, Stats, Arena, Children,
        ChildOrder::WorstFirst,
        [&](const Topology &Child) {
          const double Cost = Child.cost();
          if (Cost < N.KnownUb - Eps) {
            N.KnownUb = Cost;
            ++N.Stats.UbUpdates;
            Events.push_back(UbEvent{N.Clock + BranchTime, Cost});
            if (GlobalBest.offer(Child))
              ++Stats.UbUpdates;
          }
        },
        [&](BranchedChild &&Child) {
          N.Local.push_back(std::move(Child.Node));
        });
    const double Busy = Branched ? BranchTime : Spec.BoundCheckCost / N.Speed;
    N.Clock += Busy;
    N.Stats.BusyTime += Busy;
    N.Stats.FinishTime = N.Clock;
    if (!Branched)
      continue;
    ++N.Stats.Branched;

    // Donate the worst local node when the global pool is dry.
    if (Spec.UseGlobalPool && GlobalPool.empty() && N.Local.size() > 1) {
      GlobalPool.push_back(PoolEntry{std::move(N.Local.front()), N.Clock});
      N.Local.pop_front();
      ++N.Stats.DonatedToGlobal;
    }
  }

  double Makespan = Result.SeedTime;
  for (int I = 0; I < P; ++I) {
    SimNode &N = Nodes[static_cast<std::size_t>(I)];
    if (N.Stats.FinishTime == 0.0)
      N.Stats.FinishTime = N.Clock;
    Makespan = std::max(Makespan, N.Stats.FinishTime);
    Result.Nodes[static_cast<std::size_t>(I)] = N.Stats;
  }
  // Tail idle time: nodes that finished before the makespan.
  for (SimNodeStats &S : Result.Nodes)
    S.IdleTime += Makespan - S.FinishTime;
  Result.Makespan = Makespan;

  GlobalBest.finish(Result);
  return Result;
}

ClusterSimResult
mutk::simulateSequentialBaseline(const DistanceMatrix &M,
                                 const BnbOptions &Options) {
  ClusterSpec Spec;
  Spec.NumNodes = 1;
  Spec.UbBroadcastLatency = 0.0;
  Spec.PoolTransferCost = 0.0;
  return simulateClusterBnb(M, Spec, Options);
}

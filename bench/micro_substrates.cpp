//===- bench/micro_substrates.cpp - Substrate micro-benchmarks -------------===//
//
// Classic google-benchmark timings of the substrate layers: MST
// construction, compact-set detection and hierarchy linking, edit
// distance, UPGMM, the evolution simulator and the B&B branching
// primitive. Useful for regressions and for sizing the virtual-time cost
// model.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bnb/Arena.h"
#include "bnb/Engine.h"
#include "graph/CompactSets.h"
#include "graph/Hierarchy.h"
#include "graph/Mst.h"
#include "heur/NeighborJoining.h"
#include "heur/Upgma.h"
#include "seq/EditDistance.h"

#include <benchmark/benchmark.h>

using namespace mutk;

namespace {

void BM_KruskalMst(benchmark::State &State) {
  DistanceMatrix M = bench::unifWorkload(static_cast<int>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(kruskalMst(M).size());
}
BENCHMARK(BM_KruskalMst)->Arg(32)->Arg(128)->Arg(512);

void BM_CompactSetDetection(benchmark::State &State) {
  DistanceMatrix M =
      plantedClusterMetric(static_cast<int>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(findCompactSets(M).size());
}
BENCHMARK(BM_CompactSetDetection)->Arg(32)->Arg(128)->Arg(512);

void BM_CompactHierarchy(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  std::vector<CompactSet> Sets = findCompactSets(plantedClusterMetric(N, 1));
  for (auto _ : State)
    benchmark::DoNotOptimize(CompactHierarchy(N, Sets).numNodes());
}
BENCHMARK(BM_CompactHierarchy)->Arg(512);

void BM_EditDistanceFull(benchmark::State &State) {
  EvolutionSpec Spec;
  Spec.SequenceLength = static_cast<int>(State.range(0));
  EvolutionResult R = simulateEvolution(2, 5, Spec);
  for (auto _ : State)
    benchmark::DoNotOptimize(editDistance(R.Sequences[0], R.Sequences[1]));
}
BENCHMARK(BM_EditDistanceFull)->Arg(128)->Arg(512)->Arg(2048);

void BM_EditDistanceBandDoubling(benchmark::State &State) {
  EvolutionSpec Spec;
  Spec.SequenceLength = static_cast<int>(State.range(0));
  EvolutionResult R = simulateEvolution(2, 5, Spec);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        fastEditDistance(R.Sequences[0], R.Sequences[1]));
}
BENCHMARK(BM_EditDistanceBandDoubling)->Arg(128)->Arg(512)->Arg(2048);

void BM_Upgmm(benchmark::State &State) {
  DistanceMatrix M = bench::unifWorkload(static_cast<int>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(upgmm(M).weight());
}
BENCHMARK(BM_Upgmm)->Arg(16)->Arg(64)->Arg(256);

void BM_NeighborJoining(benchmark::State &State) {
  DistanceMatrix M = bench::unifWorkload(static_cast<int>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(neighborJoining(M).numNodes());
}
BENCHMARK(BM_NeighborJoining)->Arg(16)->Arg(64)->Arg(128);

void BM_EvolutionSim(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        simulateEvolution(static_cast<int>(State.range(0)), 7)
            .Sequences.size());
}
BENCHMARK(BM_EvolutionSim)->Arg(16)->Arg(32)->Arg(64);

void BM_HmdnaMatrix(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        hmdnaLikeMatrix(static_cast<int>(State.range(0)), 7).size());
}
BENCHMARK(BM_HmdnaMatrix)->Arg(16)->Arg(26);

void BM_BranchOneNode(benchmark::State &State) {
  DistanceMatrix M = bench::unifWorkload(static_cast<int>(State.range(0)), 1);
  BnbEngine Engine(M, {});
  // A mid-depth topology: insert half the species greedily.
  Topology T = Engine.rootTopology();
  while (T.numPlaced() < M.size() / 2)
    T = T.withNextSpeciesAt(0, Engine.relabeledMatrix());
  BnbStats Stats;
  TopologyArena Arena(Engine.numSpecies());
  std::vector<BranchedChild> Children;
  for (auto _ : State) {
    Engine.branch(T, Engine.initialUpperBound(), Stats, Children, &Arena);
    benchmark::DoNotOptimize(Children.size());
    for (BranchedChild &BC : Children)
      Arena.release(std::move(BC.Node));
  }
}
BENCHMARK(BM_BranchOneNode)->Arg(16)->Arg(32)->Arg(64);

} // namespace

BENCHMARK_MAIN();

//===- bench/paper/Tables.cpp - The reproduced papers' tables -------------===//
//
// One function per figure or ablation, registered at the end of this file
// under the name DESIGN.md §4 lists. Every solve goes through one memo, so
// an (instance, solver configuration) pair that several tables print runs
// once per process: Figures 8 and 9 share their solves, Figure 3 is
// Figures 1 and 2, and the NCS tables reuse the HPCAsia DNA runs.
//
//===----------------------------------------------------------------------===//

#include "Paper.h"

#include "../Workloads.h"

#include "bnb/BestFirstBnb.h"
#include "bnb/SequentialBnb.h"
#include "compact/CompactSetPipeline.h"
#include "redist/Baselines.h"
#include "redist/Scpa.h"
#include "sim/ClusterSim.h"
#include "support/Stopwatch.h"

#include <cmath>
#include <functional>
#include <map>
#include <span>
#include <tuple>

using namespace mutk;
using namespace paper;

namespace {

//===----------------------------------------------------------------------===//
// The solve memo
//===----------------------------------------------------------------------===//

/// The workloads of bench/Workloads.h: uniform random values 0..100, the
/// clock-like mitochondrial DNA and its hard variant.
enum class Data { Random, Dna, HardDna };

struct Instance {
  Data D;
  int N;
  std::uint64_t Seed;
};

/// Each instance's matrix, generated once: simulating the DNA workloads
/// takes longer than solving most of them.
const DistanceMatrix &matrixOf(const Instance &I) {
  static std::map<std::tuple<Data, int, std::uint64_t>, DistanceMatrix> Made;
  auto [It, New] = Made.try_emplace({I.D, I.N, I.Seed});
  if (New)
    It->second = I.D == Data::Random ? bench::unifWorkload(I.N, I.Seed)
                 : I.D == Data::Dna  ? bench::hmdnaWorkload(I.N, I.Seed)
                                     : bench::hardDnaWorkload(I.N, I.Seed);
  return It->second;
}

/// What the tables print of one solve. `Seconds` is wall clock (info);
/// the rest is deterministic.
struct Solve {
  double Cost = 0.0;
  std::uint64_t Branched = 0;
  double Seconds = 0.0;
  /// Virtual time and summed node idle time (simulated machines).
  double Makespan = 0.0;
  double Idle = 0.0;
  /// Largest best-first frontier.
  std::size_t PeakFrontier = 0;
  /// Pipeline: the tree dominates the matrix (d_T >= M), merge height
  /// clamps and SPR polish moves.
  bool Feasible = true;
  int HeightClamps = 0;
  int PolishMoves = 0;
};

enum class Engine { Sequential, BestFirst, Pipeline, Simulated };

/// Runs \p Solver on \p I's matrix unless the same engine, instance and
/// settings (\p A, \p B) already ran in this process.
const Solve &memo(Engine E, const Instance &I, int A, int B,
                  const std::function<Solve(const DistanceMatrix &)> &Solver) {
  using Key = std::tuple<Engine, Data, int, std::uint64_t, int, int>;
  static std::map<Key, Solve> Solved;
  Key K{E, I.D, I.N, I.Seed, A, B};
  auto It = Solved.find(K);
  if (It == Solved.end())
    It = Solved.emplace(K, Solver(matrixOf(I))).first;
  return It->second;
}

/// Every B&B solve runs under `bench::cappedBnb()`.
BnbOptions capped(ThreeThreeMode Mode = ThreeThreeMode::None) {
  BnbOptions Options = bench::cappedBnb();
  Options.ThreeThree = Mode;
  return Options;
}

const Solve &sequential(const Instance &I,
                        ThreeThreeMode Mode = ThreeThreeMode::None,
                        bool PolishedUb = false) {
  return memo(Engine::Sequential, I, static_cast<int>(Mode), PolishedUb,
              [&](const DistanceMatrix &M) {
                BnbOptions Options = capped(Mode);
                Options.ImproveInitialUpperBound = PolishedUb;
                Stopwatch W;
                MutResult R = solveMutSequential(M, Options);
                return Solve{.Cost = R.Cost,
                             .Branched = R.Stats.Branched,
                             .Seconds = W.seconds()};
              });
}

const Solve &bestFirst(const Instance &I) {
  return memo(Engine::BestFirst, I, 0, 0, [](const DistanceMatrix &M) {
    Stopwatch W;
    BestFirstResult R = solveMutBestFirst(M, capped());
    return Solve{.Cost = R.Cost,
                 .Branched = R.Stats.Branched,
                 .Seconds = W.seconds(),
                 .PeakFrontier = R.PeakFrontier};
  });
}

/// The compact-set pipeline at its defaults but for \p Mode and \p Polish.
const Solve &pipeline(const Instance &I,
                      CondenseMode Mode = CondenseMode::Maximum,
                      bool Polish = false) {
  return memo(Engine::Pipeline, I, static_cast<int>(Mode), Polish,
              [&](const DistanceMatrix &M) {
                PipelineOptions Options;
                Options.Mode = Mode;
                Options.PolishTopology = Polish;
                Stopwatch W;
                PipelineResult R = buildCompactSetTree(M, Options);
                return Solve{.Cost = R.Cost,
                             .Branched = R.TotalStats.Branched,
                             .Seconds = W.seconds(),
                             .Feasible = R.Tree.dominatesMatrix(M),
                             .HeightClamps = R.HeightClamps,
                             .PolishMoves = R.PolishMoves};
              });
}

/// The simulated machines (DESIGN.md §5.2): one node, the 16-node cluster
/// with and without its global pool, and the NCS grids.
enum class Machine { Single, Cluster16, Cluster16NoPool, Grid16, Grid24 };

ClusterSpec specOf(Machine On) {
  ClusterSpec Spec; // 16 speed-1 nodes, UB latency 4, pool transfer 2
  if (On == Machine::Cluster16NoPool)
    Spec.UseGlobalPool = false;
  if (On == Machine::Grid16 || On == Machine::Grid24) {
    Spec.NumNodes = On == Machine::Grid16 ? 16 : 24;
    // Internet-grade communication: an order of magnitude slower.
    Spec.UbBroadcastLatency = 40.0;
    Spec.PoolTransferCost = 20.0;
    // Mixed hardware: the NCS testbed used AMD 1.3G vs AMD 2000+ nodes.
    for (int I = 0; I < Spec.NumNodes; ++I)
      Spec.NodeSpeeds.push_back(I % 3 == 0 ? 0.6 : 0.9);
  }
  return Spec;
}

const Solve &simulated(const Instance &I, Machine On,
                       ThreeThreeMode Mode = ThreeThreeMode::None) {
  return memo(Engine::Simulated, I, static_cast<int>(On),
              static_cast<int>(Mode), [&](const DistanceMatrix &M) {
                Stopwatch W;
                ClusterSimResult R =
                    On == Machine::Single
                        ? simulateSequentialBaseline(M, capped(Mode))
                        : simulateClusterBnb(M, specOf(On), capped(Mode));
                double Idle = 0.0;
                for (const SimNodeStats &S : R.Nodes)
                  Idle += S.IdleTime;
                return Solve{.Cost = R.Cost,
                             .Branched = R.Stats.Branched,
                             .Seconds = W.seconds(),
                             .Makespan = R.Makespan,
                             .Idle = Idle};
              });
}

double br(const Solve &S) { return static_cast<double>(S.Branched); }

/// Share of \p Without that \p With saves, in percent.
double savedPct(double Without, double With) {
  return Without > 0 ? 100.0 * (Without - With) / Without : 0.0;
}

const char *yesNo(bool B) { return B ? "yes" : "NO"; }

const char *dataName(bool Dna) { return Dna ? "hmdna" : "random"; }

//===----------------------------------------------------------------------===//
// PaCT 2005 (primary paper)
//===----------------------------------------------------------------------===//

constexpr int PactRandomSweep[] = {12, 14, 16, 18, 20, 22};
constexpr std::uint64_t PactRandomSeeds = 5;

// "The computing time for random data set": time to construct the
// ultrametric tree with vs without compact sets. Paper claim: compact
// sets save between 77.19% and 99.7% of the computing time, growing with
// the number of species. Sub-millisecond solves make the wall-clock
// column noisy, so the saving is also stated in branched BBT nodes.
void pactFig08(Table &T) {
  bench::banner(
      "PaCT 2005 Figure 8: computing time, random data (values 0..100)",
      "Columns are mean wall seconds over 5 instances; paper claim: "
      "77.19%..99.7% time saved by compact sets. work-saved is the same "
      "saving in branched BBT nodes (deterministic).");
  std::printf("%8s %14s %14s %10s %11s\n", "species", "without-cs(s)",
              "with-cs(s)", "saved", "work-saved");
  std::vector<std::string> Misses;
  for (int N : PactRandomSweep) {
    std::vector<double> Without, With, WithoutBr, WithBr;
    for (std::uint64_t Seed = 1; Seed <= PactRandomSeeds; ++Seed) {
      const Solve &Full = sequential({Data::Random, N, Seed});
      const Solve &Fast = pipeline({Data::Random, N, Seed});
      Without.push_back(Full.Seconds);
      With.push_back(Fast.Seconds);
      WithoutBr.push_back(br(Full));
      WithBr.push_back(br(Fast));
    }
    T.row(N);
    double MeanWithout = T.info("without-cs(s)", bench::mean(Without));
    double MeanWith = T.info("with-cs(s)", bench::mean(With));
    double WorkSaved = T.exact(
        "work-saved", savedPct(bench::mean(WithoutBr), bench::mean(WithBr)));
    if (WorkSaved < 77.19)
      Misses.push_back(std::to_string(N));
    std::printf("%8d %14.4f %14.4f %9.2f%% %10.2f%%\n", N, MeanWithout,
                MeanWith, T.info("saved", savedPct(MeanWithout, MeanWith)),
                WorkSaved);
  }
  T.claim("compact sets save >= 77.19% of the branched nodes", Misses);
}

// "The total tree cost for random data set". Paper claim: costs are
// almost equal, the difference is less than 5%.
void pactFig09(Table &T) {
  bench::banner(
      "PaCT 2005 Figure 9: total tree cost, random data (values 0..100)",
      "Mean costs over 5 instances; paper claim: difference < 5%.");
  std::printf("%8s %14s %14s %10s\n", "species", "without-cs", "with-cs",
              "diff");
  double WorstDiff = 0.0;
  std::vector<std::string> Misses;
  for (int N : PactRandomSweep) {
    std::vector<double> Without, With;
    for (std::uint64_t Seed = 1; Seed <= PactRandomSeeds; ++Seed) {
      Without.push_back(sequential({Data::Random, N, Seed}).Cost);
      With.push_back(pipeline({Data::Random, N, Seed}).Cost);
    }
    T.row(N);
    double MeanWithout = T.exact("without-cs", bench::mean(Without));
    double MeanWith = T.exact("with-cs", bench::mean(With));
    double Diff =
        T.exact("diff", 100.0 * (MeanWith - MeanWithout) / MeanWithout);
    WorstDiff = std::max(WorstDiff, Diff);
    if (Diff >= 5.0)
      Misses.push_back(std::to_string(N));
    std::printf("%8d %14.3f %14.3f %9.2f%%\n", N, MeanWithout, MeanWith,
                Diff);
  }
  T.row("worst");
  std::printf("\nworst mean cost difference: %.2f%% (paper: < 5%%)\n",
              T.exact("diff", WorstDiff));
  T.claim("mean cost difference < 5% at every size", Misses);
}

/// Figures 10 and 12: cost with vs without compact sets per DNA dataset.
void dnaCost(Table &T, int NumSpecies, int NumDataSets,
             const char *FooterTail) {
  std::printf("%8s %14s %14s %10s\n", "dataset", "without-cs", "with-cs",
              "diff");
  double Worst = 0.0;
  std::vector<std::string> Misses;
  for (int Set = 1; Set <= NumDataSets; ++Set) {
    Instance I{Data::Dna, NumSpecies, static_cast<std::uint64_t>(Set)};
    T.row(Set);
    double Without = T.exact("without-cs", sequential(I).Cost);
    double With = T.exact("with-cs", pipeline(I).Cost);
    double Diff = T.exact(
        "diff", Without > 0 ? 100.0 * (With - Without) / Without : 0.0);
    Worst = std::max(Worst, Diff);
    if (Diff >= 1.5)
      Misses.push_back(std::to_string(Set));
    std::printf("%8d %14.3f %14.3f %9.2f%%\n", Set, Without, With, Diff);
  }
  T.row("max");
  std::printf("\nmax cost difference: %.2f%%%s\n", T.exact("diff", Worst),
              FooterTail);
  T.claim("cost difference < 1.5% on every dataset", Misses);
}

/// Figures 11 and 13: wall seconds with vs without compact sets per DNA
/// dataset, and the branched nodes behind the "without" time.
void dnaTime(Table &T, int NumSpecies, int NumDataSets) {
  std::printf("%8s %14s %14s %12s\n", "dataset", "without-cs(s)",
              "with-cs(s)", "branched-wo");
  for (int Set = 1; Set <= NumDataSets; ++Set) {
    Instance I{Data::Dna, NumSpecies, static_cast<std::uint64_t>(Set)};
    const Solve &Full = sequential(I);
    T.row(Set);
    double TWithout = T.info("without-cs(s)", Full.Seconds);
    double TWith = T.info("with-cs(s)", pipeline(I).Seconds);
    std::printf("%8d %14.4f %14.4f %12llu\n", Set, TWithout, TWith,
                static_cast<unsigned long long>(
                    T.exact("branched-wo", br(Full))));
  }
}

// "The total tree cost of 26 DNAs": 15 datasets of 26 Human
// Mitochondrial DNAs each. Paper claim: the maximum difference is 1.5%.
void pactFig10(Table &T) {
  bench::banner("PaCT 2005 Figure 10: total tree cost, 15 datasets x 26 DNAs",
                "Synthetic mitochondrial DNA (DESIGN.md 5.1); paper claim: "
                "max cost difference 1.5%.");
  dnaCost(T, 26, 15, " (paper: 1.5%)");
}

// "The computing time of 26 DNAs". Paper observation: "using compact
// sets can definitely save time but unexpectedly the experiments without
// compact sets also take little time except the last data" —
// mitochondrial data is close to a molecular clock, so the plain B&B
// prunes well too, and the savings are dataset-dependent.
void pactFig11(Table &T) {
  bench::banner(
      "PaCT 2005 Figure 11: computing time, 15 datasets x 26 DNAs",
      "Wall seconds per dataset; paper observation: both conditions are "
      "fast on DNA data, with occasional expensive datasets.");
  dnaTime(T, 26, 15);
}

// "The total tree cost of 30 DNAs": compact sets keep the cost down on
// 30 DNAs just as on 26 DNAs and on generated data.
void pactFig12(Table &T) {
  bench::banner("PaCT 2005 Figure 12: total tree cost, 10 datasets x 30 DNAs",
                "Paper claim: compact sets keep the cost close to the "
                "non-decomposed construction.");
  dnaCost(T, 30, 10, "");
}

// "The computing time of 30 DNAs": alike that on 26 DNAs.
void pactFig13(Table &T) {
  bench::banner(
      "PaCT 2005 Figure 13: computing time, 10 datasets x 30 DNAs",
      "Wall seconds per dataset; expected to look like the 26-DNA runs "
      "(Figure 11).");
  dnaTime(T, 30, 10);
}

//===----------------------------------------------------------------------===//
// HPCAsia 2005 (parallel B&B substrate)
//
// The paper's times are wall seconds on a real cluster; here "computing
// time" is the deterministic virtual makespan of the cluster simulation
// (one unit = one branched BBT node on a speed-1 node).
//===----------------------------------------------------------------------===//

constexpr int HpcDnaSweep[] = {12, 16, 20, 24, 26};
constexpr std::uint64_t HpcDnaSeeds = 5;
constexpr int HpcRandomSweep[] = {12, 14, 16, 18, 20, 22};
constexpr std::uint64_t HpcRandomSeeds = 3;

/// Figures 1, 2, 5 and 7: mean/median/max makespan per species count.
/// \returns the means, in sweep order.
std::vector<double> makespans(Table &T, Data D, std::span<const int> Sweep,
                              std::uint64_t Seeds, Machine On) {
  std::printf("%8s %12s %12s %12s\n", "species", "mean", "median", "max");
  std::vector<double> Means;
  for (int N : Sweep) {
    std::vector<double> Times;
    for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed)
      Times.push_back(simulated({D, N, Seed}, On).Makespan);
    T.row(N);
    Means.push_back(T.exact("mean", bench::mean(Times)));
    std::printf("%8d %12.1f %12.1f %12.1f\n", N, Means.back(),
                T.exact("median", bench::median(Times)),
                T.exact("max", bench::maxOf(Times)));
  }
  return Means;
}

// "The computing time for 16 processors, HMDNA". Paper shape: effective
// when the number of species grows.
void hpcFig01(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 1: computing time, 16 simulated nodes, HMDNA",
      "Virtual makespan units, mean/median/max over 5 datasets per size; "
      "paper shape: effective when the number of species grows, optimal "
      "trees for the full sweep within reasonable time.");
  makespans(T, Data::HardDna, HpcDnaSweep, HpcDnaSeeds, Machine::Cluster16);
}

// "The computing time for single processor, HMDNA": unendurable past ~26
// species on one processor. The claim compares with Figure 1's 16 nodes.
void hpcFig02(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 2: computing time, single processor, HMDNA",
      "Virtual makespan units (1-node baseline), 5 datasets per size.");
  std::vector<double> Single = makespans(T, Data::HardDna, HpcDnaSweep,
                                         HpcDnaSeeds, Machine::Single);
  std::vector<std::string> Misses;
  for (std::size_t K = 0; K < Single.size(); ++K) {
    int N = HpcDnaSweep[K];
    if (N < 20)
      continue;
    std::vector<double> Par;
    for (std::uint64_t Seed = 1; Seed <= HpcDnaSeeds; ++Seed)
      Par.push_back(
          simulated({Data::HardDna, N, Seed}, Machine::Cluster16).Makespan);
    if (10.0 * bench::mean(Par) > Single[K])
      Misses.push_back(std::to_string(N));
  }
  T.claim("at n >= 20 the 16-node mean (Figure 1) is at least 10x below "
          "the 1-node mean",
          Misses);
}

/// Figures 3 and 6: per-instance speedup of 16 nodes over one, times
/// printed \p Width wide. \returns the number of super-linear rows.
int speedups(Table &T, Data D, std::span<const int> Sweep,
             std::uint64_t Seeds, int Width) {
  std::printf("%8s %6s %*s %*s %10s %10s %8s\n", "species", "seed", Width,
              "seq-time", Width, "par-time", "seq-br", "par-br", "speedup");
  int SuperLinear = 0, Total = 0;
  for (int N : Sweep) {
    for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      const Solve &Seq = simulated({D, N, Seed}, Machine::Single);
      const Solve &Par = simulated({D, N, Seed}, Machine::Cluster16);
      T.row(N, Seed);
      double Speedup = T.exact(
          "speedup", Par.Makespan > 0 ? Seq.Makespan / Par.Makespan : 1.0);
      ++Total;
      if (Speedup > 16.0)
        ++SuperLinear;
      std::printf("%8d %6llu %*.1f %*.1f %10llu %10llu %8.2f%s\n", N,
                  static_cast<unsigned long long>(Seed), Width,
                  T.exact("seq-time", Seq.Makespan), Width,
                  T.exact("par-time", Par.Makespan),
                  static_cast<unsigned long long>(T.exact("seq-br", br(Seq))),
                  static_cast<unsigned long long>(T.exact("par-br", br(Par))),
                  Speedup, Speedup > 16.0 ? "  <-- super-linear" : "");
    }
  }
  T.row("total");
  T.exact("super-linear", SuperLinear);
  std::printf("\nsuper-linear cases: %d of %d\n", SuperLinear, Total);
  return SuperLinear;
}

// "Speedup (16 processors vs. single processor, HMDNA)". Paper claim: the
// parallel B&B achieves super-linear speedup on some instances — early
// upper-bound sharing prunes work the sequential order never avoids.
void hpcFig03(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 3: speedup 16 vs 1 node, HMDNA",
      "Speedup = makespan(1 node) / makespan(16 nodes); > 16 is "
      "super-linear (the paper's headline observation). Sequential and "
      "parallel branched-node counts explain the effect.");
  speedups(T, Data::HardDna, HpcDnaSweep, HpcDnaSeeds, 10);
}

/// Figures 4 and 8: 16 nodes with vs without the 3-3 relationship.
void threeThree(Table &T, Data D, std::span<const int> Sweep,
                std::uint64_t Seeds) {
  std::printf("%8s %14s %14s %14s %12s\n", "species", "without-33",
              "with-33", "nodes saved", "same optimum");
  for (int N : Sweep) {
    std::vector<double> Without, With;
    double BranchSavedTotal = 0.0;
    bool SameOptimum = true;
    for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      const Solve &A = simulated({D, N, Seed}, Machine::Cluster16);
      const Solve &B = simulated({D, N, Seed}, Machine::Cluster16,
                                 ThreeThreeMode::ThirdSpecies);
      Without.push_back(A.Makespan);
      With.push_back(B.Makespan);
      BranchSavedTotal += br(A) - br(B);
      SameOptimum &= std::fabs(A.Cost - B.Cost) < 1e-9;
    }
    T.row(N);
    std::printf("%8d %14.1f %14.1f %14.0f %12s\n", N,
                T.exact("without-33", bench::mean(Without)),
                T.exact("with-33", bench::mean(With)),
                T.exact("nodes saved",
                        BranchSavedTotal / static_cast<double>(Seeds)),
                yesNo(T.exact("same optimum", SameOptimum)));
  }
}

// "The computing time for 16 processors (with 3-3 relationship vs.
// without 3-3 relationship, HMDNA)". Paper claims: the 3-3 relationship
// reduces computing time as the species count grows, and the result
// trees with 3-3 are a subset of the results without it (same optimum).
void hpcFig04(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 4: 16 nodes, with vs without 3-3, HMDNA",
      "Virtual makespan units (mean of 5 datasets); 'same optimum' checks "
      "the paper's subset claim.");
  threeThree(T, Data::HardDna, HpcDnaSweep, HpcDnaSeeds);
}

// "The computing time for 16 processors, Random Data". Paper shape:
// supreme performance, optimal trees within reasonable time.
void hpcFig05(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 5: computing time, 16 simulated nodes, random "
      "data (0..100)",
      "Virtual makespan units, 3 instances per size.");
  makespans(T, Data::Random, HpcRandomSweep, HpcRandomSeeds,
            Machine::Cluster16);
}

// "Speedup (16 processor vs. single processor, Random Data)". Paper
// claim: super-linear speedup on random instances too.
void hpcFig06(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 6: speedup 16 vs 1 node, random data (0..100)",
      "Speedup = makespan(1) / makespan(16); > 16 is super-linear.");
  T.claim("at least one super-linear row",
          speedups(T, Data::Random, HpcRandomSweep, HpcRandomSeeds, 12) > 0);
}

// "The computing time for single processor, Random Data". Paper shape:
// rapid (exponential) growth with the number of species on one
// processor — random matrices are the hard case.
void hpcFig07(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 7: computing time, single processor, random "
      "data (0..100)",
      "Virtual makespan units (1-node baseline), 3 instances per size; "
      "expect rapid growth.");
  makespans(T, Data::Random, HpcRandomSweep, HpcRandomSeeds,
            Machine::Single);
}

// Figure 4's comparison on the hard random workload.
void hpcFig08(Table &T) {
  bench::banner(
      "HPCAsia 2005 Figure 8: 16 nodes, with vs without 3-3, random data",
      "Virtual makespan units (mean of 3 instances); optimality is "
      "preserved whenever the matrix triples are tree-consistent.");
  threeThree(T, Data::Random, HpcRandomSweep, HpcRandomSeeds);
}

//===----------------------------------------------------------------------===//
// NCS 2005 (environments)
//===----------------------------------------------------------------------===//

// The NCS 2005 companion paper compares three environments on human
// mitochondrial data: a single machine, a 16-node cluster, and a grid
// (heterogeneous nodes, slower interconnect). Tables 3-5 report the
// median / mean / worst computing time per species count; Table 6 /
// Figure 7 shows that a grid with 24 (weaker) nodes beats the 16-node
// cluster. All environments are simulated machines (`specOf`).
void ncsGridTables(Table &T) {
  constexpr int Sweep[] = {12, 14, 16, 18, 20, 22};
  constexpr std::uint64_t Seeds = 5;
  bench::banner(
      "NCS 2005 Tables 3-5 / Figures 4-6: single vs cluster(16) vs "
      "grid(16) on DNA data",
      "Virtual makespan units over 5 datasets per size. Paper shape: "
      "single machine is worst; cluster and grid are comparable at equal "
      "node counts (the grid pays communication overhead).");
  std::printf("%8s | %10s %10s %10s | %10s %10s %10s | %10s %10s %10s\n",
              "", "single", "", "", "cluster16", "", "", "grid16", "", "");
  std::printf("%8s | %10s %10s %10s | %10s %10s %10s | %10s %10s %10s\n",
              "species", "median", "mean", "worst", "median", "mean",
              "worst", "median", "mean", "worst");
  for (int N : Sweep) {
    T.row(N);
    std::printf("%8d", N);
    for (auto [On, Name] : {std::pair{Machine::Single, "single"},
                            std::pair{Machine::Cluster16, "cluster16"},
                            std::pair{Machine::Grid16, "grid16"}}) {
      std::vector<double> Times;
      for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed)
        Times.push_back(simulated({Data::HardDna, N, Seed}, On).Makespan);
      std::string Column = Name;
      std::printf(" | %10.1f %10.1f %10.1f",
                  T.exact((Column + "-median").c_str(), bench::median(Times)),
                  T.exact((Column + "-mean").c_str(), bench::mean(Times)),
                  T.exact((Column + "-worst").c_str(), bench::maxOf(Times)));
    }
    std::printf("\n");
  }

  bench::banner(
      "NCS 2005 Table 6 / Figure 7: cluster(16) vs grid(16) vs grid(24)",
      "Paper claim: with 24 nodes the grid overtakes the 16-node cluster "
      "despite slower communication and weaker nodes.");
  std::printf("%8s %6s %12s %12s %12s\n", "species", "seed", "cluster16",
              "grid16", "grid24");
  int Grid24Wins = 0, Rows = 0;
  for (int N : {22, 24, 26}) {
    for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      Instance I{Data::HardDna, N, Seed};
      T.row(N, Seed);
      double C16 =
          T.exact("cluster16", simulated(I, Machine::Cluster16).Makespan);
      double G16 = T.exact("grid16", simulated(I, Machine::Grid16).Makespan);
      double G24 = T.exact("grid24", simulated(I, Machine::Grid24).Makespan);
      ++Rows;
      if (G24 < C16)
        ++Grid24Wins;
      std::printf("%8d %6llu %12.1f %12.1f %12.1f%s\n", N,
                  static_cast<unsigned long long>(Seed), C16, G16, G24,
                  G24 < C16 ? "  <-- grid24 beats cluster16" : "");
    }
  }
  T.row("total");
  std::printf("\ngrid(24) beats cluster(16) in %d of %d rows (the "
              "compute-dominant datasets, matching the paper's "
              "long-running instances; on tiny datasets the grid's "
              "communication overhead dominates)\n",
              static_cast<int>(T.exact("grid24-wins", Grid24Wins)), Rows);
  T.claim("grid24 beats cluster16 on at least one row", Grid24Wins > 0);
}

//===----------------------------------------------------------------------===//
// APPT 2005 (SCPA companion paper)
//===----------------------------------------------------------------------===//

// SCPA against the divide-and-conquer scheduler on random GEN_BLOCK
// redistributions: Figure 10 (uneven distribution, sizes in [0.3, 1.5] x
// mean) and Figure 11 (even, [0.7, 1.3] x mean), sweeping processor
// counts and total message volume, reporting the percentage of events
// where each algorithm's total cost is lower. The DCA comparator is
// reimplemented from its description (order-driven divide-and-conquer
// merging); a stronger first-fit-decreasing scheduler is reported
// alongside for context (DESIGN.md §5.5).
//
// EXPERIMENTS.md names the two cells below the paper's 85%: uneven, 8
// processors x 1,048,576 elements (83%) and 16 x 65,536 (82%).
void scpaSweep(Table &T, const char *Label, double Lo, double Hi,
               std::vector<std::string> &Misses) {
  constexpr int EventsPerCell = 100;
  std::printf("%s distribution (segment sizes in [%.1f, %.1f] x mean):\n",
              Label, Lo, Hi);
  std::printf("%8s %12s | %11s %6s %10s | %12s | %12s\n", "procs",
              "elements", "scpa-better", "equal", "dca-better",
              "scpa-win+tie", "vs-ffd w+t");
  for (int P : {8, 16, 24}) {
    for (long Total : {1L << 16, 1L << 20}) {
      int ScpaBetter = 0, Equal = 0, DcaBetter = 0, VsFfd = 0;
      for (int Event = 0; Event < EventsPerCell; ++Event) {
        std::uint64_t Seed =
            static_cast<std::uint64_t>(Event) * 7919 + P * 131 +
            static_cast<std::uint64_t>(Total);
        GenBlock S = randomGenBlock(P, Total, Lo, Hi, Seed);
        GenBlock D = randomGenBlock(P, Total, Lo, Hi, Seed + 1);
        auto Messages = generateMessages(S, D);
        long Scpa = scheduleScpa(Messages, P).totalStepMaxima(Messages);
        long Dca =
            scheduleDivideConquer(Messages, P).totalStepMaxima(Messages);
        long Ffd = scheduleGreedyFfd(Messages, P).totalStepMaxima(Messages);
        if (Scpa < Dca)
          ++ScpaBetter;
        else if (Scpa == Dca)
          ++Equal;
        else
          ++DcaBetter;
        if (Scpa <= Ffd)
          ++VsFfd;
      }
      T.row(Label, P, Total);
      T.exact("scpa-better", ScpaBetter);
      T.exact("equal", Equal);
      T.exact("dca-better", DcaBetter);
      T.exact("scpa-win+tie", ScpaBetter + Equal);
      T.exact("vs-ffd w+t", VsFfd);
      bool Named = std::string(Label) == "Uneven" &&
                   ((P == 8 && Total == 1L << 20) ||
                    (P == 16 && Total == 1L << 16));
      if (ScpaBetter + Equal < 85 && !Named)
        Misses.push_back(std::string(Label) + "/" + std::to_string(P) + "/" +
                         std::to_string(Total));
      std::printf("%8d %12ld | %10d%% %5d%% %9d%% | %11d%% | %11d%%\n", P,
                  Total, ScpaBetter, Equal, DcaBetter, ScpaBetter + Equal,
                  VsFfd);
    }
  }
  std::printf("\n");
}

void scpaFig10to11(Table &T) {
  bench::banner("APPT 2005 Figures 10-11: SCPA vs divide-and-conquer, "
                "percentage of winning events",
                "Paper claim: SCPA at least as good in >= 85% of events on "
                "both uneven and even GEN_BLOCK distributions. The last "
                "column scores SCPA against the stronger first-fit-"
                "decreasing scheduler for context.");
  std::vector<std::string> Misses;
  scpaSweep(T, "Uneven", 0.3, 1.5, Misses);
  scpaSweep(T, "Even", 0.7, 1.3, Misses);
  T.claim("SCPA wins or ties in >= 85% of events, except uneven 8 x "
          "1048576 and 16 x 65536",
          Misses);
}

//===----------------------------------------------------------------------===//
// Ablations
//===----------------------------------------------------------------------===//

const char *modeName(CondenseMode Mode) {
  switch (Mode) {
  case CondenseMode::Maximum:
    return "maximum";
  case CondenseMode::Minimum:
    return "minimum";
  case CondenseMode::Average:
    return "average";
  }
  return "?";
}

// The paper's §3.1 design choice between the three condensed-matrix
// variants. The paper only evaluates *maximum*; this table shows why: it
// is the only mode whose merged tree is guaranteed feasible (d_T >= M),
// while min/avg trade feasibility for lower cost.
void ablationCondenseModes(Table &T) {
  bench::banner(
      "Ablation: condensed-matrix mode (paper §3.1 studies 'maximum')",
      "Per mode: tree cost (relative to the exact optimum), whether the "
      "tree stays feasible for M, and merge height clamps.");
  std::printf("%8s %6s %9s | %9s %9s %9s %7s\n", "species", "seed",
              "optimum", "mode", "cost", "feasible", "clamps");
  for (int N : {14, 18, 22}) {
    for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
      Instance I{Data::Random, N, Seed};
      double Optimum = sequential(I).Cost;
      for (CondenseMode Mode : {CondenseMode::Maximum, CondenseMode::Minimum,
                                CondenseMode::Average}) {
        const Solve &R = pipeline(I, Mode);
        T.row(N, Seed, modeName(Mode));
        std::printf("%8d %6llu %9.2f | %9s %9.2f %9s %7d\n", N,
                    static_cast<unsigned long long>(Seed),
                    T.exact("optimum", Optimum), modeName(Mode),
                    T.exact("cost", R.Cost),
                    yesNo(T.exact("feasible", R.Feasible)),
                    static_cast<int>(T.exact("clamps", R.HeightClamps)));
      }
    }
  }
}

const char *modeName(ThreeThreeMode Mode) {
  switch (Mode) {
  case ThreeThreeMode::None:
    return "none";
  case ThreeThreeMode::ThirdSpecies:
    return "third";
  case ThreeThreeMode::AllInsertions:
    return "all";
  }
  return "?";
}

// The HPCAsia paper applies the 3-3 constraint only when inserting the
// third species and names extending it to every insertion as future work
// ("we can extend this feature and speedup the process"). This table
// quantifies that extension.
void ablation33Modes(Table &T) {
  bench::banner(
      "Ablation: 3-3 relationship pruning (none / third-species / all "
      "insertions)",
      "Branched BBT nodes and cost per mode. On clock-like (DNA) data "
      "'third' preserves the optimum (the paper's observation); on "
      "clock-violating random data both modes are heuristics that can "
      "drift by a fraction of a percent while cutting the search hard.");
  std::printf("%9s %8s %6s | %10s %12s %10s\n", "workload", "species",
              "seed", "mode", "branched", "cost");
  for (int N : {14, 18, 22}) {
    for (std::uint64_t Seed = 1; Seed <= 2; ++Seed) {
      for (bool Dna : {false, true}) {
        for (ThreeThreeMode Mode :
             {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies,
              ThreeThreeMode::AllInsertions}) {
          const Solve &R =
              sequential({Dna ? Data::Dna : Data::Random, N, Seed}, Mode);
          T.row(dataName(Dna), N, Seed, modeName(Mode));
          std::printf("%9s %8d %6llu | %10s %12llu %10.2f\n", dataName(Dna),
                      N, static_cast<unsigned long long>(Seed),
                      modeName(Mode),
                      static_cast<unsigned long long>(
                          T.exact("branched", br(R))),
                      T.exact("cost", R.Cost));
        }
      }
    }
  }
}

// The papers' two-level load balancing ("we used global pool and local
// pool as a load balancing mechanism so computing nodes never idle"):
// without donation, nodes that bounded away their initial deal sit idle
// and the makespan stretches.
void ablationLoadBalance(Table &T) {
  bench::banner(
      "Ablation: global-pool load balancing on the 16-node simulation",
      "Makespan and total idle time with and without the global pool; "
      "costs stay optimal either way.");
  std::printf("%9s %8s %6s | %12s %12s | %12s %12s\n", "workload",
              "species", "seed", "makespan+GP", "idle+GP", "makespan-GP",
              "idle-GP");
  for (int N : {16, 20, 22}) {
    for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
      for (bool Dna : {false, true}) {
        Instance I{Dna ? Data::Dna : Data::Random, N, Seed};
        const Solve &A = simulated(I, Machine::Cluster16);
        const Solve &B = simulated(I, Machine::Cluster16NoPool);
        T.row(dataName(Dna), N, Seed);
        std::printf("%9s %8d %6llu | %12.1f %12.1f | %12.1f %12.1f\n",
                    dataName(Dna), N, static_cast<unsigned long long>(Seed),
                    T.exact("makespan+GP", A.Makespan),
                    T.exact("idle+GP", A.Idle),
                    T.exact("makespan-GP", B.Makespan),
                    T.exact("idle-GP", B.Idle));
      }
    }
  }
}

// Algorithm BBU's Step 6/7 uses DFS ("v = get the tree for branch using
// DFS") because local pools are stacks; a best-first queue expands fewer
// nodes but holds the whole frontier in memory.
void ablationSearchOrder(Table &T) {
  bench::banner(
      "Ablation: search order (the paper's DFS vs best-first)",
      "Branched nodes and peak frontier per instance. Best-first wins on "
      "tie-free (random) data; on plateau-heavy DNA data DFS reaches a "
      "complete tree (and thus the pruning bound) sooner and can branch "
      "fewer. DFS never holds more than O(depth * branching) nodes.");
  std::printf("%9s %8s %6s | %12s | %12s %14s\n", "workload", "species",
              "seed", "dfs-branched", "bf-branched", "bf-peak-front");
  for (int N : {14, 18, 22}) {
    for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
      for (bool Dna : {false, true}) {
        Instance I{Dna ? Data::HardDna : Data::Random, N, Seed};
        const Solve &Bf = bestFirst(I);
        T.row(dataName(Dna), N, Seed);
        std::printf(
            "%9s %8d %6llu | %12llu | %12llu %14zu\n", dataName(Dna), N,
            static_cast<unsigned long long>(Seed),
            static_cast<unsigned long long>(
                T.exact("dfs-branched", br(sequential(I)))),
            static_cast<unsigned long long>(T.exact("bf-branched", br(Bf))),
            static_cast<std::size_t>(
                T.exact("bf-peak-front",
                        static_cast<double>(Bf.PeakFrontier))));
      }
    }
  }
}

// The papers' named future work: "we can extend this feature and speedup
// the process of constructing evolutionary trees". The SPR polish on the
// compact-set pipeline: how much of the gap to the exact optimum it
// closes, at what cost in moves — including the regime where the
// pipeline's block-size cap forced UPGMM fallbacks. Then the polish as
// the exact B&B's initial upper bound.
void ablationSprPolish(Table &T) {
  bench::banner(
      "Ablation: SPR polish on the compact-set pipeline",
      "gap = cost above the exact optimum; the polish should close most "
      "of the gap left by decomposition and UPGMM fallbacks.");
  std::printf("%8s %6s %10s | %9s %8s | %9s %8s %6s\n", "species", "seed",
              "optimum", "plain", "gap", "polished", "gap", "moves");
  for (int N : {16, 20, 24}) {
    for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
      Instance I{Data::Random, N, Seed};
      double Optimum = sequential(I).Cost;
      const Solve &A = pipeline(I);
      const Solve &B = pipeline(I, CondenseMode::Maximum, /*Polish=*/true);
      auto gap = [&](double Cost) {
        return Optimum > 0 ? 100.0 * (Cost - Optimum) / Optimum : 0.0;
      };
      T.row(N, Seed);
      std::printf("%8d %6llu %10.2f | %9.2f %7.2f%% | %9.2f %7.2f%% %6d\n",
                  N, static_cast<unsigned long long>(Seed),
                  T.exact("optimum", Optimum), T.exact("plain", A.Cost),
                  T.exact("plain-gap", gap(A.Cost)),
                  T.exact("polished", B.Cost),
                  T.exact("polished-gap", gap(B.Cost)),
                  static_cast<int>(T.exact("moves", B.PolishMoves)));
    }
  }

  bench::banner(
      "Extension: SPR-polished initial upper bound for the exact B&B",
      "A tighter feasible seed prunes the BBT harder at a fixed polish "
      "cost; same provable optimum.");
  std::printf("%8s %6s | %12s %12s | %10s %10s\n", "species", "seed",
              "plain-br", "polished-br", "plain-cost", "seed-cost");
  for (int N : {16, 20, 22}) {
    for (std::uint64_t Seed = 1; Seed <= 2; ++Seed) {
      Instance I{Data::Random, N, Seed};
      const Solve &Plain = sequential(I);
      const Solve &Seeded =
          sequential(I, ThreeThreeMode::None, /*PolishedUb=*/true);
      T.row("ub", N, Seed);
      std::printf("%8d %6llu | %12llu %12llu | %10.2f %10.2f\n", N,
                  static_cast<unsigned long long>(Seed),
                  static_cast<unsigned long long>(
                      T.exact("plain-br", br(Plain))),
                  static_cast<unsigned long long>(
                      T.exact("polished-br", br(Seeded))),
                  T.exact("plain-cost", Plain.Cost),
                  T.exact("seed-cost", Seeded.Cost));
    }
  }
}

} // namespace

const std::vector<TableDef> &paper::tables() {
  static const std::vector<TableDef> All = {
      {"pact_fig08_time_random", pactFig08},
      {"pact_fig09_cost_random", pactFig09},
      {"pact_fig10_cost_hmdna26", pactFig10},
      {"pact_fig11_time_hmdna26", pactFig11},
      {"pact_fig12_cost_hmdna30", pactFig12},
      {"pact_fig13_time_hmdna30", pactFig13},
      {"hpc_fig01_time_p16_hmdna", hpcFig01},
      {"hpc_fig02_time_p1_hmdna", hpcFig02},
      {"hpc_fig03_speedup_hmdna", hpcFig03},
      {"hpc_fig04_33_hmdna", hpcFig04},
      {"hpc_fig05_time_p16_random", hpcFig05},
      {"hpc_fig06_speedup_random", hpcFig06},
      {"hpc_fig07_time_p1_random", hpcFig07},
      {"hpc_fig08_33_random", hpcFig08},
      {"ncs_grid_tables", ncsGridTables},
      {"scpa_fig10_11_redistribution", scpaFig10to11},
      {"ablation_condense_modes", ablationCondenseModes},
      {"ablation_33_modes", ablation33Modes},
      {"ablation_load_balance", ablationLoadBalance},
      {"ablation_search_order", ablationSearchOrder},
      {"ablation_spr_polish", ablationSprPolish},
  };
  return All;
}

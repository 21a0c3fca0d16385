//===- bench/Workloads.h - Shared benchmark harness helpers -----*- C++ -*-===//
///
/// \file
/// Workload constructors, aggregation helpers and the table banner
/// shared by `paper/mutk_paper`, which prints every paper table and
/// ablation, and by the extension benchmarks (`ext_*`,
/// `micro_substrates`), which print their table and then run their
/// Google Benchmark timings. Seeds are fixed so every table reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_WORKLOADS_H
#define MUTK_BENCH_WORKLOADS_H

#include "bnb/BnbOptions.h"
#include "matrix/Generators.h"
#include "seq/EvolutionSim.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

namespace bench {

/// The HPCAsia/PaCT "randomly generated data sample set, values 0..100".
inline mutk::DistanceMatrix unifWorkload(int NumSpecies,
                                         std::uint64_t Seed) {
  return mutk::uniformRandomMetric(NumSpecies, Seed, 1.0, 100.0);
}

/// The synthetic Human-Mitochondrial-DNA-like workload (DESIGN.md §5.1);
/// close to a molecular clock, so plain B&B prunes well — this is the
/// PaCT paper's Figure 10-13 regime ("without compact sets also takes
/// little time").
inline mutk::DistanceMatrix hmdnaWorkload(int NumSpecies,
                                          std::uint64_t Seed) {
  return mutk::hmdnaLikeMatrix(NumSpecies, Seed);
}

/// A harder DNA workload: shorter sequences, heavier substitution and
/// strong lineage rate heterogeneity. Matches the difficulty profile of
/// the HPCAsia/NCS mitochondrial runs (hours past 26 species on one
/// processor, strong per-dataset variance).
inline mutk::DistanceMatrix hardDnaWorkload(int NumSpecies,
                                            std::uint64_t Seed) {
  mutk::EvolutionSpec Spec;
  Spec.SequenceLength = 120;
  Spec.SubstitutionRate = 0.5;
  Spec.RateVariation = 1.2;
  return mutk::hmdnaLikeMatrix(NumSpecies, Seed, Spec);
}

/// Diameter every reusable module is scaled to, and the inter-module
/// distance used when composing them. Separation > 2 * diameter keeps
/// each module a compact set of the composition (paper §2, Definition 3)
/// and makes the composition ultrametric whenever the modules are.
inline constexpr double ModuleDiameter = 20.0;
inline constexpr double ModuleSeparation = 80.0;

/// A reusable "module": a small ultrametric matrix identified by
/// (Size, Seed) and scaled to `ModuleDiameter`. The same module embedded
/// in different compositions condenses to byte-identical blocks, so its
/// fingerprint — and its block-cache entry — is shared across requests.
inline mutk::DistanceMatrix moduleWorkload(int Size, std::uint64_t Seed) {
  return mutk::scaledToMax(mutk::randomUltrametricMatrix(Size, Seed),
                           ModuleDiameter);
}

/// A module with no internal compact sets at all: distances drawn
/// uniformly from [0.9, 1.0] * ModuleDiameter. Near-equidistant species
/// admit no compact subset (every candidate's internal diameter matches
/// its external distances), so condensation cannot split the module and
/// branch-and-bound prunes poorly — each hard module costs one genuine
/// solve, the regime where replaying a cached block subtree saves real
/// work.
inline mutk::DistanceMatrix hardModuleWorkload(int Size, std::uint64_t Seed) {
  return mutk::scaledToMax(
      mutk::uniformRandomMetric(Size, Seed, 0.9 * ModuleDiameter,
                                ModuleDiameter),
      ModuleDiameter);
}

/// Composes the given (Size, Seed) modules block-diagonally, with every
/// cross-module distance equal to `ModuleSeparation`. The result is a
/// metric (ultrametric when every module is), and under Maximum
/// condensation each module is recovered as one compact-set block whose
/// condensed matrix depends only on that module — not on which
/// composition it appears in. \p Module selects the module constructor
/// (`moduleWorkload` or `hardModuleWorkload`).
inline mutk::DistanceMatrix composeModules(
    const std::vector<std::pair<int, std::uint64_t>> &Modules,
    mutk::DistanceMatrix (*Module)(int, std::uint64_t) = &moduleWorkload) {
  int Total = 0;
  for (const auto &Spec : Modules)
    Total += Spec.first;
  mutk::DistanceMatrix Out(Total);
  for (int I = 0; I < Total; ++I)
    for (int J = I + 1; J < Total; ++J)
      Out.set(I, J, ModuleSeparation);
  int Offset = 0;
  for (const auto &Spec : Modules) {
    mutk::DistanceMatrix Block = Module(Spec.first, Spec.second);
    for (int I = 0; I < Block.size(); ++I)
      for (int J = I + 1; J < Block.size(); ++J)
        Out.set(Offset + I, Offset + J, Block.at(I, J));
    Offset += Spec.first;
  }
  return Out;
}

/// Safety cap so no single "without compact sets" solve can run away. A
/// capped solve branches exactly this many nodes, which is how a table
/// row shows it (HPCAsia Figures 2-3 at n = 24 and 26).
inline mutk::BnbOptions cappedBnb() {
  mutk::BnbOptions Options;
  Options.MaxBranchedNodes = 4'000'000;
  return Options;
}

inline double mean(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t Mid = Values.size() / 2;
  if (Values.size() % 2 == 1)
    return Values[Mid];
  return (Values[Mid - 1] + Values[Mid]) / 2.0;
}

inline double maxOf(const std::vector<double> &Values) {
  double Max = 0.0;
  for (double V : Values)
    Max = std::max(Max, V);
  return Max;
}

/// Prints the standard experiment banner.
inline void banner(const char *Figure, const char *Claim) {
  std::printf("\n=== %s ===\n%s\n\n", Figure, Claim);
}

} // namespace bench

#endif // MUTK_BENCH_WORKLOADS_H

//===- bench/ledger/Inputs.h - The ledger's four workloads ------*- C++ -*-===//
///
/// \file
/// Workload catalog and seeded input generation. Every input is derived
/// from the run's `--seed`; `mutkd` only ever receives the generated
/// matrices inline. Golden answers come from `buildCompactSetTree` run
/// in-process with the options `mutkd` uses for a default request.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_INPUTS_H
#define MUTK_BENCH_LEDGER_INPUTS_H

#include "compact/CompactSetPipeline.h"
#include "matrix/DistanceMatrix.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

enum class WorkloadKind { ColdExact, WarmReplay, ColdLarge, OverlapDurable };

struct WorkloadSpec {
  const char *Name;
  WorkloadKind Kind;
  /// Why the workload exists: which layers it stresses and bypasses.
  const char *Why;
  /// `BuildRequest::UseCache`.
  bool UseCache;
  /// Run `mutkd --state-dir` (WAL + job journal on every request).
  bool Durable;
  /// `mutkd --cache`: result-cache entries, whole-matrix and block.
  std::size_t CacheEntries;
};

const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(const std::string &Name);

/// One request with the answer the daemon must give.
struct Input {
  mutk::DistanceMatrix M;
  /// Exact cost of the tree (a warm hit answers its base's cost).
  double Golden = 0.0;
  /// Nodes the golden solve branched (what a cold request must branch).
  std::uint64_t Branched = 0;
};

struct InputSet {
  /// Requests the closed loop cycles through, in order. Empty for
  /// overlap-durable, whose every request is a fresh `composition`.
  std::vector<Input> Cycle;
  /// Requests sent once during set-up (warm-replay's bases).
  std::vector<Input> Prime;
};

/// Builds \p W's inputs for \p Seed on up to \p Threads threads.
InputSet makeInputs(const WorkloadSpec &W, std::uint64_t Seed, int Threads);

/// A near-equidistant module: distances uniform in [18, 20], so it has no
/// compact subset and branch-and-bound prunes it poorly (cold-exact's
/// matrices, overlap-durable's modules).
mutk::DistanceMatrix hardModule(int Size, std::uint64_t Seed);

/// overlap-durable request \p Index: two 14-taxon modules drawn from a
/// shared pool of 12 plus one 12-taxon module seen by no other request.
mutk::DistanceMatrix composition(std::uint64_t Seed, std::uint64_t Index);

/// Golden costs of `composition(Seed, I)` for each I in \p Indices.
std::vector<double> compositionGoldens(std::uint64_t Seed,
                                       const std::vector<std::uint64_t> &Indices,
                                       int Threads);

/// \p M with rows permuted and species renamed, both from \p Seed: the
/// same matrix as a different client would label it.
mutk::DistanceMatrix relabeled(const mutk::DistanceMatrix &M,
                               std::uint64_t Seed);

/// The pipeline options `mutkd` runs a default `BuildRequest` with (see
/// `TreeService::solveFresh`), without cache or checkpoint hooks.
mutk::PipelineOptions daemonPipeline();

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_INPUTS_H

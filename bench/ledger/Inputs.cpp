//===- bench/ledger/Inputs.cpp - The ledger's four workloads --------------===//

#include "Inputs.h"

#include "matrix/Generators.h"
#include "seq/EvolutionSim.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <utility>

using namespace ledger;
using namespace mutk;

namespace {

/// cold-exact keeps only 16-taxon matrices whose exact solve branches
/// this many nodes. Branch-and-bound time on near-equidistant matrices
/// is heavy-tailed (0.05 to 330 ms per matrix on a 4-vCPU VM), so
/// a plain random draw of 64 makes a run's mean swing by ~50% from seed
/// to seed. The band keeps the workload "hard B&B" and its per-seed mean
/// steady (per-node cost still varies ~15% between matrices, hence 128 of
/// them); the seed still changes every matrix.
constexpr std::uint64_t ColdExactMinNodes = 3000;
constexpr std::uint64_t ColdExactMaxNodes = 6000;
constexpr int ColdExactMatrices = 128;

constexpr int WarmBases = 16;
constexpr int WarmRelabelings = 4;
constexpr int WarmSpecies = 256;

/// More planted than DNA inputs: the two kinds differ ~4x in latency, and
/// with an even split the median would fall in the gap between them.
constexpr int LargePlanted = 5;
constexpr int LargePlantedSpecies = 512;
constexpr int LargeDna = 3;
constexpr int LargeDnaSpecies = 256;

constexpr int OverlapPool = 12;
constexpr int OverlapPoolSize = 14;
constexpr int OverlapFreshSize = 12;

/// Every module is scaled to this diameter; modules of a composition sit
/// this far apart. Separation > 2 * diameter keeps each module a compact
/// set of the composition.
constexpr double ModuleDiameter = 20.0;
constexpr double ModuleSeparation = 80.0;

/// A 64-bit mix of \p Seed and \p Index (splitmix64), for sub-seeds.
std::uint64_t subSeed(std::uint64_t Seed, std::uint64_t Index) {
  std::uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Index + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Runs Fn(I) for I in [0, Count) on up to \p Threads threads.
void parallelFor(std::size_t Count, int Threads,
                 const std::function<void(std::size_t)> &Fn) {
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t I = Next++; I < Count; I = Next++)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  int Extra = std::min<int>(Threads, static_cast<int>(Count)) - 1;
  for (int T = 0; T < Extra; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

/// The planted-cluster matrix the service's `Clustered` generator makes.
DistanceMatrix planted(int Species, std::uint64_t Seed) {
  return scaledToMax(plantedClusterMetric(Species, Seed), 100.0);
}

Input solved(DistanceMatrix M, const PipelineOptions &Options) {
  PipelineResult R = buildCompactSetTree(M, Options);
  Input In;
  In.M = std::move(M);
  In.Golden = R.Cost;
  In.Branched = R.TotalStats.Branched;
  return In;
}

std::vector<Input> coldExact(std::uint64_t Seed, int Threads) {
  // Candidates are screened in batches with a node budget just above the
  // band and accepted in candidate order, so the selection does not
  // depend on thread timing. A solve that finishes inside its budget is
  // exactly the unbudgeted solve, so its cost is the golden cost.
  PipelineOptions Screen = daemonPipeline();
  Screen.Bnb.MaxBranchedNodes = ColdExactMaxNodes;
  std::vector<Input> Out;
  const std::size_t Batch = 64;
  for (std::uint64_t First = 0; Out.size() < ColdExactMatrices;
       First += Batch) {
    std::vector<Input> Candidates(Batch);
    std::vector<char> Complete(Batch); // written from several threads
    parallelFor(Batch, Threads, [&](std::size_t I) {
      DistanceMatrix M = hardModule(16, subSeed(Seed, First + I));
      PipelineResult R = buildCompactSetTree(M, Screen);
      // The budget is per block; a block that ran out reports inexact.
      Complete[I] = std::all_of(R.Blocks.begin(), R.Blocks.end(),
                                [](const BlockReport &B) { return B.Exact; });
      Candidates[I].M = std::move(M);
      Candidates[I].Golden = R.Cost;
      Candidates[I].Branched = R.TotalStats.Branched;
    });
    for (std::size_t I = 0; I < Batch && Out.size() < ColdExactMatrices; ++I)
      if (Complete[I] && Candidates[I].Branched >= ColdExactMinNodes &&
          Candidates[I].Branched < ColdExactMaxNodes)
        Out.push_back(std::move(Candidates[I]));
  }
  return Out;
}

InputSet warmReplay(std::uint64_t Seed, int Threads) {
  InputSet Set;
  Set.Prime.resize(WarmBases);
  parallelFor(WarmBases, Threads, [&](std::size_t B) {
    Set.Prime[B] = solved(planted(WarmSpecies, subSeed(Seed, B)),
                          daemonPipeline());
  });
  // Relabeling-major order, so consecutive requests hit different bases.
  for (int R = 0; R < WarmRelabelings; ++R)
    for (int B = 0; B < WarmBases; ++B) {
      Input In;
      In.M = relabeled(Set.Prime[static_cast<std::size_t>(B)].M,
                       subSeed(Seed, 1000 + static_cast<std::uint64_t>(
                                                B * WarmRelabelings + R)));
      In.Golden = Set.Prime[static_cast<std::size_t>(B)].Golden;
      Set.Cycle.push_back(std::move(In));
    }
  return Set;
}

std::vector<Input> coldLarge(std::uint64_t Seed, int Threads) {
  // DNA inputs at odd positions, between planted ones. Simulating them
  // (exact edit distances over 256 sequences) dominates input generation.
  std::vector<Input> Out(LargePlanted + LargeDna);
  parallelFor(Out.size(), Threads, [&](std::size_t I) {
    std::uint64_t S = subSeed(Seed, I);
    bool Dna = I % 2 == 1 && I < 2 * LargeDna;
    DistanceMatrix M = Dna ? hmdnaLikeMatrix(LargeDnaSpecies, S)
                           : planted(LargePlantedSpecies, S);
    Out[I] = solved(std::move(M), daemonPipeline());
  });
  return Out;
}

} // namespace

const std::vector<WorkloadSpec> &ledger::workloads() {
  static const std::vector<WorkloadSpec> All = {
      {"cold-exact", WorkloadKind::ColdExact,
       "128 near-equidistant 16-taxon matrices, cache off: branch-and-bound "
       "is ~99% of request time, so a B&B change must show here and a wire "
       "or cache change must not",
       false, false, 1024},
      {"warm-replay", WorkloadKind::WarmReplay,
       "relabelings of 16 primed 256-taxon matrices: whole-matrix cache hits "
       "only (decode, fingerprint, lookup, relabel, Newick); B&B never runs "
       "and must read flat",
       // Room for every base's 255 block entries besides its whole-matrix
       // entry: at mutkd's default 1024 the blocks evict the bases.
       true, false, 8192},
      {"cold-large", WorkloadKind::ColdLarge,
       "planted 512-taxon and DNA 256-taxon matrices, cache off: "
       "compact-set detection, condensation and UPGMM fallbacks on ~1 MB "
       "requests",
       false, false, 1024},
      {"overlap-durable", WorkloadKind::OverlapDurable,
       "distinct 40-taxon module compositions, cache and state dir on: "
       "block hits beside fresh B&B, cache inserts and evictions, WAL and "
       "journal appends",
       true, true, 1024},
  };
  return All;
}

const WorkloadSpec *ledger::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

PipelineOptions ledger::daemonPipeline() {
  // TreeService::solveFresh for a default BuildRequest on a default
  // mutkd: Maximum condensation, exact blocks up to 16, sequential
  // solver, one block at a time, 3-3 third-species pruning, no budget.
  PipelineOptions P;
  P.Mode = CondenseMode::Maximum;
  P.MaxExactBlockSize = BuildRequest().MaxExactBlockSize;
  P.Solver = BlockSolver::Sequential;
  P.BlockConcurrency = 1;
  P.Bnb.ThreeThree = BuildRequest().ThreeThree;
  return P;
}

DistanceMatrix ledger::relabeled(const DistanceMatrix &M, std::uint64_t Seed) {
  Rng R(Seed);
  DistanceMatrix Out = M.permuted(R.permutation(M.size()));
  std::string Prefix = "t" + std::to_string(Seed % 100000) + "_";
  for (int I = 0; I < Out.size(); ++I)
    Out.setName(I, Prefix + std::to_string(I));
  return Out;
}

DistanceMatrix ledger::hardModule(int Size, std::uint64_t Seed) {
  return scaledToMax(uniformRandomMetric(Size, Seed, 0.9 * ModuleDiameter,
                                         ModuleDiameter),
                     ModuleDiameter);
}

DistanceMatrix ledger::composition(std::uint64_t Seed, std::uint64_t Index) {
  Rng R(subSeed(subSeed(Seed, 1), Index));
  std::uint64_t A = R.nextBelow(OverlapPool);
  std::uint64_t B = (A + 1 + R.nextBelow(OverlapPool - 1)) % OverlapPool;
  const std::pair<int, std::uint64_t> Modules[] = {
      {OverlapPoolSize, subSeed(Seed, 100 + A)},
      {OverlapPoolSize, subSeed(Seed, 100 + B)},
      {OverlapFreshSize, subSeed(subSeed(Seed, 2), Index)}};
  // Block-diagonal: ModuleSeparation between modules, each module's own
  // distances inside its block.
  DistanceMatrix Out(2 * OverlapPoolSize + OverlapFreshSize);
  for (int I = 0; I < Out.size(); ++I)
    for (int J = I + 1; J < Out.size(); ++J)
      Out.set(I, J, ModuleSeparation);
  int Offset = 0;
  for (const auto &[Size, ModuleSeed] : Modules) {
    DistanceMatrix Block = hardModule(Size, ModuleSeed);
    for (int I = 0; I < Size; ++I)
      for (int J = I + 1; J < Size; ++J)
        Out.set(Offset + I, Offset + J, Block.at(I, J));
    Offset += Size;
  }
  return Out;
}

std::vector<double>
ledger::compositionGoldens(std::uint64_t Seed,
                           const std::vector<std::uint64_t> &Indices,
                           int Threads) {
  // Each thread memoizes blocks the way mutkd's block tier does, so the
  // shared pool modules are solved once per thread instead of once per
  // request.
  std::vector<double> Out(Indices.size());
  const std::size_t Slots = static_cast<std::size_t>(std::max(1, Threads));
  parallelFor(Slots, Threads, [&](std::size_t Slot) {
    ShardedLruCache Cache(1024, 1);
    BlockCacheHooks Hooks;
    Hooks.Lookup = [&](std::uint64_t Key,
                       const std::vector<std::uint8_t> &Bytes)
        -> std::optional<BlockCacheEntry> {
      std::optional<CachedSolution> Hit = Cache.lookup(Key, Bytes);
      if (!Hit)
        return std::nullopt;
      return BlockCacheEntry{std::move(Hit->Tree), Hit->Cost, Hit->Exact};
    };
    Hooks.Store = [&](std::uint64_t Key, const std::vector<std::uint8_t> &Bytes,
                      const BlockCacheEntry &Entry) {
      if (Entry.Exact)
        Cache.store(Key, CachedSolution{Entry.Tree, Entry.Cost, true, true,
                                        Bytes});
    };
    PipelineOptions P = daemonPipeline();
    P.BlockCache = &Hooks;
    for (std::size_t I = Slot; I < Indices.size(); I += Slots)
      Out[I] = buildCompactSetTree(composition(Seed, Indices[I]), P).Cost;
  });
  return Out;
}

InputSet ledger::makeInputs(const WorkloadSpec &W, std::uint64_t Seed,
                            int Threads) {
  switch (W.Kind) {
  case WorkloadKind::ColdExact:
    return InputSet{coldExact(Seed, Threads), {}};
  case WorkloadKind::WarmReplay:
    return warmReplay(Seed, Threads);
  case WorkloadKind::ColdLarge:
    return InputSet{coldLarge(Seed, Threads), {}};
  case WorkloadKind::OverlapDurable:
    return InputSet{};
  }
  return InputSet{};
}

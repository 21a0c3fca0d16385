//===- qos/CostModel.cpp - Request difficulty predictor -------------------===//

#include "qos/CostModel.h"

#include "graph/Hierarchy.h"
#include "matrix/Fingerprint.h"

#include <algorithm>
#include <cmath>

using namespace mutk;
using namespace mutk::qos;

namespace {

/// Fixed-point scale of the calibrated nanoseconds-per-node coefficient
/// (Q16: 16 fractional bits keeps sub-nanosecond resolution in a u64).
constexpr double NanosQ16 = 65536.0;

std::uint64_t encodeMillisPerNode(double MillisPerNode) {
  double NanosPerNode = MillisPerNode * 1e6;
  return static_cast<std::uint64_t>(std::max(0.0, NanosPerNode) * NanosQ16);
}

double decodeMillisPerNode(std::uint64_t Encoded) {
  return static_cast<double>(Encoded) / NanosQ16 * 1e-6;
}

} // namespace

CostModel::CostModel(const CostModelOptions &Options) : Options(Options) {
  NanosPerNodeQ16.store(encodeMillisPerNode(Options.InitialMillisPerNode),
                        std::memory_order_relaxed);
}

DifficultyProfile CostModel::computeProfile(const DistanceMatrix &M) {
  DifficultyProfile P;
  P.Species = M.size();
  if (M.size() <= 1) {
    P.MaxBlock = M.size();
    return P;
  }
  double MinD = 0.0, MaxD = 0.0;
  bool Seen = false;
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J) {
      double D = M.at(I, J);
      if (D <= 0.0)
        continue;
      if (!Seen || D < MinD)
        MinD = D;
      if (!Seen || D > MaxD)
        MaxD = D;
      Seen = true;
    }
  P.Spread = Seen && MinD > 0.0 ? MaxD / MinD : 1.0;

  // The dry run: the decomposition the pipeline itself would perform,
  // minus every solver. Each internal hierarchy node condenses to one
  // matrix whose size is its partition's block count.
  CompactHierarchy Hierarchy(M.size(), findCompactSets(M));
  for (int Id : Hierarchy.internalNodesTopDown())
    P.BlockSizes.push_back(
        static_cast<int>(Hierarchy.partitionAt(Id).size()));
  P.MaxBlock = Hierarchy.maxPartitionSize();
  return P;
}

DifficultyProfile CostModel::generatorProfile(int Species) {
  DifficultyProfile P;
  P.Species = std::max(0, Species);
  P.MaxBlock = P.Species;
  if (P.Species > 1)
    P.BlockSizes.push_back(P.Species);
  // Generated metrics are typically well-spread; the block size already
  // carries the pessimism (no decomposition assumed).
  P.Spread = 10.0;
  return P;
}

DifficultyProfile CostModel::profileFor(const DistanceMatrix &M,
                                        std::optional<std::uint64_t> Key) {
  if (!Key)
    Key = fingerprint(M);
  {
    MutexLock Lock(MemoMu);
    auto It = Memo.find(*Key);
    if (It != Memo.end()) {
      // Refresh recency; a fingerprint collision at worst re-ranks a
      // request (the profile is advisory, never a correctness input).
      Recency.splice(Recency.begin(), Recency, It->second.Recency);
      MemoHits.inc();
      return It->second.Profile;
    }
  }
  DryRuns.inc();
  DifficultyProfile P = computeProfile(M);
  MutexLock Lock(MemoMu);
  if (Memo.find(*Key) == Memo.end()) {
    Recency.push_front(*Key);
    Memo.emplace(*Key, MemoEntry{P, Recency.begin()});
    while (Memo.size() > std::max<std::size_t>(1, Options.MemoCapacity)) {
      Memo.erase(Recency.back());
      Recency.pop_back();
    }
  }
  return P;
}

double CostModel::predictNodes(const DifficultyProfile &Profile,
                               int MaxExactBlockSize) const {
  int Cap = std::max(1, MaxExactBlockSize);
  double N = static_cast<double>(std::max(0, Profile.Species));
  // Decomposition + condensation overhead, O(n^2), charged as n^2
  // node-equivalents.
  double Nodes = Options.OverheadPerPair * N * N;

  // Near-equidistant metrics admit no compact sets and defeat the
  // bound's pruning; scale exact-block cost up as the spread collapses
  // toward 1.
  double Hardness =
      1.0 + Options.HardnessGain / std::max(Profile.Spread - 1.0, 0.05);

  auto exactBlockNodes = [&](int B) {
    if (B <= 2)
      return 1.0;
    return std::pow(Options.GrowthBase, static_cast<double>(B - 3)) * Hardness;
  };
  auto blockNodes = [&](int B) {
    if (B <= Cap)
      return exactBlockNodes(B);
    // Oversized blocks fall back to the agglomerative heuristic inside
    // the pipeline — genuinely cheaper than exact, but floored at the
    // cap's exact cost so *widening a block never lowers the
    // prediction* (monotonicity; see the property test).
    double Heuristic =
        Options.HeuristicPerCube * static_cast<double>(B) * B * B;
    return std::max(exactBlockNodes(Cap), Heuristic);
  };

  if (Profile.BlockSizes.empty()) {
    Nodes += blockNodes(Profile.MaxBlock);
  } else {
    for (int B : Profile.BlockSizes)
      Nodes += blockNodes(B);
  }
  return Nodes;
}

double CostModel::predictMillis(const DifficultyProfile &Profile,
                                int MaxExactBlockSize) const {
  return predictNodes(Profile, MaxExactBlockSize) * millisPerNode();
}

double CostModel::heuristicMillis(int Species) const {
  double N = static_cast<double>(std::max(0, Species));
  return Options.HeuristicPerCube * N * N * N * millisPerNode();
}

void CostModel::observe(std::uint64_t Branched, double SolveMillis) {
  if (Branched == 0 || SolveMillis <= 0.0 || Options.CalibrationGain <= 0.0)
    return;
  double Observed = SolveMillis / static_cast<double>(Branched);
  // Clamp so one pathological sample (timer glitch, tiny solve) cannot
  // poison the coefficient.
  Observed = std::clamp(Observed, 1e-9, 10.0);
  double Gain = std::min(1.0, Options.CalibrationGain);
  double Current = millisPerNode();
  double Next = (1.0 - Gain) * Current + Gain * Observed;
  NanosPerNodeQ16.store(encodeMillisPerNode(Next), std::memory_order_relaxed);
  obs::qosInstruments().CostPerNodeNanos.set(
      static_cast<std::int64_t>(Next * 1e6));
}

double CostModel::millisPerNode() const {
  return decodeMillisPerNode(
      NanosPerNodeQ16.load(std::memory_order_relaxed));
}

//===- tests/incremental_test.cpp - Block cache reuse across requests -----===//
//
// Covers the cross-request block cache tier end to end: block reuse
// between different whole-matrix requests (byte-identical trees warm vs
// cold), perturbed resubmissions re-solving exactly the dirty blocks,
// and restart recovery of block-namespace entries through the durable
// cache store.
//
// The workloads are "module compositions": small matrices placed
// block-diagonally at a cross distance far above any module's diameter,
// so every module is a compact set whose condensed matrix — and
// therefore its relabel-invariant fingerprint — depends only on the
// module, not on the composition it appears in (docs/caching.md).
//
//===----------------------------------------------------------------------===//

#include "matrix/Generators.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace mutk;

namespace {

constexpr double ModuleDiameter = 20.0;
constexpr double ModuleSeparation = 80.0;

/// A module with no internal compact sets: near-equidistant distances in
/// [0.9, 1.0] * ModuleDiameter, so condensation cannot split it and the
/// whole module condenses to a single block.
DistanceMatrix hardModule(int Size, std::uint64_t Seed) {
  return scaledToMax(
      uniformRandomMetric(Size, Seed, 0.9 * ModuleDiameter, ModuleDiameter),
      ModuleDiameter);
}

/// Block-diagonal composition of (Size, Seed) hard modules at cross
/// distance ModuleSeparation; each module is a compact set of the
/// result.
DistanceMatrix compose(const std::vector<std::pair<int, std::uint64_t>> &Specs) {
  int Total = 0;
  for (const auto &Spec : Specs)
    Total += Spec.first;
  DistanceMatrix Out(Total);
  for (int I = 0; I < Total; ++I)
    for (int J = I + 1; J < Total; ++J)
      Out.set(I, J, ModuleSeparation);
  int Offset = 0;
  for (const auto &Spec : Specs) {
    DistanceMatrix Module = hardModule(Spec.first, Spec.second);
    for (int I = 0; I < Module.size(); ++I)
      for (int J = I + 1; J < Module.size(); ++J)
        Out.set(Offset + I, Offset + J, Module.at(I, J));
    Offset += Spec.first;
  }
  return Out;
}

BuildResponse solveOn(TreeService &Service, const DistanceMatrix &M) {
  BuildRequest Request;
  Request.Matrix = M;
  BuildResponse Resp = Service.submit(std::move(Request));
  EXPECT_TRUE(Resp.ok()) << Resp.Message;
  return Resp;
}

/// A fresh, empty scratch directory per call, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    static int Counter = 0;
    Path = testing::TempDir() + "mutk_incr_" + Tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(Counter++);
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

//===----------------------------------------------------------------------===//
// Cross-request block reuse
//===----------------------------------------------------------------------===//

TEST(BlockCache, SecondRequestReusesSharedModuleBlocks) {
  // X and Y are different whole matrices (different fingerprints) that
  // share module 1: solving Y after X must hit the block tier.
  DistanceMatrix X = compose({{5, 1}, {5, 2}});
  DistanceMatrix Y = compose({{5, 1}, {5, 3}});

  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse RespX = solveOn(Service, X);
  EXPECT_TRUE(RespX.Exact);
  EXPECT_EQ(RespX.BlockCacheHits, 0u);

  BuildResponse RespY = solveOn(Service, Y);
  EXPECT_FALSE(RespY.CacheHit);
  EXPECT_GE(RespY.BlockCacheHits, 1u);
  EXPECT_GE(RespY.CleanBlocks, 1u);

  StatsSnapshot S = Service.stats();
  EXPECT_GE(S.BlockHits, 1u);
  EXPECT_GE(S.BlockMisses, 1u);
  Service.stop();

  // Block reuse must not change the answer: a cold service produces a
  // byte-identical tree for Y.
  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheCapacity = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdY = solveOn(Cold, Y);
  EXPECT_EQ(ColdY.Newick, RespY.Newick);
  EXPECT_NEAR(ColdY.Cost, RespY.Cost, 1e-9);
  Cold.stop();
}

TEST(BlockCache, WholeMatrixReplayStaysByteIdentical) {
  DistanceMatrix M = compose({{5, 4}, {5, 5}});
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse First = solveOn(Service, M);
  BuildResponse Second = solveOn(Service, M);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.Newick, First.Newick);
  EXPECT_NEAR(Second.Cost, First.Cost, 1e-12);
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Perturbed resubmissions: only dirty blocks pay
//===----------------------------------------------------------------------===//

TEST(Incremental, PerturbedEntryResolvesOnlyTheDirtyModule) {
  // Four hard modules + the all-80 root block = 5 blocks. Stretching one
  // in-module distance dirties exactly that module's block; the other
  // three modules and the root condense byte-identically and replay.
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  DistanceMatrix M = Base;
  M.set(0, 1, Base.at(0, 1) * 1.05);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  // The cold base solve runs every block; its dirty count is the total
  // block count of this decomposition.
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;
  EXPECT_EQ(BaseResp.CleanBlocks, 0u);
  EXPECT_GE(TotalBlocks, 5u);

  BuildResponse Resp = solveOn(Service, M);
  EXPECT_FALSE(Resp.CacheHit);
  EXPECT_EQ(Resp.DirtyBlocks, 1u);
  EXPECT_EQ(Resp.CleanBlocks, TotalBlocks - 1);
  Service.stop();

  // The reused blocks must not change the answer.
  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheCapacity = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdResp = solveOn(Cold, M);
  EXPECT_EQ(ColdResp.Newick, Resp.Newick);
  EXPECT_NEAR(ColdResp.Cost, Resp.Cost, 1e-9);
  Cold.stop();
}

TEST(Incremental, OneTaxonPerturbationResolvesOnlyAffectedBlocks) {
  // The acceptance drill: add one taxon next to module 0. Its enlarged
  // block is the only dirty one; modules 1-3 and the root replay.
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  DistanceMatrix M(Base.size() + 1);
  for (int I = 0; I < Base.size(); ++I) {
    M.setName(I, Base.name(I));
    for (int J = I + 1; J < Base.size(); ++J)
      M.set(I, J, Base.at(I, J));
  }
  for (int I = 0; I < Base.size(); ++I)
    M.set(I, Base.size(), I < 5 ? ModuleDiameter : ModuleSeparation);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;

  BuildResponse Resp = solveOn(Service, M);
  // Only the block(s) the new taxon lands in re-solve; every module the
  // taxon avoids — and the unchanged merge structure above them —
  // replays from the block cache.
  EXPECT_EQ(Resp.DirtyBlocks, 1u);
  EXPECT_GE(Resp.CleanBlocks, TotalBlocks - 2);
  Service.stop();

  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheCapacity = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdResp = solveOn(Cold, M);
  EXPECT_EQ(ColdResp.Newick, Resp.Newick);
  EXPECT_NEAR(ColdResp.Cost, Resp.Cost, 1e-9);
  Cold.stop();
}

TEST(Incremental, RemovedTaxonResolvesOnlyItsModule) {
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  std::vector<int> Keep;
  for (int I = 0; I + 1 < Base.size(); ++I)
    Keep.push_back(I);
  DistanceMatrix M = Base.restrictedTo(Keep);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;

  BuildResponse Resp = solveOn(Service, M);
  // The shrunken module's block plus the merge node above it re-solve;
  // everything untouched by the removal replays.
  EXPECT_LE(Resp.DirtyBlocks, 2u);
  EXPECT_GE(Resp.CleanBlocks, TotalBlocks - 2);
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Durability: block entries survive a restart
//===----------------------------------------------------------------------===//

TEST(Persist, BlockEntriesSurviveServiceRestart) {
  ScratchDir Dir("blockrestart");
  DistanceMatrix X = compose({{5, 1}, {5, 2}});
  DistanceMatrix Y = compose({{5, 1}, {5, 3}});

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.StateDir = Dir.path();
  {
    TreeService Service(Options);
    BuildResponse Resp = solveOn(Service, X);
    EXPECT_TRUE(Resp.Exact);
    Service.stop();
  }

  // The restarted service never solved anything, yet Y's shared module
  // must replay from the recovered block namespace — and X itself from
  // the recovered whole namespace.
  TreeService Restarted(Options);
  BuildResponse RespY = solveOn(Restarted, Y);
  EXPECT_FALSE(RespY.CacheHit);
  EXPECT_GE(RespY.BlockCacheHits, 1u);
  BuildResponse RespX = solveOn(Restarted, X);
  EXPECT_TRUE(RespX.CacheHit);
  Restarted.stop();
}

} // namespace

//===- tests/graph_test.cpp - MST, compact sets, hierarchy ------*- C++ -*-===//

#include "graph/CompactSets.h"
#include "graph/Hierarchy.h"
#include "graph/Mst.h"
#include "matrix/Generators.h"
#include "matrix/MetricUtils.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

using namespace mutk;

namespace {

/// The worked example mirroring the PaCT paper's Figure 3: the MST edge
/// order is (0,2), (3,5), (0,1), (2,4), (4,5) and the compact sets are
/// {0,2}, {3,5}, {0,1,2}, {0,1,2,4}.
DistanceMatrix paperExample() {
  DistanceMatrix M(6);
  M.set(0, 1, 3);
  M.set(0, 2, 1);
  M.set(0, 3, 9);
  M.set(0, 4, 4.5);
  M.set(0, 5, 9);
  M.set(1, 2, 3.5);
  M.set(1, 3, 9);
  M.set(1, 4, 4.5);
  M.set(1, 5, 9);
  M.set(2, 3, 9);
  M.set(2, 4, 4);
  M.set(2, 5, 9);
  M.set(3, 4, 6);
  M.set(3, 5, 2);
  M.set(4, 5, 5);
  return M;
}

std::vector<std::vector<int>> memberLists(const std::vector<CompactSet> &Sets) {
  std::vector<std::vector<int>> Lists;
  for (const CompactSet &Set : Sets)
    Lists.push_back(Set.Members);
  std::sort(Lists.begin(), Lists.end());
  return Lists;
}

/// Reference Kruskal: sorts all n(n-1)/2 edges by edgeLess and accepts
/// every edge that joins two components.
std::vector<WeightedEdge> sortAllEdgesKruskal(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<WeightedEdge> Edges;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Edges.push_back(WeightedEdge{I, J, M.at(I, J)});
  std::sort(Edges.begin(), Edges.end(), edgeLess);
  std::vector<WeightedEdge> Tree;
  UnionFind Components(static_cast<std::size_t>(N));
  for (const WeightedEdge &E : Edges)
    if (Components.unite(E.U, E.V) >= 0)
      Tree.push_back(E);
  return Tree;
}

/// Reference detector: after every merge of the reference Kruskal, finds
/// Min(A, !A) by rescanning the remaining MST edges for the first one with
/// exactly one endpoint in the merged component.
std::vector<CompactSet> rescanCompactSets(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<CompactSet> Result;
  if (N < 3)
    return Result;
  std::vector<WeightedEdge> Tree = sortAllEdgesKruskal(M);
  UnionFind Components(static_cast<std::size_t>(N));
  std::vector<std::vector<int>> Members(static_cast<std::size_t>(N));
  std::vector<double> MaxInside(static_cast<std::size_t>(N), 0.0);
  for (int I = 0; I < N; ++I)
    Members[static_cast<std::size_t>(I)] = {I};
  for (std::size_t Edge = 0; Edge + 1 < Tree.size(); ++Edge) {
    int RepA = Components.find(Tree[Edge].U);
    int RepB = Components.find(Tree[Edge].V);
    double Max = std::max(MaxInside[static_cast<std::size_t>(RepA)],
                          MaxInside[static_cast<std::size_t>(RepB)]);
    for (int A : Members[static_cast<std::size_t>(RepA)])
      for (int B : Members[static_cast<std::size_t>(RepB)])
        Max = std::max(Max, M.at(A, B));
    int Rep = Components.unite(RepA, RepB);
    int Other = Rep == RepA ? RepB : RepA;
    MaxInside[static_cast<std::size_t>(Rep)] = Max;
    auto &Into = Members[static_cast<std::size_t>(Rep)];
    auto &From = Members[static_cast<std::size_t>(Other)];
    Into.insert(Into.end(), From.begin(), From.end());
    From.clear();
    double MinOutgoing = std::numeric_limits<double>::infinity();
    for (std::size_t Later = Edge + 1; Later < Tree.size(); ++Later)
      if ((Components.find(Tree[Later].U) == Rep) !=
          (Components.find(Tree[Later].V) == Rep)) {
        MinOutgoing = Tree[Later].Weight;
        break;
      }
    if (Max < MinOutgoing) {
      CompactSet Set;
      Set.Members = Into;
      std::sort(Set.Members.begin(), Set.Members.end());
      Set.MaxInside = Max;
      Set.MinOutgoing = MinOutgoing;
      Result.push_back(std::move(Set));
    }
  }
  return Result;
}

/// Reference hierarchy: links each set under the smallest placed strict
/// superset found by a std::includes scan, then adds a singleton leaf for
/// every species no child of a node covers.
std::vector<CompactHierarchy::Node>
includesHierarchy(int NumSpecies, const std::vector<CompactSet> &Sets) {
  std::vector<std::vector<int>> Lists;
  for (const CompactSet &Set : Sets)
    Lists.push_back(Set.Members);
  std::sort(Lists.begin(), Lists.end(),
            [](const std::vector<int> &A, const std::vector<int> &B) {
              if (A.size() != B.size())
                return A.size() > B.size();
              return A < B;
            });
  Lists.erase(std::unique(Lists.begin(), Lists.end()), Lists.end());
  std::vector<CompactHierarchy::Node> Nodes(1);
  for (int I = 0; I < NumSpecies; ++I)
    Nodes[0].Species.push_back(I);
  for (const std::vector<int> &List : Lists) {
    std::size_t Parent = 0;
    for (std::size_t Id = 1; Id < Nodes.size(); ++Id)
      if (Nodes[Id].Species.size() > List.size() &&
          std::includes(Nodes[Id].Species.begin(), Nodes[Id].Species.end(),
                        List.begin(), List.end()) &&
          Nodes[Id].Species.size() < Nodes[Parent].Species.size())
        Parent = Id;
    Nodes[Parent].Children.push_back(static_cast<int>(Nodes.size()));
    Nodes.push_back({List, static_cast<int>(Parent), {}});
  }
  const std::size_t NumInternal = Nodes.size();
  for (std::size_t Id = 0; Id < NumInternal; ++Id) {
    std::vector<bool> Covered(static_cast<std::size_t>(NumSpecies), false);
    for (int Child : Nodes[Id].Children)
      for (int Species : Nodes[static_cast<std::size_t>(Child)].Species)
        Covered[static_cast<std::size_t>(Species)] = true;
    for (int Species : std::vector<int>(Nodes[Id].Species))
      if (!Covered[static_cast<std::size_t>(Species)]) {
        Nodes[Id].Children.push_back(static_cast<int>(Nodes.size()));
        Nodes.push_back({{Species}, static_cast<int>(Id), {}});
      }
  }
  return Nodes;
}

/// Every off-diagonal entry of \p M rounded up to a multiple of \p Step,
/// which turns most distinct distances into ties.
DistanceMatrix quantized(DistanceMatrix M, double Step) {
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J)
      M.set(I, J, std::ceil(M.at(I, J) / Step) * Step);
  return M;
}

/// Entries drawn from {1, 2}: ties everywhere, not necessarily metric.
DistanceMatrix twoValued(int N, std::uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, 1.0 + static_cast<double>(Rng() & 1));
  return M;
}

DistanceMatrix allEqual(int N) {
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, 3.0);
  return M;
}

/// The identity corpus: planted and uniform matrices with n from 3 to 64,
/// their quantized-tie variants, two-valued and all-equal matrices, plus
/// one planted 512-taxon matrix.
std::vector<DistanceMatrix> identityCorpus() {
  std::vector<DistanceMatrix> Corpus;
  for (int N = 3; N <= 64; ++N) {
    const auto Seed = static_cast<std::uint64_t>(N);
    Corpus.push_back(plantedClusterMetric(N, Seed));
    Corpus.push_back(uniformRandomMetric(N, Seed));
    Corpus.push_back(quantized(N % 2 ? plantedClusterMetric(N, Seed + 100)
                                     : uniformRandomMetric(N, Seed + 100),
                               N % 3 ? 1.0 : 10.0));
    Corpus.push_back(twoValued(N, Seed));
    Corpus.push_back(allEqual(N));
  }
  Corpus.push_back(plantedClusterMetric(512, 7));
  return Corpus;
}

} // namespace

TEST(Mst, PaperExampleEdges) {
  std::vector<WeightedEdge> Tree = kruskalMst(paperExample());
  ASSERT_EQ(Tree.size(), 5u);
  EXPECT_EQ(Tree[0], (WeightedEdge{0, 2, 1}));
  EXPECT_EQ(Tree[1], (WeightedEdge{3, 5, 2}));
  EXPECT_EQ(Tree[2], (WeightedEdge{0, 1, 3}));
  EXPECT_EQ(Tree[3], (WeightedEdge{2, 4, 4}));
  EXPECT_EQ(Tree[4], (WeightedEdge{4, 5, 5}));
  EXPECT_TRUE(isSpanningTree(Tree, 6));
  EXPECT_DOUBLE_EQ(totalWeight(Tree), 15.0);
}

TEST(Mst, KruskalEqualsSortAllEdgesOracle) {
  std::vector<DistanceMatrix> Corpus = identityCorpus();
  ASSERT_GE(Corpus.size(), 300u);
  for (std::size_t Index = 0; Index < Corpus.size(); ++Index) {
    const DistanceMatrix &M = Corpus[Index];
    std::vector<WeightedEdge> Tree = kruskalMst(M);
    EXPECT_TRUE(isSpanningTree(Tree, M.size())) << "matrix " << Index;
    EXPECT_EQ(Tree, sortAllEdgesKruskal(M)) << "matrix " << Index;
  }
}

TEST(Mst, TinyGraphs) {
  DistanceMatrix M1(1);
  EXPECT_TRUE(kruskalMst(M1).empty());
  DistanceMatrix M2(2);
  M2.set(0, 1, 4);
  auto K = kruskalMst(M2);
  ASSERT_EQ(K.size(), 1u);
  EXPECT_EQ(K[0], (WeightedEdge{0, 1, 4}));
}

TEST(Mst, SpanningTreePredicateRejectsCycles) {
  std::vector<WeightedEdge> Bad = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  EXPECT_FALSE(isSpanningTree(Bad, 4)); // wrong count
  EXPECT_FALSE(isSpanningTree(Bad, 3)); // hmm: 3 edges for n=3 is wrong too
  std::vector<WeightedEdge> Disconnected = {{0, 1, 1}, {2, 3, 1}, {0, 1, 2}};
  EXPECT_FALSE(isSpanningTree(Disconnected, 4));
}

TEST(CompactSets, DefinitionPredicate) {
  DistanceMatrix M = paperExample();
  EXPECT_TRUE(isCompactSet(M, {0, 2}));
  EXPECT_TRUE(isCompactSet(M, {3, 5}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2, 4}));
  EXPECT_FALSE(isCompactSet(M, {0, 1}));    // 2 is closer to 0 than 1 is
  EXPECT_FALSE(isCompactSet(M, {3, 4, 5})); // diameter 6 > outgoing 4
  // Conventions: singleton and whole set are compact.
  EXPECT_TRUE(isCompactSet(M, {2}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2, 3, 4, 5}));
}

TEST(CompactSets, PaperExampleDetection) {
  std::vector<CompactSet> Sets = findCompactSets(paperExample());
  EXPECT_EQ(memberLists(Sets),
            (std::vector<std::vector<int>>{
                {0, 1, 2}, {0, 1, 2, 4}, {0, 2}, {3, 5}}));
  // Witness values for {0,1,2}: diameter 3.5, outgoing min 4.
  for (const CompactSet &Set : Sets)
    if (Set.Members == std::vector<int>{0, 1, 2}) {
      EXPECT_DOUBLE_EQ(Set.MaxInside, 3.5);
      EXPECT_DOUBLE_EQ(Set.MinOutgoing, 4.0);
    }
}

TEST(CompactSets, MatchesBruteForceOnRandomInputs) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = plantedClusterMetric(12, Seed, 0.2);
    auto Fast = memberLists(findCompactSets(M));
    auto Slow = memberLists(findCompactSetsBruteForce(M));
    EXPECT_EQ(Fast, Slow) << "seed " << Seed;
  }
}

TEST(CompactSets, MatchesBruteForceOnUniformInputs) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(11, Seed);
    EXPECT_EQ(memberLists(findCompactSets(M)),
              memberLists(findCompactSetsBruteForce(M)))
        << "seed " << Seed;
  }
}

TEST(CompactSets, UltrametricInputYieldsEverySubtree) {
  // In a strict ultrametric with distinct heights, every generating
  // subtree is compact: expect n - 2 proper nontrivial compact sets for
  // a binary hierarchy over n species (one per internal node except the
  // root).
  DistanceMatrix M = randomUltrametricMatrix(16, 5);
  auto Sets = findCompactSets(M);
  EXPECT_EQ(static_cast<int>(Sets.size()), 14);
  EXPECT_TRUE(isLaminarFamily(Sets));
}

TEST(CompactSets, DetectionIsLaminar) {
  for (std::uint64_t Seed = 0; Seed < 6; ++Seed) {
    auto Sets = findCompactSets(plantedClusterMetric(30, Seed));
    EXPECT_TRUE(isLaminarFamily(Sets)) << "seed " << Seed;
    for (const CompactSet &Set : Sets) {
      EXPECT_GE(Set.size(), 2);
      EXPECT_LT(Set.size(), 30);
      EXPECT_LT(Set.MaxInside, Set.MinOutgoing);
    }
  }
}

TEST(CompactSets, NextMergeWitnessEqualsRescan) {
  std::vector<DistanceMatrix> Corpus = identityCorpus();
  for (std::size_t Index = 0; Index < Corpus.size(); ++Index) {
    std::vector<CompactSet> Fast = findCompactSets(Corpus[Index]);
    std::vector<CompactSet> Slow = rescanCompactSets(Corpus[Index]);
    ASSERT_EQ(Fast.size(), Slow.size()) << "matrix " << Index;
    for (std::size_t K = 0; K < Fast.size(); ++K) {
      EXPECT_EQ(Fast[K].Members, Slow[K].Members) << "matrix " << Index;
      EXPECT_EQ(Fast[K].MaxInside, Slow[K].MaxInside) << "matrix " << Index;
      EXPECT_EQ(Fast[K].MinOutgoing, Slow[K].MinOutgoing)
          << "matrix " << Index;
    }
  }
}

TEST(CompactSets, TinyInputsHaveNone) {
  DistanceMatrix M2(2);
  M2.set(0, 1, 1);
  EXPECT_TRUE(findCompactSets(M2).empty());
  DistanceMatrix M1(1);
  EXPECT_TRUE(findCompactSets(M1).empty());
}

TEST(CompactSets, TiesExcludeBoundary) {
  // Equilateral square: every pair at distance 1 except one pair at 1.
  DistanceMatrix M(4);
  for (int I = 0; I < 4; ++I)
    for (int J = I + 1; J < 4; ++J)
      M.set(I, J, 1.0);
  // Max inside any subset == min outgoing == 1: strictness fails.
  EXPECT_TRUE(findCompactSets(M).empty());
  EXPECT_TRUE(findCompactSetsBruteForce(M).empty());
}

TEST(Hierarchy, PaperExampleStructure) {
  DistanceMatrix M = paperExample();
  CompactHierarchy H(6, findCompactSets(M));

  const auto &Root = H.node(H.rootId());
  EXPECT_EQ(Root.Species.size(), 6u);
  // Root splits into {0,1,2,4} and {3,5}.
  ASSERT_EQ(Root.Children.size(), 2u);
  std::vector<std::vector<int>> RootBlocks = H.partitionAt(H.rootId());
  std::sort(RootBlocks.begin(), RootBlocks.end());
  EXPECT_EQ(RootBlocks, (std::vector<std::vector<int>>{{0, 1, 2, 4}, {3, 5}}));

  // {0,1,2,4} splits into {0,1,2} and {4}; {0,1,2} into {0,2} and {1}.
  EXPECT_EQ(H.maxPartitionSize(), 2);
}

TEST(Hierarchy, SingletonLeavesCoverEverything) {
  for (std::uint64_t Seed = 0; Seed < 4; ++Seed) {
    DistanceMatrix M = plantedClusterMetric(18, Seed);
    CompactHierarchy H(18, findCompactSets(M));
    for (int Id : H.internalNodesTopDown()) {
      auto Blocks = H.partitionAt(Id);
      EXPECT_GE(Blocks.size(), 2u);
      // Blocks partition the node's species.
      std::vector<int> Union;
      for (auto &B : Blocks)
        Union.insert(Union.end(), B.begin(), B.end());
      std::sort(Union.begin(), Union.end());
      EXPECT_EQ(Union, H.node(Id).Species);
    }
  }
}

TEST(Hierarchy, NoCompactSetsGivesFlatRoot) {
  CompactHierarchy H(5, {});
  EXPECT_EQ(H.numNodes(), 6); // root + 5 singletons
  EXPECT_EQ(H.partitionAt(H.rootId()).size(), 5u);
  EXPECT_EQ(H.internalNodesTopDown(), std::vector<int>{0});
}

TEST(Hierarchy, DeepNesting) {
  // Chain of nested compact sets {0,1} c {0,1,2} c {0,1,2,3}.
  std::vector<CompactSet> Sets(3);
  Sets[0].Members = {0, 1};
  Sets[1].Members = {0, 1, 2};
  Sets[2].Members = {0, 1, 2, 3};
  CompactHierarchy H(5, Sets);
  // Root {0..4} -> {0,1,2,3} + {4}; {0,1,2,3} -> {0,1,2} + {3}; etc.
  int Depth = 0;
  int Id = H.rootId();
  while (!H.node(Id).isSingleton()) {
    auto &Children = H.node(Id).Children;
    EXPECT_EQ(Children.size(), 2u);
    int NonSingleton = -1;
    for (int C : Children)
      if (!H.node(C).isSingleton())
        NonSingleton = C;
    if (NonSingleton < 0)
      break;
    Id = NonSingleton;
    ++Depth;
  }
  EXPECT_EQ(Depth, 3);
}

TEST(Hierarchy, OwnerLinkingEqualsIncludesScan) {
  std::vector<DistanceMatrix> Corpus = identityCorpus();
  for (std::size_t Index = 0; Index < Corpus.size(); ++Index) {
    const int N = Corpus[Index].size();
    std::vector<CompactSet> Sets = findCompactSets(Corpus[Index]);
    // Duplicates must collapse the same way in both.
    if (!Sets.empty())
      Sets.push_back(Sets.front());
    CompactHierarchy H(N, Sets);
    std::vector<CompactHierarchy::Node> Expected = includesHierarchy(N, Sets);
    ASSERT_EQ(H.numNodes(), static_cast<int>(Expected.size()))
        << "matrix " << Index;
    for (int Id = 0; Id < H.numNodes(); ++Id) {
      const CompactHierarchy::Node &Want =
          Expected[static_cast<std::size_t>(Id)];
      EXPECT_EQ(H.node(Id).Species, Want.Species) << "matrix " << Index;
      EXPECT_EQ(H.node(Id).Parent, Want.Parent) << "matrix " << Index;
      EXPECT_EQ(H.node(Id).Children, Want.Children) << "matrix " << Index;
    }
  }
}

// Property: detection equals brute force across sizes on mixed inputs.
class CompactProperty : public testing::TestWithParam<int> {};

TEST_P(CompactProperty, FastEqualsBruteForce) {
  int N = GetParam();
  for (std::uint64_t Seed = 100; Seed < 103; ++Seed) {
    DistanceMatrix Clustered = plantedClusterMetric(N, Seed, 0.25);
    EXPECT_EQ(memberLists(findCompactSets(Clustered)),
              memberLists(findCompactSetsBruteForce(Clustered)));
    DistanceMatrix Uniform = uniformRandomMetric(N, Seed);
    EXPECT_EQ(memberLists(findCompactSets(Uniform)),
              memberLists(findCompactSetsBruteForce(Uniform)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompactProperty,
                         testing::Values(3, 4, 5, 6, 8, 10, 13));

//===- tests/tree_test.cpp - PhyloTree, fit, Newick, RF ---------*- C++ -*-===//

#include "heur/Upgma.h"
#include "matrix/Generators.h"
#include "tree/Newick.h"
#include "tree/PhyloTree.h"
#include "tree/RobinsonFoulds.h"
#include "tree/UltrametricFit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

using namespace mutk;

namespace {

/// ((0,1)@h1, (2,3)@h2)@h3 as a PhyloTree.
PhyloTree twoCherries(double H1, double H2, double H3) {
  PhyloTree T;
  int L0 = T.addLeaf(0);
  int L1 = T.addLeaf(1);
  int A = T.addInternal(L0, L1, H1);
  int L2 = T.addLeaf(2);
  int L3 = T.addLeaf(3);
  int B = T.addInternal(L2, L3, H2);
  T.addInternal(A, B, H3);
  return T;
}

} // namespace

TEST(PhyloTree, SingleLeaf) {
  PhyloTree T;
  T.addLeaf(0);
  EXPECT_EQ(T.numLeaves(), 1);
  EXPECT_EQ(T.weight(), 0.0);
  EXPECT_TRUE(T.isWellFormed());
  EXPECT_TRUE(T.hasMonotoneHeights());
}

TEST(PhyloTree, CherryWeightAndDistance) {
  PhyloTree T;
  int A = T.addLeaf(0);
  int B = T.addLeaf(1);
  T.addInternal(A, B, 2.5);
  EXPECT_DOUBLE_EQ(T.weight(), 5.0); // two edges of length 2.5
  EXPECT_DOUBLE_EQ(T.leafDistance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(T.rootHeight(), 2.5);
}

TEST(PhyloTree, TwoCherriesStructure) {
  PhyloTree T = twoCherries(1, 2, 5);
  EXPECT_EQ(T.numLeaves(), 4);
  EXPECT_TRUE(T.isWellFormed());
  EXPECT_TRUE(T.hasMonotoneHeights());
  // w = h(root) + sum internal = 5 + (1 + 2 + 5) = 13.
  EXPECT_DOUBLE_EQ(T.weight(), 13.0);
  EXPECT_DOUBLE_EQ(T.leafDistance(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(T.leafDistance(2, 3), 4.0);
  EXPECT_DOUBLE_EQ(T.leafDistance(0, 3), 10.0);
}

TEST(PhyloTree, LcaAndLeaves) {
  PhyloTree T = twoCherries(1, 2, 5);
  int Lca01 = T.lcaOfSpecies(0, 1);
  EXPECT_DOUBLE_EQ(T.node(Lca01).Height, 1.0);
  int Lca03 = T.lcaOfSpecies(0, 3);
  EXPECT_EQ(Lca03, T.root());
  EXPECT_EQ(T.leavesBelow(T.root()).size(), 4u);
  EXPECT_EQ(T.allSpecies(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(PhyloTree, EdgeWeights) {
  PhyloTree T = twoCherries(1, 2, 5);
  EXPECT_DOUBLE_EQ(T.edgeWeightAbove(T.root()), 0.0);
  int Cherry01 = T.lcaOfSpecies(0, 1);
  EXPECT_DOUBLE_EQ(T.edgeWeightAbove(Cherry01), 4.0);
  EXPECT_DOUBLE_EQ(T.edgeWeightAbove(T.leafNodeOf(3)), 2.0);
}

TEST(PhyloTree, InducedMatrixIsUltrametric) {
  PhyloTree T = twoCherries(1, 2, 5);
  DistanceMatrix M = T.inducedMatrix();
  EXPECT_EQ(M.size(), 4);
  EXPECT_DOUBLE_EQ(M.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(M.at(1, 2), 10.0);
}

TEST(PhyloTree, DominatesMatrix) {
  PhyloTree T = twoCherries(1, 2, 5);
  DistanceMatrix M = T.inducedMatrix();
  EXPECT_TRUE(T.dominatesMatrix(M));
  M.set(0, 1, 2.1); // now the tree is too short for this pair
  EXPECT_FALSE(T.dominatesMatrix(M));
}

TEST(PhyloTree, NonMonotoneHeightsDetected) {
  PhyloTree T;
  int A = T.addLeaf(0);
  int B = T.addLeaf(1);
  int C = T.addInternal(A, B, 5.0);
  int D = T.addLeaf(2);
  T.addInternal(C, D, 3.0); // parent below child
  EXPECT_TRUE(T.isWellFormed());
  EXPECT_FALSE(T.hasMonotoneHeights());
}

TEST(PhyloTree, ReplaceLeafWithSubtree) {
  PhyloTree T = twoCherries(1, 2, 5);
  // Replace species 3 with a small cherry over species 3 and 4.
  PhyloTree Sub;
  int X = Sub.addLeaf(0);
  int Y = Sub.addLeaf(1);
  Sub.addInternal(X, Y, 0.5);
  int Raised = T.replaceLeafWithSubtree(3, Sub, {3, 4});
  EXPECT_EQ(Raised, 0); // 0.5 < 2, no clamping needed
  EXPECT_TRUE(T.isWellFormed());
  EXPECT_TRUE(T.hasMonotoneHeights());
  EXPECT_EQ(T.numLeaves(), 5);
  EXPECT_DOUBLE_EQ(T.leafDistance(3, 4), 1.0);
  // Leaves sit at height 0; their LCA is the old cherry node at height 2.
  EXPECT_DOUBLE_EQ(T.leafDistance(2, 4), 4.0);
}

TEST(PhyloTree, ReplaceLeafClampsWhenSubtreeTooTall) {
  PhyloTree T = twoCherries(1, 2, 5);
  PhyloTree Sub;
  int X = Sub.addLeaf(0);
  int Y = Sub.addLeaf(1);
  Sub.addInternal(X, Y, 3.0); // taller than the 2.0 parent
  int Raised = T.replaceLeafWithSubtree(3, Sub, {3, 4});
  EXPECT_EQ(Raised, 1);
  EXPECT_TRUE(T.hasMonotoneHeights());
}

TEST(PhyloTree, AdoptSubtreeRemapsSpecies) {
  PhyloTree T;
  PhyloTree Sub = twoCherries(1, 2, 5);
  int Root = T.adoptSubtree(Sub, {10, 11, 12, 13});
  T.setRoot(Root);
  EXPECT_EQ(T.allSpecies(), (std::vector<int>{10, 11, 12, 13}));
  EXPECT_DOUBLE_EQ(T.weight(), Sub.weight());
}

TEST(UltrametricFit, RecoversMinimalHeights) {
  // Fixed topology ((0,1),(2,3)); matrix forces specific heights.
  PhyloTree T = twoCherries(0, 0, 0);
  DistanceMatrix M(4);
  M.set(0, 1, 2);
  M.set(2, 3, 6);
  M.set(0, 2, 10);
  M.set(0, 3, 8);
  M.set(1, 2, 4);
  M.set(1, 3, 8);
  double W = fitMinimalHeights(T, M);
  // h(01) = 1, h(23) = 3, h(root) = max(10, 8, 4, 8)/2 = 5.
  EXPECT_DOUBLE_EQ(W, 5 + (1 + 3 + 5));
  EXPECT_TRUE(T.dominatesMatrix(M));
  EXPECT_TRUE(T.hasMonotoneHeights());
  EXPECT_DOUBLE_EQ(minimalWeightFor(T, M), W);
}

TEST(UltrametricFit, ChildHeightPropagatesUp) {
  // Cross-pair maxima smaller than a child height: the parent must still
  // sit above the child.
  PhyloTree T;
  int A = T.addLeaf(0);
  int B = T.addLeaf(1);
  int AB = T.addInternal(A, B, 0);
  int C = T.addLeaf(2);
  T.addInternal(AB, C, 0);
  DistanceMatrix M(3);
  M.set(0, 1, 10); // deep cherry
  M.set(0, 2, 4);
  M.set(1, 2, 4);
  fitMinimalHeights(T, M);
  EXPECT_DOUBLE_EQ(T.node(T.lcaOfSpecies(0, 1)).Height, 5.0);
  EXPECT_DOUBLE_EQ(T.node(T.root()).Height, 5.0); // lifted to child height
  EXPECT_TRUE(T.dominatesMatrix(M));
}

TEST(Newick, WriteKnownTree) {
  PhyloTree T = twoCherries(1, 2, 5);
  EXPECT_EQ(toNewick(T), "((s0:1,s1:1):4,(s2:2,s3:2):3);");
}

TEST(Newick, WriteUsesNames) {
  PhyloTree T;
  int A = T.addLeaf(0);
  int B = T.addLeaf(1);
  T.addInternal(A, B, 1.5);
  T.setNames({"human", "chimp"});
  EXPECT_EQ(toNewick(T), "(human:1.5,chimp:1.5);");
}

TEST(Newick, ParseRoundTrip) {
  PhyloTree T = twoCherries(1.5, 2.25, 5.125);
  std::string Text = toNewick(T);
  auto Back = parseNewick(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(toNewick(*Back), Text);
  EXPECT_DOUBLE_EQ(Back->weight(), T.weight());
  EXPECT_TRUE(Back->hasMonotoneHeights());
}

TEST(Newick, ParseAssignsSpeciesInAppearanceOrder) {
  auto T = parseNewick("((a:1,b:1):2,c:3);");
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->speciesName(0), "a");
  EXPECT_EQ(T->speciesName(2), "c");
  EXPECT_DOUBLE_EQ(T->leafDistance(0, 2), 6.0);
}

TEST(Newick, ParseRejectsMalformed) {
  std::string Error;
  EXPECT_FALSE(parseNewick("((a,b)", &Error).has_value());
  EXPECT_FALSE(parseNewick("(a,b,c);", &Error).has_value()); // polytomy
  EXPECT_FALSE(parseNewick("", &Error).has_value());
  EXPECT_FALSE(parseNewick("(a,b)", &Error).has_value()); // missing ';'
}

TEST(Newick, FuzzedInputNeverCrashes) {
  // Random garbage must come back as nullopt or a well-formed tree,
  // never crash or hang.
  const char Alphabet[] = "(),:;ab1.- \t";
  std::uint64_t State = 0xABCDEF;
  auto NextChar = [&] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return Alphabet[(State >> 33) % (sizeof(Alphabet) - 1)];
  };
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Input;
    int Length = static_cast<int>((State >> 20) % 40);
    for (int I = 0; I < Length; ++I)
      Input.push_back(NextChar());
    auto T = parseNewick(Input);
    if (T.has_value())
      EXPECT_TRUE(T->isWellFormed()) << "input: " << Input;
  }
}

namespace {

/// Newick through an ostream at `max_digits10`: the writer `toNewick`
/// must match byte for byte.
void streamNode(std::ostream &OS, const PhyloTree &T, int Node) {
  const PhyloNode &N = T.node(Node);
  if (N.isLeaf()) {
    OS << T.speciesName(N.Leaf);
  } else {
    OS << '(';
    streamNode(OS, T, N.Left);
    OS << ',';
    streamNode(OS, T, N.Right);
    OS << ')';
  }
  if (N.Parent >= 0)
    OS << ':' << T.edgeWeightAbove(Node);
}

std::string streamNewick(const PhyloTree &T) {
  std::ostringstream OS;
  OS.precision(std::numeric_limits<double>::max_digits10);
  if (T.root() >= 0)
    streamNode(OS, T, T.root());
  OS << ';';
  return OS.str();
}

} // namespace

TEST(Newick, ToCharsMatchesStreamWriter) {
  // Subnormal, smallest normal, tiny, inexact decimals, the switch to
  // exponent notation at 1e17 and a huge length.
  const double Lengths[] = {5e-324, 2.2250738585072014e-308, 1e-300,
                            0.1,    1.0 / 3.0,               2.0,
                            1e16,   1e17,                    1e300};
  for (double L : Lengths) {
    // A cherry at height L puts L itself on both leaf edges.
    PhyloTree T = twoCherries(L, 3 * L, 4 * L);
    std::string Text = toNewick(T);
    EXPECT_EQ(Text, streamNewick(T)) << L;
    std::optional<PhyloTree> Back = parseNewick(Text);
    ASSERT_TRUE(Back.has_value()) << Text;
    EXPECT_EQ(toNewick(*Back), Text);
    for (int Leaf : {0, 1})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Back->edgeWeightAbove(
                    Back->leafNodeOf(Leaf))),
                std::bit_cast<std::uint64_t>(L))
          << Text;
  }
  for (std::uint64_t Seed = 1; Seed <= 20; ++Seed) {
    PhyloTree T = buildLinkageTree(uniformRandomMetric(24, Seed),
                                   Seed % 2 ? Linkage::Maximum
                                            : Linkage::Average);
    EXPECT_EQ(toNewick(T), streamNewick(T)) << "seed " << Seed;
  }
}

// The writer no longer sets the caller's stream to 17 digits as a side
// effect.
TEST(Newick, WriteLeavesTheStreamPrecisionAlone) {
  PhyloTree T = twoCherries(1.0 / 3.0, 2.5, 7.0);
  std::ostringstream OS;
  OS.precision(3);
  writeNewick(OS, T);
  EXPECT_EQ(OS.str(), toNewick(T));
  EXPECT_EQ(OS.precision(), 3);
  OS << ' ' << 1.0 / 3.0;
  EXPECT_EQ(OS.str(), toNewick(T) + " 0.333");
}

TEST(Newick, ParseToleratesWhitespace) {
  auto T = parseNewick(" ( a : 1 , b : 1 ) ; ");
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->numLeaves(), 2);
}

TEST(RobinsonFoulds, IdenticalTreesAreZero) {
  PhyloTree T = twoCherries(1, 2, 5);
  EXPECT_EQ(rfDistance(T, T), 0);
  EXPECT_DOUBLE_EQ(normalizedRfDistance(T, T), 0.0);
}

TEST(RobinsonFoulds, DifferentCherriesCounted) {
  PhyloTree A = twoCherries(1, 2, 5); // clades {0,1}, {2,3}
  PhyloTree B;                        // clades {0,2}, {1,3}
  int L0 = B.addLeaf(0);
  int L2 = B.addLeaf(2);
  int X = B.addInternal(L0, L2, 1);
  int L1 = B.addLeaf(1);
  int L3 = B.addLeaf(3);
  int Y = B.addInternal(L1, L3, 1);
  B.addInternal(X, Y, 2);
  EXPECT_EQ(rfDistance(A, B), 4);
  EXPECT_DOUBLE_EQ(normalizedRfDistance(A, B), 1.0);
}

TEST(RobinsonFoulds, CaterpillarVsBalanced) {
  // Caterpillar (((0,1),2),3) vs balanced ((0,1),(2,3)): share {0,1}.
  PhyloTree A;
  int L0 = A.addLeaf(0);
  int L1 = A.addLeaf(1);
  int X = A.addInternal(L0, L1, 1);
  int L2 = A.addLeaf(2);
  int Y = A.addInternal(X, L2, 2);
  int L3 = A.addLeaf(3);
  A.addInternal(Y, L3, 3);
  PhyloTree B = twoCherries(1, 1, 3);
  // A's clades: {0,1}, {0,1,2}; B's: {0,1}, {2,3} -> difference 2.
  EXPECT_EQ(rfDistance(A, B), 2);
}

TEST(RobinsonFoulds, CladeExtraction) {
  PhyloTree T = twoCherries(1, 2, 5);
  auto Clades = nontrivialClades(T);
  EXPECT_EQ(Clades.size(), 2u);
  EXPECT_TRUE(Clades.count({0, 1}));
  EXPECT_TRUE(Clades.count({2, 3}));
}

// Property: a tree reconstructed from its own induced matrix by fitting
// heights onto the same topology keeps the same weight.
class FitProperty : public testing::TestWithParam<int> {};

TEST_P(FitProperty, FitOnInducedMatrixIsIdempotent) {
  DistanceMatrix M = randomUltrametricMatrix(GetParam(), 77);
  // Build some topology from the matrix itself via a fresh ultrametric
  // tree: use the generating structure through UltrametricFit on a
  // caterpillar; the fitted tree must dominate M.
  PhyloTree T;
  int Acc = T.addLeaf(0);
  for (int I = 1; I < GetParam(); ++I) {
    int L = T.addLeaf(I);
    Acc = T.addInternal(Acc, L, 0);
  }
  double W = fitMinimalHeights(T, M);
  EXPECT_TRUE(T.dominatesMatrix(M));
  EXPECT_TRUE(T.hasMonotoneHeights());
  EXPECT_GT(W, 0.0);
  // Refitting changes nothing.
  PhyloTree Copy = T;
  EXPECT_DOUBLE_EQ(fitMinimalHeights(Copy, M), W);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FitProperty,
                         testing::Values(2, 4, 6, 9, 14, 20));

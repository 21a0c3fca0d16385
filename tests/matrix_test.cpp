//===- tests/matrix_test.cpp - DistanceMatrix, metric utils, IO -*- C++ -*-===//

#include "matrix/Condense.h"
#include "matrix/DistanceMatrix.h"
#include "matrix/Generators.h"
#include "matrix/MatrixIO.h"
#include "matrix/MetricUtils.h"

#include <gtest/gtest.h>

using namespace mutk;

namespace {

/// The paper-style worked example (see examples/compact_sets_tour.cpp):
/// 6 species whose MST and compact sets match the PaCT paper's Figure 3-5
/// structure.
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

} // namespace

TEST(DistanceMatrix, ZeroInitializedWithDefaultNames) {
  DistanceMatrix M(3);
  EXPECT_EQ(M.size(), 3);
  EXPECT_EQ(M.at(0, 2), 0.0);
  EXPECT_EQ(M.name(0), "s0");
  EXPECT_EQ(M.name(2), "s2");
}

TEST(DistanceMatrix, SetIsSymmetric) {
  DistanceMatrix M(4);
  M.set(1, 3, 7.5);
  EXPECT_EQ(M.at(1, 3), 7.5);
  EXPECT_EQ(M.at(3, 1), 7.5);
}

TEST(DistanceMatrix, PermutedReordersRowsAndNames) {
  DistanceMatrix M(3);
  M.set(0, 1, 1);
  M.set(0, 2, 2);
  M.set(1, 2, 3);
  M.setName(0, "a");
  M.setName(1, "b");
  M.setName(2, "c");
  DistanceMatrix P = M.permuted({2, 0, 1});
  EXPECT_EQ(P.name(0), "c");
  EXPECT_EQ(P.name(1), "a");
  EXPECT_EQ(P.at(0, 1), 2.0); // old (2, 0)
  EXPECT_EQ(P.at(0, 2), 3.0); // old (2, 1)
  EXPECT_EQ(P.at(1, 2), 1.0); // old (0, 1)
}

TEST(DistanceMatrix, RestrictedToKeepsSubmatrix) {
  DistanceMatrix M = paperExample();
  DistanceMatrix R = M.restrictedTo({0, 2, 4});
  EXPECT_EQ(R.size(), 3);
  EXPECT_EQ(R.at(0, 1), M.at(0, 2));
  EXPECT_EQ(R.at(0, 2), M.at(0, 4));
  EXPECT_EQ(R.at(1, 2), M.at(2, 4));
}

TEST(DistanceMatrix, MinMaxEntry) {
  DistanceMatrix M = paperExample();
  EXPECT_EQ(M.maxEntry(), 9.0);
  EXPECT_EQ(M.minEntry(), 1.0);
}

TEST(DistanceMatrix, ApproxEquals) {
  DistanceMatrix A = paperExample();
  DistanceMatrix B = paperExample();
  EXPECT_TRUE(A.approxEquals(B, 1e-12));
  B.set(0, 1, 3.0001);
  EXPECT_FALSE(A.approxEquals(B, 1e-6));
  EXPECT_TRUE(A.approxEquals(B, 1e-3));
}

TEST(MetricUtils, PaperExampleIsMetric) {
  EXPECT_TRUE(isMetric(paperExample()));
  EXPECT_TRUE(hasPositiveDistances(paperExample()));
}

TEST(MetricUtils, DetectsTriangleViolation) {
  DistanceMatrix M(3);
  M.set(0, 1, 1);
  M.set(1, 2, 1);
  M.set(0, 2, 10); // 10 > 1 + 1
  auto V = findMetricViolation(M);
  ASSERT_TRUE(V.has_value());
  EXPECT_GT(V->Slack, 7.9);
  EXPECT_FALSE(isMetric(M));
}

TEST(MetricUtils, MetricClosureRepairsViolations) {
  DistanceMatrix M(4);
  M.set(0, 1, 1);
  M.set(1, 2, 1);
  M.set(2, 3, 1);
  M.set(0, 2, 10);
  M.set(1, 3, 10);
  M.set(0, 3, 10);
  DistanceMatrix C = metricClosure(M);
  EXPECT_TRUE(isMetric(C));
  EXPECT_EQ(C.at(0, 2), 2.0);
  EXPECT_EQ(C.at(0, 3), 3.0);
  // Entries never grow.
  for (int I = 0; I < 4; ++I)
    for (int J = I + 1; J < 4; ++J)
      EXPECT_LE(C.at(I, J), M.at(I, J));
}

TEST(MetricUtils, UltrametricPredicate) {
  // A valid ultrametric: two tight pairs joined at a higher level.
  DistanceMatrix U(4);
  U.set(0, 1, 2);
  U.set(2, 3, 4);
  for (int I : {0, 1})
    for (int J : {2, 3})
      U.set(I, J, 10);
  EXPECT_TRUE(isUltrametric(U));
  EXPECT_TRUE(isMetric(U));

  U.set(0, 1, 11); // now max(M[0,2], M[1,2]) = 10 < 11
  EXPECT_FALSE(isUltrametric(U));
  auto V = findUltrametricViolation(U);
  ASSERT_TRUE(V.has_value());
}

TEST(MetricUtils, MaxminPermutationStartsWithFarthestPair) {
  DistanceMatrix M = paperExample();
  std::vector<int> Perm = maxminPermutation(M);
  ASSERT_EQ(Perm.size(), 6u);
  EXPECT_EQ(M.at(Perm[0], Perm[1]), M.maxEntry());
  EXPECT_TRUE(isMaxminPermutation(M, Perm));
}

TEST(MetricUtils, MaxminPermutationRejectsBadOrder) {
  DistanceMatrix M = paperExample();
  // 0,2 is the *closest* pair: cannot start a maxmin permutation.
  EXPECT_FALSE(isMaxminPermutation(M, {0, 2, 1, 3, 4, 5}));
}

TEST(MetricUtils, MaxminPermutationTinySizes) {
  DistanceMatrix M1(1);
  EXPECT_EQ(maxminPermutation(M1), std::vector<int>{0});
  DistanceMatrix M2(2);
  M2.set(0, 1, 5);
  EXPECT_EQ(maxminPermutation(M2).size(), 2u);
}

TEST(Generators, UniformRandomMetricIsMetric) {
  for (std::uint64_t Seed : {1u, 2u, 3u}) {
    DistanceMatrix M = uniformRandomMetric(15, Seed);
    EXPECT_TRUE(isMetric(M)) << "seed " << Seed;
    EXPECT_TRUE(hasPositiveDistances(M));
  }
}

TEST(Generators, UniformRandomMetricDeterministic) {
  DistanceMatrix A = uniformRandomMetric(10, 99);
  DistanceMatrix B = uniformRandomMetric(10, 99);
  EXPECT_TRUE(A.approxEquals(B, 0.0));
}

TEST(Generators, RandomUltrametricMatrixIsUltrametric) {
  for (std::uint64_t Seed : {5u, 6u, 7u}) {
    DistanceMatrix M = randomUltrametricMatrix(20, Seed);
    EXPECT_TRUE(isUltrametric(M)) << "seed " << Seed;
    EXPECT_TRUE(isMetric(M)) << "seed " << Seed;
  }
}

TEST(Generators, PlantedClusterMetricIsMetricButNotUltrametric) {
  DistanceMatrix M = plantedClusterMetric(20, 11, /*Jitter=*/0.15);
  EXPECT_TRUE(isMetric(M));
  // With this much jitter the exact ultrametric property is destroyed.
  EXPECT_FALSE(isUltrametric(M, 1e-9));
}

TEST(Generators, ScaledToMaxHitsTarget) {
  DistanceMatrix M = uniformRandomMetric(8, 3);
  DistanceMatrix S = scaledToMax(M, 100.0);
  EXPECT_NEAR(S.maxEntry(), 100.0, 1e-9);
  EXPECT_TRUE(isMetric(S));
}

TEST(Condense, PartitionPredicate) {
  EXPECT_TRUE(isPartition({{0, 2}, {1}}, 3));
  EXPECT_FALSE(isPartition({{0}, {1}}, 3));         // missing 2
  EXPECT_FALSE(isPartition({{0, 1}, {1, 2}}, 3));   // overlap
  EXPECT_FALSE(isPartition({{0}, {}, {1, 2}}, 3));  // empty block
  EXPECT_FALSE(isPartition({{0, 3}, {1, 2}}, 3));   // out of range
}

TEST(Condense, MaximumMatchesPaperExample) {
  // Paper §3.1: condensing C4 = {0,1,2,5-ish} — here we condense the
  // worked example's C4 = {0,1,2,4} into blocks {0,1,2} and {4}.
  DistanceMatrix M = paperExample();
  DistanceMatrix C = condense(M.restrictedTo({0, 1, 2, 4}),
                              {{0, 1, 2}, {3}}, CondenseMode::Maximum);
  EXPECT_EQ(C.size(), 2);
  EXPECT_EQ(C.at(0, 1), 4.5); // max(4.5, 4.5, 4)
}

TEST(Condense, AllThreeModes) {
  DistanceMatrix M(4);
  M.set(0, 1, 1);
  M.set(0, 2, 2);
  M.set(0, 3, 4);
  M.set(1, 2, 6);
  M.set(1, 3, 8);
  M.set(2, 3, 1);
  std::vector<std::vector<int>> Blocks = {{0, 1}, {2, 3}};
  EXPECT_EQ(condense(M, Blocks, CondenseMode::Maximum).at(0, 1), 8.0);
  EXPECT_EQ(condense(M, Blocks, CondenseMode::Minimum).at(0, 1), 2.0);
  EXPECT_EQ(condense(M, Blocks, CondenseMode::Average).at(0, 1), 5.0);
}

TEST(Condense, BlockNaming) {
  DistanceMatrix M(3);
  M.setName(2, "orang");
  M.set(0, 1, 2);
  M.set(0, 2, 3);
  M.set(1, 2, 3);
  DistanceMatrix C = condense(M, {{0, 1}, {2}}, CondenseMode::Maximum);
  EXPECT_EQ(C.name(0), "C0");     // multi-species block
  EXPECT_EQ(C.name(1), "orang"); // singleton keeps its name
}

TEST(MatrixIO, RoundTrip) {
  DistanceMatrix M = paperExample();
  M.setName(0, "human");
  auto Parsed = matrixFromString(matrixToString(M));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(M.approxEquals(*Parsed, 1e-12));
  EXPECT_EQ(Parsed->name(0), "human");
}

TEST(MatrixIO, RejectsAsymmetric) {
  std::string Text = "2\na 0 1\nb 2 0\n";
  std::string Error;
  EXPECT_FALSE(matrixFromString(Text, &Error).has_value());
  EXPECT_NE(Error.find("asymmetric"), std::string::npos);
}

TEST(MatrixIO, RejectsNonzeroDiagonal) {
  std::string Text = "2\na 1 2\nb 2 0\n";
  std::string Error;
  EXPECT_FALSE(matrixFromString(Text, &Error).has_value());
  EXPECT_NE(Error.find("diagonal"), std::string::npos);
}

TEST(MatrixIO, RejectsTruncatedInput) {
  std::string Error;
  EXPECT_FALSE(matrixFromString("3\na 0 1 2\n", &Error).has_value());
  EXPECT_FALSE(matrixFromString("", &Error).has_value());
}

TEST(MatrixIO, RejectsTruncatedRow) {
  // Row "b" ends one distance short; the parser must not read row "c"'s
  // name as the missing number or silently zero-fill.
  std::string Error;
  EXPECT_FALSE(
      matrixFromString("3\na 0 1 2\nb 1 0\nc 2 1 0\n", &Error).has_value());
  EXPECT_NE(Error.find("entry"), std::string::npos);
}

TEST(MatrixIO, RejectsNonNumericToken) {
  std::string Error;
  EXPECT_FALSE(matrixFromString("2\na 0 oops\nb 1 0\n", &Error).has_value());
  EXPECT_NE(Error.find("entry"), std::string::npos);
  // Non-numeric species count is also malformed, not zero species.
  EXPECT_FALSE(matrixFromString("two\na 0\n", &Error).has_value());
  EXPECT_NE(Error.find("count"), std::string::npos);
}

TEST(MatrixIO, RejectsNonFiniteEntries) {
  // strtod parses all three, and each slips past the symmetry and sign
  // checks (inf - inf is NaN, and every comparison with NaN is false).
  for (const char *Token : {"inf", "-inf", "nan"}) {
    std::string Text = std::string("3\na 0 ") + Token + " 2\nb " + Token +
                       " 0 1\nc 2 1 0\n";
    std::string Error;
    EXPECT_FALSE(matrixFromString(Text, &Error).has_value()) << Token;
    EXPECT_NE(Error.find("entry (0, 1)"), std::string::npos) << Error;
  }
}

TEST(MatrixIO, RejectsNegativeCount) {
  std::string Error;
  EXPECT_FALSE(matrixFromString("-1\n", &Error).has_value());
  EXPECT_NE(Error.find("negative"), std::string::npos);
}

TEST(MatrixIO, ParsesEmptyAndSingletonMatrices) {
  // n = 0 and n = 1 are degenerate but well-formed inputs.
  auto Empty = matrixFromString("0\n");
  ASSERT_TRUE(Empty.has_value());
  EXPECT_EQ(Empty->size(), 0);

  auto One = matrixFromString("1\nonly 0\n");
  ASSERT_TRUE(One.has_value());
  EXPECT_EQ(One->size(), 1);
  EXPECT_EQ(One->name(0), "only");

  // ...but a singleton with a nonzero self-distance is still rejected.
  std::string Error;
  EXPECT_FALSE(matrixFromString("1\nonly 7\n", &Error).has_value());
  EXPECT_NE(Error.find("diagonal"), std::string::npos);
}

TEST(MatrixIO, AcceptsCrlfLineEndings) {
  // A matrix saved on Windows carries \r\n terminators; it must parse
  // identically to its Unix twin, names unpolluted by the \r.
  auto Unix = matrixFromString("2\na 0 1\nb 1 0\n");
  auto Crlf = matrixFromString("2\r\na 0 1\r\nb 1 0\r\n");
  ASSERT_TRUE(Unix.has_value());
  ASSERT_TRUE(Crlf.has_value());
  EXPECT_TRUE(Unix->approxEquals(*Crlf, 0.0));
  EXPECT_EQ(Crlf->name(0), "a");
  EXPECT_EQ(Crlf->name(1), "b");
}

TEST(MatrixIO, AcceptsBlankLinesAndTrailingWhitespace) {
  // Blank lines (even interior ones) and trailing spaces/tabs are
  // formatting noise, not data.
  auto Parsed =
      matrixFromString("\n2  \n\na 0 1\t\n\r\n\nb 1 0   \n\n\r\n");
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->size(), 2);
  EXPECT_EQ(Parsed->at(0, 1), 1.0);
}

TEST(MatrixIO, RejectsExtraTokensOnRow) {
  // One value too many used to be absorbed as the *next* row's name,
  // producing a misleading error far from the actual defect.
  std::string Error;
  EXPECT_FALSE(
      matrixFromString("2\na 0 1 9\nb 1 0\n", &Error).has_value());
  EXPECT_NE(Error.find("after row 0"), std::string::npos);
}

TEST(MatrixIO, RejectsTrailingGarbage) {
  std::string Error;
  EXPECT_FALSE(
      matrixFromString("2\na 0 1\nb 1 0\nextra stuff\n", &Error).has_value());
  EXPECT_NE(Error.find("after last row"), std::string::npos);
}

TEST(MatrixIO, RejectsExtraTokenAfterCount) {
  std::string Error;
  EXPECT_FALSE(matrixFromString("2 junk\na 0 1\nb 1 0\n", &Error).has_value());
  EXPECT_NE(Error.find("after species count"), std::string::npos);
}

TEST(MatrixIO, RejectsNumericPrefixToken) {
  // "1.5x" parses as 1.5 under operator>>-style extraction; the whole
  // token must be numeric.
  std::string Error;
  EXPECT_FALSE(matrixFromString("2\na 0 1.5x\nb 1.5 0\n", &Error).has_value());
  EXPECT_NE(Error.find("bad entry"), std::string::npos);
}

TEST(MatrixIO, FileRoundTrip) {
  DistanceMatrix M = uniformRandomMetric(7, 21);
  std::string Path = testing::TempDir() + "mutk_matrix_io_test.txt";
  ASSERT_TRUE(writeMatrixFile(Path, M));
  auto Back = readMatrixFile(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(M.approxEquals(*Back, 1e-9));
}

// Property sweep: generators stay metric across sizes and seeds.
class GeneratorProperty : public testing::TestWithParam<int> {};

TEST_P(GeneratorProperty, AllGeneratorsProduceMetrics) {
  int N = GetParam();
  for (std::uint64_t Seed = 0; Seed < 3; ++Seed) {
    EXPECT_TRUE(isMetric(uniformRandomMetric(N, Seed)));
    EXPECT_TRUE(isUltrametric(randomUltrametricMatrix(N, Seed)));
    EXPECT_TRUE(isMetric(plantedClusterMetric(N, Seed)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorProperty,
                         testing::Values(2, 3, 5, 8, 13, 21, 34));

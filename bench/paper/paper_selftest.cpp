//===- bench/paper/paper_selftest.cpp - Checks of the cell comparison -----===//
//
// mutk_paper is only as strict as its comparison: an exact cell moved by
// one ulp must fail, a wall-clock cell must never fail, and the cell file
// must give back every double bit for bit.
//
//===----------------------------------------------------------------------===//

#include "Paper.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace paper;

namespace {

std::vector<Cell> roundTrip(const std::vector<Cell> &Cells) {
  std::stringstream File;
  writeCells(File, Cells);
  std::vector<Cell> Read;
  std::string Error;
  EXPECT_TRUE(readCells(File, Read, Error)) << Error;
  return Read;
}

TEST(PaperCells, OneUlpOnAnExactCellIsADifference) {
  std::vector<Cell> Computed = {{"fig", "12", "cost", 149.854, true},
                                {"fig", "12", "diff", 0.45, true}};
  std::vector<Cell> Expected = roundTrip(Computed);
  EXPECT_TRUE(diffCells(Computed, Expected).empty());

  Computed[0].Value = std::nextafter(149.854, 200.0);
  std::vector<std::string> Diffs = diffCells(Computed, Expected);
  ASSERT_EQ(Diffs.size(), 1u);
  EXPECT_NE(Diffs[0].find("fig\t12\tcost"), std::string::npos) << Diffs[0];
}

TEST(PaperCells, InfoCellsAreNeitherWrittenNorCompared) {
  std::vector<Cell> Computed = {{"fig", "12", "cost", 149.854, true},
                                {"fig", "12", "seconds", 0.0002, false}};
  std::vector<Cell> Expected = roundTrip(Computed);
  ASSERT_EQ(Expected.size(), 1u);
  Computed[1].Value = 7.5;
  EXPECT_TRUE(diffCells(Computed, Expected).empty());
}

TEST(PaperCells, MissingNewAndRepeatedCellsAreDifferences) {
  std::vector<Cell> Expected = {{"fig", "12", "cost", 1.0, true},
                                {"fig", "14", "cost", 2.0, true}};
  std::vector<Cell> Computed = {{"fig", "12", "cost", 1.0, true},
                                {"fig", "16", "cost", 3.0, true},
                                {"fig", "12", "cost", 1.0, true}};
  // 14 not computed, 16 not expected, 12 recorded twice.
  EXPECT_EQ(diffCells(Computed, Expected).size(), 3u);
}

TEST(PaperCells, FileKeepsEveryDoubleBitForBit) {
  std::vector<Cell> Cells;
  for (double V : {0.1 + 0.2, 1e-300, 4000000.1, 250009.0, -0.0, 19.88,
                   1.0 / 3.0, 4000000.0})
    Cells.push_back({"fig", "row", std::to_string(Cells.size()), V, true});
  std::vector<Cell> Read = roundTrip(Cells);
  ASSERT_EQ(Read.size(), Cells.size());
  for (std::size_t K = 0; K < Cells.size(); ++K) {
    EXPECT_EQ(Read[K].Column, Cells[K].Column);
    EXPECT_EQ(std::signbit(Read[K].Value), std::signbit(Cells[K].Value));
    EXPECT_EQ(Read[K].Value, Cells[K].Value) << K;
  }
}

TEST(PaperCells, MalformedLinesAreRejected) {
  for (const char *Bad : {"fig\t12\tcost\n", "fig\t12\tcost\t1.5x\n",
                          "fig\t12\tcost\t\n", "fig\t12\tcost\t1\textra\n"}) {
    std::istringstream In(Bad);
    std::vector<Cell> Cells;
    std::string Error;
    EXPECT_FALSE(readCells(In, Cells, Error)) << Bad;
    EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
  }
}

TEST(PaperCells, RowsKeepTheirCellsInColumnOrder) {
  Table T("fig");
  T.row(12, 1);
  T.exact("with", 2.0);
  T.exact("diff", 3.0);
  T.row(12, 2);
  T.exact("without", 1.0);
  T.exact("b", 4.0);
  std::vector<std::string> Order;
  for (const Cell &C : T.Cells)
    Order.push_back(C.Row + " " + C.Column);
  EXPECT_EQ(Order, (std::vector<std::string>{"12/1 diff", "12/1 with",
                                             "12/2 b", "12/2 without"}));
}

} // namespace

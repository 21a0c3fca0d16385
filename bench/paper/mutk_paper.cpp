//===- bench/paper/mutk_paper.cpp - Every table of the reproduced papers --===//
//
// Usage:
//   mutk_paper [TABLE...]
//
// Prints the named tables (all of them without arguments; names are in
// Tables.cpp and docs/benchmarking.md) on standard output, writes their
// exact cells to `mutk_paper.tsv` in the working directory, and compares
// them with the committed `expected.tsv`. Exits nonzero when an exact
// cell differs, is missing or is new, or when a paper claim does not
// hold. After a change that moves a number on purpose, re-pin by copying
// a full run's `mutk_paper.tsv` over `bench/paper/expected.tsv`.
//
//===----------------------------------------------------------------------===//

#include "Paper.h"

#include "support/Stopwatch.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

using namespace paper;

int main(int Argc, char **Argv) {
  std::vector<const TableDef *> Run;
  for (int I = 1; I < Argc; ++I) {
    const TableDef *Found = nullptr;
    for (const TableDef &Def : tables())
      if (std::strcmp(Def.Name, Argv[I]) == 0)
        Found = &Def;
    if (!Found) {
      std::fprintf(stderr, "mutk_paper: unknown table '%s'; tables:\n",
                   Argv[I]);
      for (const TableDef &Def : tables())
        std::fprintf(stderr, "  %s\n", Def.Name);
      return 2;
    }
    Run.push_back(Found);
  }
  if (Run.empty())
    for (const TableDef &Def : tables())
      Run.push_back(&Def);

  std::vector<Cell> Expected;
  std::string Error;
  std::ifstream ExpectedFile(MUTK_PAPER_EXPECTED);
  if (!ExpectedFile || !readCells(ExpectedFile, Expected, Error)) {
    std::fprintf(stderr, "mutk_paper: cannot read %s: %s\n",
                 MUTK_PAPER_EXPECTED,
                 Error.empty() ? "cannot open" : Error.c_str());
    return 2;
  }

  std::vector<Cell> Computed;
  std::set<std::string> Ran;
  int FailedClaims = 0;
  for (const TableDef *Def : Run) {
    Table T(Def->Name);
    mutk::Stopwatch W;
    Def->Run(T);
    std::fflush(stdout);
    std::fprintf(stderr, "mutk_paper: %s: %.2f s\n", Def->Name, W.seconds());
    for (const Claim &C : T.Claims) {
      std::string Line = C.Text;
      for (std::size_t K = 0; K < C.Misses.size(); ++K)
        Line += (K == 0 ? "; missed by " : ", ") + C.Misses[K];
      std::fprintf(stderr, "mutk_paper: %s: claim %s: %s\n", Def->Name,
                   C.Misses.empty() ? "holds" : "FAILS", Line.c_str());
      FailedClaims += !C.Misses.empty();
    }
    Computed.insert(Computed.end(), T.Cells.begin(), T.Cells.end());
    Ran.insert(T.Name);
  }

  std::ofstream Out("mutk_paper.tsv");
  writeCells(Out, Computed);
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "mutk_paper: cannot write mutk_paper.tsv\n");
    return 2;
  }

  std::erase_if(Expected, [&](const Cell &C) { return !Ran.count(C.Table); });
  std::vector<std::string> Diffs = diffCells(Computed, Expected);
  for (const std::string &D : Diffs)
    std::fprintf(stderr, "mutk_paper: %s\n", D.c_str());
  std::fprintf(stderr,
               "mutk_paper: %zu tables; %zu expected cells, %zu "
               "differences; %d claims fail\n",
               Run.size(), Expected.size(), Diffs.size(), FailedClaims);
  return Diffs.empty() && FailedClaims == 0 ? 0 : 1;
}

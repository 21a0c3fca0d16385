//===- bench/paper/Paper.h - Paper tables, cells and their check -*- C++ -*-===//
///
/// \file
/// The pieces of `mutk_paper`: a table prints one figure of the reproduced
/// papers and records every number it prints as a cell; the driver
/// compares the exact cells with the committed `expected.tsv` and fails
/// on any difference or on a paper claim that does not hold.
///
/// The cell file has one exact cell per line:
///
///   table  row  column  value
///
/// with tab separators and the value in shortest round-trip form, so a
/// read gives back the computed double bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_PAPER_PAPER_H
#define MUTK_BENCH_PAPER_PAPER_H

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace paper {

/// One printed number. Exact cells (costs, branched nodes, virtual
/// makespans and ratios of them) are deterministic and must equal the
/// expected file; info cells (wall seconds) are printed and never
/// compared.
struct Cell {
  std::string Table;
  std::string Row;
  std::string Column;
  double Value = 0.0;
  bool Exact = true;
};

/// A paper claim stated as a predicate on a table's exact cells; it
/// holds when no row misses it.
struct Claim {
  std::string Text;
  std::vector<std::string> Misses;
};

/// What one table run recorded.
class Table {
public:
  explicit Table(std::string Name) : Name(std::move(Name)) {}

  /// Starts a row keyed by \p Parts joined with '/' (e.g. species/seed).
  template <class... Parts> void row(const Parts &...P) {
    std::ostringstream Key;
    const char *Sep = "";
    ((Key << Sep << P, Sep = "/"), ...);
    CurrentRow = Key.str();
    RowStart = Cells.size();
  }

  /// Records \p Value in \p Column of the current row; returns it.
  double exact(const char *Column, double Value) {
    return record(Column, Value, true);
  }
  double info(const char *Column, double Value) {
    return record(Column, Value, false);
  }

  /// States a claim; \p Misses names the rows that break it.
  void claim(std::string Text, std::vector<std::string> Misses) {
    Claims.push_back({std::move(Text), std::move(Misses)});
  }
  /// States a claim that some row has a property (\p Holds).
  void claim(std::string Text, bool Holds) {
    claim(std::move(Text), Holds ? std::vector<std::string>{}
                                 : std::vector<std::string>{"no row has it"});
  }

  const std::string Name;
  std::vector<Cell> Cells;
  std::vector<Claim> Claims;

private:
  /// Keeps a row's cells in column order, so the cell file does not
  /// depend on the order a compiler evaluates printf arguments in.
  double record(const char *Column, double Value, bool Exact) {
    Cells.push_back({Name, CurrentRow, Column, Value, Exact});
    for (std::size_t K = Cells.size() - 1;
         K > RowStart && Cells[K - 1].Column > Cells[K].Column; --K)
      std::swap(Cells[K - 1], Cells[K]);
    return Value;
  }

  std::string CurrentRow;
  std::size_t RowStart = 0;
};

/// A table of the registry and the name it runs under.
struct TableDef {
  const char *Name;
  void (*Run)(Table &);
};

/// Every table, in print order (Tables.cpp).
const std::vector<TableDef> &tables();

/// Writes the exact cells of \p Cells in the cell-file format.
void writeCells(std::ostream &Out, const std::vector<Cell> &Cells);

/// Appends the cells of a cell file to \p Cells. \returns false with
/// \p Error naming the line when one is malformed.
bool readCells(std::istream &In, std::vector<Cell> &Cells,
               std::string &Error);

/// One line per exact cell of \p Computed that is absent from or differs
/// from \p Expected, per cell of \p Expected that was not computed, and
/// per key recorded twice. Info cells are skipped.
std::vector<std::string> diffCells(const std::vector<Cell> &Computed,
                                   const std::vector<Cell> &Expected);

} // namespace paper

#endif // MUTK_BENCH_PAPER_PAPER_H

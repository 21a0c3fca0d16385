//===- matrix/DistanceMatrix.h - Symmetric species distances ----*- C++ -*-===//
///
/// \file
/// The distance-matrix model shared by every algorithm in the project: a
/// symmetric matrix `M` with `M[i][i] = 0` holding pairwise species
/// distances (paper §2, Definition 1). Optional species names are carried
/// along so trees can be rendered with meaningful leaf labels.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_MATRIX_DISTANCEMATRIX_H
#define MUTK_MATRIX_DISTANCEMATRIX_H

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace mutk {

/// A symmetric `n x n` matrix of pairwise species distances.
///
/// Only symmetry and a zero diagonal are structural invariants; whether the
/// matrix is a metric or an ultrametric is a property checked by
/// `MetricUtils` (many inputs, e.g. raw random values, are deliberately not
/// metric until repaired).
class DistanceMatrix {
public:
  DistanceMatrix() = default;

  /// Creates an `n x n` zero matrix with default species names `s0..s{n-1}`.
  explicit DistanceMatrix(int NumSpecies);

  /// Creates a zero matrix with one species per name in \p Names.
  explicit DistanceMatrix(std::vector<std::string> Names);

  /// Number of species (rows/columns).
  int size() const { return N; }

  /// Returns the distance between species \p I and \p J.
  double at(int I, int J) const {
    assert(I >= 0 && I < N && J >= 0 && J < N && "index out of range");
    return Data[static_cast<std::size_t>(I) * N + J];
  }

  /// Raw pointer to row \p I of the row-major storage:
  /// `row(I)[J] == at(I, J)`. For allocation-free hot loops (B&B height
  /// updates and the lower-bound scan) that would otherwise pay the
  /// bounds-checked `at()` per element.
  const double *row(int I) const {
    assert(I >= 0 && I < N && "row out of range");
    return Data.data() + static_cast<std::size_t>(I) * N;
  }

  /// Sets the distance between \p I and \p J (and \p J and \p I).
  ///
  /// Setting a diagonal entry to a nonzero value is a programming error.
  void set(int I, int J, double Value) {
    assert(I >= 0 && I < N && J >= 0 && J < N && "index out of range");
    assert((I != J || Value == 0.0) && "diagonal must stay zero");
    assert(Value >= 0.0 && "distances are nonnegative");
    Data[static_cast<std::size_t>(I) * N + J] = Value;
    Data[static_cast<std::size_t>(J) * N + I] = Value;
  }

  /// Fills the matrix from its upper triangle, rows in order, then
  /// mirrors it into the lower triangle. For row I, `FillRow(Upper, Count)`
  /// writes the `Count = n - I - 1` entries `(I, I+1) .. (I, n-1)` to
  /// `Upper` and returns false to stop; the entries must be nonnegative
  /// (a caller filling from outside input validates them). \returns false
  /// when a row fill stopped, leaving the contents unspecified.
  template <typename FillRowFn> bool fillUpperRows(FillRowFn &&FillRow) {
    for (int I = 0; I < N; ++I)
      if (!FillRow(Data.data() + static_cast<std::size_t>(I) * N + I + 1,
                   static_cast<std::size_t>(N - I - 1)))
        return false;
    mirrorUpperTriangle();
    return true;
  }

  /// Returns the name of species \p I.
  const std::string &name(int I) const {
    assert(I >= 0 && I < N && "index out of range");
    return Names[static_cast<std::size_t>(I)];
  }

  /// Renames species \p I.
  void setName(int I, std::string Name) {
    assert(I >= 0 && I < N && "index out of range");
    Names[static_cast<std::size_t>(I)] = std::move(Name);
  }

  /// Returns all species names in index order.
  const std::vector<std::string> &names() const { return Names; }

  /// Returns a copy with rows/columns reordered so that new index `k`
  /// corresponds to old index `Perm[k]`.
  DistanceMatrix permuted(const std::vector<int> &Perm) const;

  /// Returns the submatrix restricted to \p Indices (in the given order),
  /// keeping their names.
  DistanceMatrix restrictedTo(const std::vector<int> &Indices) const;

  /// Returns the largest off-diagonal entry (0 for matrices with n < 2).
  double maxEntry() const;

  /// Returns the smallest off-diagonal entry (0 for matrices with n < 2).
  double minEntry() const;

  /// Element-wise equality within \p Tolerance.
  bool approxEquals(const DistanceMatrix &Other, double Tolerance) const;

private:
  /// Copies every upper-triangle entry onto its lower-triangle twin.
  void mirrorUpperTriangle();

  int N = 0;
  std::vector<double> Data;
  std::vector<std::string> Names;
};

} // namespace mutk

#endif // MUTK_MATRIX_DISTANCEMATRIX_H

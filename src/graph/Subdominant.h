//===- graph/Subdominant.h - Subdominant ultrametric ------------*- C++ -*-===//
///
/// \file
/// The *subdominant ultrametric* of a distance matrix: the unique largest
/// ultrametric lying below `M` pointwise,
/// `U[i,j] = min over paths i..j of the maximum edge weight` — i.e. the
/// bottleneck distance of the complete graph, computable from any MST
/// (the max edge on the MST path realizes it). This is the classical
/// structure behind fast ultrametric recognition (Dahlhaus 1993, the
/// papers' reference [2]): `M` is an ultrametric iff `M` equals its
/// subdominant. It also coincides with the tree metric of the
/// single-linkage clustering, which the test suite cross-checks.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_GRAPH_SUBDOMINANT_H
#define MUTK_GRAPH_SUBDOMINANT_H

#include "matrix/DistanceMatrix.h"

namespace mutk {

/// Computes the subdominant ultrametric of \p M in O(n^2)
/// (Kruskal merge order; each merge fixes all cross-component entries to
/// the current edge weight).
DistanceMatrix subdominantUltrametric(const DistanceMatrix &M);

/// MST-based ultrametric recognition: true iff \p M equals its
/// subdominant within \p Tolerance. Equivalent to the O(n^3) triple
/// check `isUltrametric`, but quadratic.
bool isUltrametricFast(const DistanceMatrix &M, double Tolerance = 1e-9);

/// Largest gap `M[i,j] - U[i,j]` to the subdominant — a measure of how
/// far the matrix is from the nearest-below ultrametric (0 iff
/// ultrametric).
double subdominantGap(const DistanceMatrix &M);

} // namespace mutk

#endif // MUTK_GRAPH_SUBDOMINANT_H

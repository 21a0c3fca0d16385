//===- graph/CompactSets.h - Compact-set detection --------------*- C++ -*-===//
///
/// \file
/// Compact sets (paper §3.1, Dekel-Hu-Ouyang 1992, Liang 1993): a subset
/// `S` of the species is *compact* when the largest distance inside `S` is
/// strictly smaller than the smallest distance from `S` to the rest. The
/// paper's properties hold by construction here:
///
///  * Lemma 2: the compactness criterion itself (`Max(S) < Min(S, !S)`).
///  * Lemma 3: compact sets are laminar (two compact sets are nested or
///    disjoint), so they form a hierarchy.
///  * Lemma 4: a compact set induces a connected subtree of the MST, so
///    every compact set appears as a component during Kruskal's merge
///    sequence — which is what makes the O(n^2) detector below exact.
///
/// The detector implements the paper's "Algorithm Compact Sets": run
/// Kruskal in ascending edge order and test every merged component.
/// `Max(A)` is maintained incrementally over the *complete* graph;
/// `Min(A, !A)` is the lightest MST edge crossing the cut (MST cut
/// property), which is the edge of A's next merge, so it is read off when
/// that merge happens. A brute-force subset enumerator is provided as the
/// reference oracle for tests.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_GRAPH_COMPACTSETS_H
#define MUTK_GRAPH_COMPACTSETS_H

#include "matrix/DistanceMatrix.h"

#include <vector>

namespace mutk {

/// One detected compact set with its witness values.
struct CompactSet {
  /// Members in increasing species order.
  std::vector<int> Members;
  /// Largest pairwise distance inside the set.
  double MaxInside = 0.0;
  /// Smallest distance from a member to a non-member.
  double MinOutgoing = 0.0;

  int size() const { return static_cast<int>(Members.size()); }
};

/// Tests the definition directly: `max inside < min outgoing`.
///
/// Singletons and the whole species set are compact by convention
/// (they have no inside pair / no outgoing pair respectively).
bool isCompactSet(const DistanceMatrix &M, const std::vector<int> &Members);

/// Finds every *proper, nontrivial* compact set (`2 <= |S| < n`) via the
/// Kruskal merge sequence. Results are ordered by ascending `MaxInside`
/// (i.e. discovery order), members sorted ascending. O(n^2).
std::vector<CompactSet> findCompactSets(const DistanceMatrix &M);

/// Reference oracle: enumerates all `2^n` subsets. Requires `n <= 22`.
std::vector<CompactSet> findCompactSetsBruteForce(const DistanceMatrix &M);

/// Returns true if \p Sets is laminar: every pair is nested or disjoint.
bool isLaminarFamily(const std::vector<CompactSet> &Sets);

} // namespace mutk

#endif // MUTK_GRAPH_COMPACTSETS_H

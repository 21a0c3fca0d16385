//===- graph/Mst.h - Minimum spanning trees of the species graph *- C++ -*-===//
///
/// \file
/// A distance matrix is viewed as a complete, weighted, undirected graph
/// (paper §2). Compact-set detection starts from a minimum spanning tree of
/// that graph, taken in Kruskal's acceptance order (paper §3.1). Edges are
/// ordered by (weight, U, V), a strict total order, so the tree is unique
/// and a dense O(n^2) Prim builds it without sorting all n(n-1)/2 edges.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_GRAPH_MST_H
#define MUTK_GRAPH_MST_H

#include "matrix/DistanceMatrix.h"

#include <vector>

namespace mutk {

/// An undirected weighted edge with `U < V` canonical orientation.
struct WeightedEdge {
  int U = -1;
  int V = -1;
  double Weight = 0.0;

  friend bool operator==(const WeightedEdge &A, const WeightedEdge &B) {
    return A.U == B.U && A.V == B.V && A.Weight == B.Weight;
  }
};

/// Compares by (weight, U, V): a strict total order on the edges, so the
/// minimum spanning tree and its Kruskal order are unique even under ties.
bool edgeLess(const WeightedEdge &A, const WeightedEdge &B);

/// The minimum spanning tree of the complete graph of \p M under
/// `edgeLess`, built by a dense Prim in O(n^2) time and O(n) extra space.
///
/// \returns the `n - 1` tree edges in the order Kruskal accepts them
/// (ascending `edgeLess`). Deterministic under ties.
std::vector<WeightedEdge> kruskalMst(const DistanceMatrix &M);

/// Sum of edge weights.
double totalWeight(const std::vector<WeightedEdge> &Edges);

/// Returns true if \p Edges forms a spanning tree over `0..n-1`.
bool isSpanningTree(const std::vector<WeightedEdge> &Edges, int NumVertices);

} // namespace mutk

#endif // MUTK_GRAPH_MST_H

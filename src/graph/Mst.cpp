//===- graph/Mst.cpp - Minimum spanning trees of the species graph --------===//

#include "graph/Mst.h"

#include "support/UnionFind.h"

#include <algorithm>
#include <limits>
#include <numeric>

using namespace mutk;

bool mutk::edgeLess(const WeightedEdge &A, const WeightedEdge &B) {
  if (A.Weight != B.Weight)
    return A.Weight < B.Weight;
  if (A.U != B.U)
    return A.U < B.U;
  return A.V < B.V;
}

namespace {

/// The edge {A, B} of weight \p W in canonical `U < V` orientation.
WeightedEdge canonicalEdge(int A, int B, double W) {
  return A < B ? WeightedEdge{A, B, W} : WeightedEdge{B, A, W};
}

} // namespace

std::vector<WeightedEdge> mutk::kruskalMst(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<WeightedEdge> Tree;
  if (N < 2)
    return Tree;
  Tree.reserve(static_cast<std::size_t>(N - 1));

  // Dense Prim under edgeLess. (Weight, U, V) is a strict total order, so
  // the MST is unique and Prim grows exactly the tree Kruskal accepts.
  // Best[V] and From[V] hold the lightest edge from V into the tree;
  // Outside lists the vertices not yet in it, in no particular order.
  std::vector<double> Best(M.row(0), M.row(0) + N);
  std::vector<int> From(static_cast<std::size_t>(N), 0);
  std::vector<int> Outside(static_cast<std::size_t>(N - 1));
  std::iota(Outside.begin(), Outside.end(), 1);

  int Next = 0; // the vertex that joined the tree last
  while (!Outside.empty()) {
    // One pass relaxes every outside vertex against Next and picks the
    // lightest candidate; (U, V) is only consulted on equal weights.
    const double *Row = M.row(Next);
    std::size_t Pick = 0;
    double PickWeight = std::numeric_limits<double>::infinity();
    for (std::size_t K = 0; K < Outside.size(); ++K) {
      const int V = Outside[K];
      const double W = Row[V];
      if (W < Best[V] ||
          (W == Best[V] && edgeLess(canonicalEdge(Next, V, W),
                                    canonicalEdge(From[V], V, W)))) {
        Best[V] = W;
        From[V] = Next;
      }
      if (Best[V] < PickWeight ||
          (Best[V] == PickWeight &&
           edgeLess(canonicalEdge(From[V], V, PickWeight),
                    canonicalEdge(From[Outside[Pick]], Outside[Pick],
                                  PickWeight)))) {
        Pick = K;
        PickWeight = Best[V];
      }
    }
    Next = Outside[Pick];
    Tree.push_back(canonicalEdge(From[Next], Next, Best[Next]));
    Outside[Pick] = Outside.back();
    Outside.pop_back();
  }
  // Kruskal accepts the tree edges in ascending edgeLess order.
  std::sort(Tree.begin(), Tree.end(), edgeLess);
  return Tree;
}

double mutk::totalWeight(const std::vector<WeightedEdge> &Edges) {
  double Sum = 0.0;
  for (const WeightedEdge &E : Edges)
    Sum += E.Weight;
  return Sum;
}

bool mutk::isSpanningTree(const std::vector<WeightedEdge> &Edges,
                          int NumVertices) {
  if (static_cast<int>(Edges.size()) != NumVertices - 1)
    return NumVertices <= 1 && Edges.empty();
  UnionFind Components(static_cast<std::size_t>(NumVertices));
  for (const WeightedEdge &E : Edges) {
    if (E.U < 0 || E.V < 0 || E.U >= NumVertices || E.V >= NumVertices)
      return false;
    if (Components.unite(E.U, E.V) < 0)
      return false; // cycle
  }
  return Components.numComponents() == 1;
}

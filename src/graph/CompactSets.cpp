//===- graph/CompactSets.cpp - Compact-set detection ----------------------===//

#include "graph/CompactSets.h"

#include "graph/Mst.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace mutk;

bool mutk::isCompactSet(const DistanceMatrix &M,
                        const std::vector<int> &Members) {
  const int N = M.size();
  std::vector<bool> InSet(static_cast<std::size_t>(N), false);
  for (int Species : Members) {
    assert(Species >= 0 && Species < N && "member out of range");
    InSet[static_cast<std::size_t>(Species)] = true;
  }

  double MaxInside = 0.0;
  for (std::size_t A = 0; A < Members.size(); ++A)
    for (std::size_t B = A + 1; B < Members.size(); ++B)
      MaxInside = std::max(MaxInside, M.at(Members[A], Members[B]));

  double MinOutgoing = std::numeric_limits<double>::infinity();
  for (int Species : Members)
    for (int Other = 0; Other < N; ++Other)
      if (!InSet[static_cast<std::size_t>(Other)])
        MinOutgoing = std::min(MinOutgoing, M.at(Species, Other));

  // Singletons: MaxInside == 0 < any positive outgoing distance; the whole
  // set: MinOutgoing stays +infinity. Both count as compact by convention.
  return MaxInside < MinOutgoing;
}

std::vector<CompactSet> mutk::findCompactSets(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<CompactSet> Result;
  if (N < 3)
    return Result; // no proper nontrivial subset can exist for n < 3

  // kruskalMst returns the merge sequence: edges in ascending
  // (weight, U, V) order.
  std::vector<WeightedEdge> Tree = kruskalMst(M);
  const int NumEdges = static_cast<int>(Tree.size());

  UnionFind Components(static_cast<std::size_t>(N));
  // Members and the max intra-set distance per component representative.
  std::vector<std::vector<int>> Members(static_cast<std::size_t>(N));
  std::vector<double> MaxInside(static_cast<std::size_t>(N), 0.0);
  for (int I = 0; I < N; ++I)
    Members[static_cast<std::size_t>(I)] = {I};
  // The merge that formed each representative's component (-1: singleton).
  // A candidate's Min(A, !A) is the lightest MST edge leaving A (cut
  // property), i.e. the edge of A's next merge; it is settled then, into
  // the slot of the merge that formed A, so sets keep discovery order.
  std::vector<int> FormedAt(static_cast<std::size_t>(N), -1);
  std::vector<CompactSet> Found(static_cast<std::size_t>(NumEdges - 1));

  for (int EdgeIndex = 0; EdgeIndex < NumEdges; ++EdgeIndex) {
    const WeightedEdge &E = Tree[static_cast<std::size_t>(EdgeIndex)];
    int RepA = Components.find(E.U);
    int RepB = Components.find(E.V);
    assert(RepA != RepB && "MST edge endpoints already merged");

    for (int Rep : {RepA, RepB}) {
      const int Formed = FormedAt[static_cast<std::size_t>(Rep)];
      const double Inside = MaxInside[static_cast<std::size_t>(Rep)];
      if (Formed < 0 || !(Inside < E.Weight))
        continue;
      CompactSet &Set = Found[static_cast<std::size_t>(Formed)];
      Set.Members = Members[static_cast<std::size_t>(Rep)];
      std::sort(Set.Members.begin(), Set.Members.end());
      Set.MaxInside = Inside;
      Set.MinOutgoing = E.Weight;
    }

    // Max over the complete graph inside the merged component: old maxima
    // plus all cross pairs. Total cross-pair work over the whole run is
    // O(n^2).
    double CrossMax = 0.0;
    for (int A : Members[static_cast<std::size_t>(RepA)]) {
      const double *Row = M.row(A);
      for (int B : Members[static_cast<std::size_t>(RepB)])
        CrossMax = std::max(CrossMax, Row[B]);
    }

    int Rep = Components.unite(E.U, E.V);
    int Other = (Rep == RepA) ? RepB : RepA;
    MaxInside[static_cast<std::size_t>(Rep)] =
        std::max({MaxInside[static_cast<std::size_t>(RepA)],
                  MaxInside[static_cast<std::size_t>(RepB)], CrossMax});
    FormedAt[static_cast<std::size_t>(Rep)] = EdgeIndex;
    auto &Into = Members[static_cast<std::size_t>(Rep)];
    auto &From = Members[static_cast<std::size_t>(Other)];
    Into.insert(Into.end(), From.begin(), From.end());
    From.clear();
    From.shrink_to_fit();
  }
  // The final merge yields the whole species set, which is excluded; every
  // earlier component merged again, so every slot has been settled.
  for (CompactSet &Set : Found)
    if (!Set.Members.empty())
      Result.push_back(std::move(Set));
  return Result;
}

std::vector<CompactSet>
mutk::findCompactSetsBruteForce(const DistanceMatrix &M) {
  const int N = M.size();
  assert(N <= 22 && "brute force is exponential; use findCompactSets");
  std::vector<CompactSet> Result;
  if (N < 3)
    return Result;

  for (std::uint32_t Mask = 1; Mask + 1 < (1u << N); ++Mask) {
    std::vector<int> Members;
    for (int I = 0; I < N; ++I)
      if (Mask & (1u << I))
        Members.push_back(I);
    if (Members.size() < 2)
      continue;
    if (!isCompactSet(M, Members))
      continue;

    CompactSet Set;
    for (std::size_t A = 0; A < Members.size(); ++A)
      for (std::size_t B = A + 1; B < Members.size(); ++B)
        Set.MaxInside = std::max(Set.MaxInside, M.at(Members[A], Members[B]));
    Set.MinOutgoing = std::numeric_limits<double>::infinity();
    for (int Species : Members)
      for (int Other = 0; Other < N; ++Other)
        if (!(Mask & (1u << Other)))
          Set.MinOutgoing = std::min(Set.MinOutgoing, M.at(Species, Other));
    Set.Members = std::move(Members);
    Result.push_back(std::move(Set));
  }

  std::sort(Result.begin(), Result.end(),
            [](const CompactSet &A, const CompactSet &B) {
              if (A.MaxInside != B.MaxInside)
                return A.MaxInside < B.MaxInside;
              return A.Members < B.Members;
            });
  return Result;
}

bool mutk::isLaminarFamily(const std::vector<CompactSet> &Sets) {
  for (std::size_t A = 0; A < Sets.size(); ++A)
    for (std::size_t B = A + 1; B < Sets.size(); ++B) {
      const auto &SA = Sets[A].Members;
      const auto &SB = Sets[B].Members;
      std::vector<int> Intersection;
      std::set_intersection(SA.begin(), SA.end(), SB.begin(), SB.end(),
                            std::back_inserter(Intersection));
      if (Intersection.empty())
        continue;
      if (Intersection.size() != SA.size() &&
          Intersection.size() != SB.size())
        return false;
    }
  return true;
}

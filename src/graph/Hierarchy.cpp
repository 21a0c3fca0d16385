//===- graph/Hierarchy.cpp - Laminar hierarchy of compact sets ------------===//

#include "graph/Hierarchy.h"

#include "support/Audit.h"

#include <algorithm>
#include <cassert>

using namespace mutk;

CompactHierarchy::CompactHierarchy(int NumSpecies,
                                   const std::vector<CompactSet> &Sets)
    : NumSpecies(NumSpecies) {
  assert(NumSpecies >= 1 && "need at least one species");
  // Audited (not just asserted): laminarity is the paper's Lemma 3 and
  // every condensation step depends on it, so sanitizer builds — which
  // define NDEBUG in RelWithDebInfo — must still check it.
  MUTK_AUDIT(isLaminarFamily(Sets),
             "compact sets must form a laminar family (Lemma 3)");

  // Gather distinct member lists, largest first so parents precede
  // children when we link below.
  std::vector<std::vector<int>> Lists;
  for (const CompactSet &Set : Sets) {
    assert(Set.size() >= 2 && Set.size() < NumSpecies &&
           "hierarchy expects proper nontrivial sets");
    Lists.push_back(Set.Members);
  }
  std::sort(Lists.begin(), Lists.end(),
            [](const std::vector<int> &A, const std::vector<int> &B) {
              if (A.size() != B.size())
                return A.size() > B.size();
              return A < B;
            });
  Lists.erase(std::unique(Lists.begin(), Lists.end()), Lists.end());

  // The root, one node per list and one leaf per species: the leaf loop
  // below appends while it reads node(Id).Species, so Nodes never grows.
  Nodes.reserve(1 + Lists.size() + static_cast<std::size_t>(NumSpecies));

  // Root covers everything.
  Node Root;
  Root.Species.resize(static_cast<std::size_t>(NumSpecies));
  for (int I = 0; I < NumSpecies; ++I)
    Root.Species[static_cast<std::size_t>(I)] = I;
  Nodes.push_back(std::move(Root));
  RootId = 0;

  // Owner[S] is the deepest node placed so far that contains species S.
  // Lists come largest first and the family is laminar, so the deepest
  // placed set holding a list's first member is its smallest strict
  // superset: its parent.
  std::vector<int> Owner(static_cast<std::size_t>(NumSpecies), RootId);
  for (auto &List : Lists) {
    const int Id = numNodes();
    const int Parent = Owner[static_cast<std::size_t>(List.front())];
    for (int Species : List)
      Owner[static_cast<std::size_t>(Species)] = Id;
    Node New;
    New.Species = std::move(List);
    New.Parent = Parent;
    Nodes.push_back(std::move(New));
    Nodes[static_cast<std::size_t>(Parent)].Children.push_back(Id);
  }

  // A species whose deepest set is node Id is covered by none of Id's
  // children: it becomes a singleton leaf under Id.
  const int NumInternal = numNodes();
  for (int Id = 0; Id < NumInternal; ++Id)
    for (int Species : node(Id).Species) {
      if (Owner[static_cast<std::size_t>(Species)] != Id)
        continue;
      Node Leaf;
      Leaf.Species = {Species};
      Leaf.Parent = Id;
      Nodes.push_back(std::move(Leaf));
      Nodes[static_cast<std::size_t>(Id)].Children.push_back(numNodes() - 1);
    }
}

std::vector<std::vector<int>> CompactHierarchy::partitionAt(int Id) const {
  std::vector<std::vector<int>> Blocks;
  for (int Child : node(Id).Children)
    Blocks.push_back(node(Child).Species);
  // The blocks must partition the node's species: each member covered by
  // exactly one block, nothing from outside.
  MUTK_AUDIT(
      [&] {
        std::vector<int> Flat;
        for (const std::vector<int> &Block : Blocks)
          Flat.insert(Flat.end(), Block.begin(), Block.end());
        std::sort(Flat.begin(), Flat.end());
        return Flat == node(Id).Species;
      }(),
      "hierarchy children must partition their parent's species");
  return Blocks;
}

std::vector<int> CompactHierarchy::internalNodesTopDown() const {
  // Nodes were appended parents-first, so index order is already
  // topological; filter out the singleton leaves.
  std::vector<int> Result;
  for (int Id = 0; Id < numNodes(); ++Id)
    if (!node(Id).isSingleton())
      Result.push_back(Id);
  return Result;
}

int CompactHierarchy::maxPartitionSize() const {
  int Max = 0;
  for (int Id = 0; Id < numNodes(); ++Id)
    if (!node(Id).isSingleton())
      Max = std::max(Max, static_cast<int>(node(Id).Children.size()));
  return Max;
}

//===- bnb/Topology.h - Partial topologies for the B&B ----------*- C++ -*-===//
///
/// \file
/// The node type of the branch-and-bound tree (BBT): a *partial topology*
/// over the first `k` species of the (maxmin-relabeled) matrix, carrying
/// the minimal feasible ultrametric heights. Branching inserts species `k`
/// on each of the `2k - 1` edges (every edge plus "above the root" —
/// Algorithm BBU's branching rule). `InsertionPrices` prices all of them
/// from one O(k) pass over the parent, so the B&B builds only the
/// children that survive the bound; building one copies the parent and
/// updates the heights and the tree weight along the inserted leaf's
/// path, using per-node leaf bitmasks.
///
/// The bitmask representation caps a single exact solve at 64 species,
/// far beyond branch-and-bound reach (the paper's record is 38).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_TOPOLOGY_H
#define MUTK_BNB_TOPOLOGY_H

#include "matrix/DistanceMatrix.h"
#include "support/Bits.h"
#include "tree/PhyloTree.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace mutk {

/// Maximum species per exact solve (LeafMask width).
inline constexpr int MaxBnbSpecies = 64;

/// A partial ultrametric-tree topology over species `0..k-1` with minimal
/// feasible heights for a fixed distance matrix.
///
/// Copies are cheap (one vector of PODs); the B&B copies a topology only
/// for the branching positions whose priced bound survives.
class Topology {
public:
  /// One tree node. Leaves have `Leaf >= 0`; heights are minimal feasible.
  struct Node {
    std::int16_t Parent = -1;
    std::int16_t Left = -1;
    std::int16_t Right = -1;
    std::int16_t Leaf = -1;
    LeafMask Mask = 0;
    double Height = 0.0;

    bool isLeaf() const { return Leaf >= 0; }
  };

  Topology() = default;

  /// The BBT root: the unique topology over species 0 and 1
  /// (Algorithm BBU, Step 2). Requires `M.size() >= 2`.
  static Topology initialPair(const DistanceMatrix &M);

  /// Reconstructs a topology from raw nodes (deserialization support).
  ///
  /// Validates the structure: binary shape with consistent parent
  /// pointers, masks that union correctly, and leaves carrying exactly
  /// the species `0..k-1` (the BBT invariant). The cost is recomputed
  /// from the given heights. \returns nullopt on any violation.
  static std::optional<Topology> fromNodes(std::vector<Node> Nodes,
                                           int Root);

  /// Number of species already placed (`k`).
  int numPlaced() const { return Placed; }

  /// Number of tree nodes (`2k - 1`).
  int numNodes() const { return static_cast<int>(Nodes.size()); }

  int rootIndex() const { return Root; }

  const Node &node(int Index) const {
    assert(Index >= 0 && Index < numNodes() && "node out of range");
    return Nodes[static_cast<std::size_t>(Index)];
  }

  /// Current tree weight `w(T) = h(root) + sum of internal heights`.
  double cost() const { return Cost; }

  /// Number of branching positions for the next insertion (`2k - 1`).
  int numInsertPositions() const { return numNodes() + 1; }

  /// Returns a copy with species `numPlaced()` inserted at \p Position.
  ///
  /// Positions `0..numNodes()-1` split the edge above that node (the root
  /// "edge" position `rootIndex()` creates a new root, equivalent to the
  /// above-root insertion); position `numNodes()` also denotes above-root
  /// and is kept for enumeration convenience — to avoid generating the
  /// duplicate, iterate positions `0..numNodes()-1` only.
  Topology withNextSpeciesAt(int Position, const DistanceMatrix &M) const;

  /// Like `withNextSpeciesAt`, but writes the child into \p Out, reusing
  /// \p Out's existing buffer capacity. This is the arena fast path: a
  /// Topology recycled through a `TopologyArena` keeps its vectors, so
  /// after warm-up an expansion performs no heap allocation.
  void expandInto(int Position, const DistanceMatrix &M, Topology &Out) const;

  /// Reserves storage for a full solve over \p NumSpecies species
  /// (`2n - 1` nodes). Used by `TopologyArena` to pre-size fresh pool
  /// entries so even the first acquire never reallocates mid-insertion.
  void reserveFor(int NumSpecies) {
    if (NumSpecies <= 0)
      return;
    Nodes.reserve(static_cast<std::size_t>(2 * NumSpecies - 1));
    LeafNode.reserve(static_cast<std::size_t>(NumSpecies));
  }

  /// Node index of the leaf carrying \p Species.
  int leafNodeOf(int Species) const {
    assert(Species >= 0 && Species < Placed && "species not placed yet");
    return LeafNode[static_cast<std::size_t>(Species)];
  }

  /// Lowest node whose mask contains both species (both must be placed).
  int lcaOf(int SpeciesA, int SpeciesB) const;

  /// True if node \p A is a strict descendant of node \p B.
  bool isStrictlyBelow(int A, int B) const;

  /// Converts to a PhyloTree, mapping local species index `i` to
  /// `Relabel[i]` (pass the maxmin permutation to recover original ids).
  PhyloTree toPhyloTree(const std::vector<int> &Relabel) const;

  /// Recomputes heights/cost from scratch and compares with the
  /// incrementally maintained values; for tests.
  bool invariantsHold(const DistanceMatrix &M, double Tolerance = 1e-9) const;

  /// True when every height is exactly the minimal feasible one for
  /// \p M: the largest of the children's heights and half of each
  /// distance across the node. Insertion keeps heights this way, so a
  /// topology built over \p M always passes; one with forged heights
  /// does not. Requires `numPlaced() <= M.size()`.
  bool hasMinimalHeights(const DistanceMatrix &M) const;

private:
  std::vector<Node> Nodes;
  std::vector<std::int16_t> LeafNode; // species -> node index
  std::int16_t Root = -1;
  int Placed = 0;
  double Cost = 0.0;

  /// Max of `Row[j] / 2` over all j in \p Mask, where \p Row is the raw
  /// matrix row of the species being inserted.
  static double halfMaxTo(const double *Row, LeafMask Mask);

  /// Inserts species `Placed` at \p Position in place (the shared body of
  /// `withNextSpeciesAt` and `expandInto`).
  void insertNextAt(int Position, const DistanceMatrix &M);

  void recomputeCost();
};

/// The cost of every child of one parent, priced without building it:
/// one O(k) pass over \p Parent serves all `2k - 1` insertion positions
/// of species `k` (docs/ALGORITHMS.md, section 1).
///
/// `cost(P)` is bit-identical to the `cost()` of the child that
/// `Parent.expandInto(P, M, Child)` builds; `costFloor(P)` is never above
/// it. Holds fixed-size arrays and allocates nothing, so `BnbEngine::
/// branch` keeps one per call on its stack; the constructor writes every
/// entry of nodes `0..numNodes()-1` before anything reads it. \p Parent
/// must outlive it.
class InsertionPrices {
public:
  /// Requires `Parent.numPlaced() < M.size()`.
  InsertionPrices(const Topology &Parent, const DistanceMatrix &M);

  /// A lower estimate of `cost(Position)` in two additions: the parent's
  /// internal heights, unraised, plus the two heights every child has.
  double costFloor(int Position) const {
    return (Prefix[Count] + Raised[Position]) + Raised[Root];
  }

  /// The child's exact cost, summed in the order `Topology` sums it.
  double cost(int Position) const;

private:
  static constexpr int MaxNodes = 2 * MaxBnbSpecies - 1;

  const Topology &Parent;
  int Count;
  int Root;
  /// The height node `v` takes when the new species lands anywhere below
  /// it: `max(h(v), max over leaves j of v of M[k,j] / 2)`. The new
  /// internal node above `v` takes it too.
  double Raised[MaxNodes];
  /// `Prefix[i]`: the parent's internal heights of nodes `0..i-1`, summed
  /// in index order from 0.
  double Prefix[MaxNodes + 1];
  /// The lowest-index strict ancestor of each node whose height the
  /// insertion raises, or `Count` when it raises none.
  std::int16_t FirstRaised[MaxNodes];
};

} // namespace mutk

#endif // MUTK_BNB_TOPOLOGY_H

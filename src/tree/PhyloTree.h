//===- tree/PhyloTree.h - Rooted edge-weighted binary trees -----*- C++ -*-===//
///
/// \file
/// The ultrametric-tree model of the paper (§2): a rooted, leaf-labeled
/// binary tree where every node carries a *height* — its distance to any
/// leaf in its subtree. Edge weights are implicit
/// (`weight(parent -> child) = height(parent) - height(child)`), leaves sit
/// at height 0, and the total tree weight telescopes to
/// `w(T) = height(root) + sum of internal-node heights`.
///
/// The class also supports the subtree splicing that the compact-set
/// pipeline uses to merge block solutions back into one tree.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_TREE_PHYLOTREE_H
#define MUTK_TREE_PHYLOTREE_H

#include "matrix/DistanceMatrix.h"

#include <cassert>
#include <string>
#include <vector>

namespace mutk {

/// One node of a PhyloTree. Leaves have `Leaf >= 0` (the species index)
/// and no children; internal nodes have exactly two children.
struct PhyloNode {
  int Parent = -1;
  int Left = -1;
  int Right = -1;
  int Leaf = -1;
  double Height = 0.0;

  bool isLeaf() const { return Leaf >= 0; }
};

/// A rooted, edge-weighted, leaf-labeled binary tree.
///
/// Species indices label leaves; an optional name table maps species
/// indices to display names (used by Newick output). Structural invariants
/// (binary shape, consistent parent pointers, every species appearing on
/// exactly one leaf) are validated by `isWellFormed`; the ultrametric
/// height discipline is validated separately by `hasMonotoneHeights` since
/// intermediate construction states may violate it.
class PhyloTree {
public:
  PhyloTree() = default;

  /// Appends a leaf for \p Species at height 0. \returns its node index.
  int addLeaf(int Species);

  /// Appends an internal node adopting \p Left and \p Right.
  ///
  /// Both children must currently be roots (no parent).
  /// \returns the new node index.
  int addInternal(int Left, int Right, double Height);

  /// Declares \p Node the root. Must have no parent.
  void setRoot(int Node) {
    assert(Node >= 0 && Node < numNodes() && "node out of range");
    assert(node(Node).Parent < 0 && "root must not have a parent");
    Root = Node;
  }

  int root() const { return Root; }
  int numNodes() const { return static_cast<int>(Nodes.size()); }

  const PhyloNode &node(int Index) const {
    assert(Index >= 0 && Index < numNodes() && "node out of range");
    return Nodes[static_cast<std::size_t>(Index)];
  }

  /// Number of leaves in the whole tree.
  int numLeaves() const;

  /// Sets the display-name table; index = species.
  void setNames(std::vector<std::string> Names) {
    SpeciesNames = std::move(Names);
  }
  const std::vector<std::string> &names() const { return SpeciesNames; }

  /// Returns the display name of \p Species (falls back to `s<index>`).
  std::string speciesName(int Species) const;

  /// Total edge weight `w(T)` (0 for an empty or single-leaf tree).
  double weight() const;

  /// Height of the root (0 for an empty tree).
  double rootHeight() const { return Root < 0 ? 0.0 : node(Root).Height; }

  /// Weight of the edge above \p Node (0 for the root).
  double edgeWeightAbove(int Node) const;

  /// Species indices of the leaves below \p Node, in DFS order.
  std::vector<int> leavesBelow(int Node) const;

  /// All species indices in the tree, in DFS order from the root.
  std::vector<int> allSpecies() const {
    return Root < 0 ? std::vector<int>{} : leavesBelow(Root);
  }

  /// Node index of the leaf labeled \p Species, or -1.
  int leafNodeOf(int Species) const;

  /// Lowest common ancestor node of the two *leaf species*.
  /// Both species must be present.
  int lcaOfSpecies(int SpeciesA, int SpeciesB) const;

  /// Path length between the leaves of \p SpeciesA and \p SpeciesB
  /// (`2 * height(LCA)` once heights are ultrametric).
  double leafDistance(int SpeciesA, int SpeciesB) const;

  /// Extracts the tree metric: `D[i][j] = leafDistance(i, j)` over the
  /// species present, which must be exactly `0..k-1` for some `k`.
  DistanceMatrix inducedMatrix() const;

  /// Checks structural sanity: a single root, binary internal nodes,
  /// consistent parent/child pointers, each species on exactly one leaf.
  bool isWellFormed() const;

  /// Checks the ultrametric discipline: every leaf at height 0 and every
  /// edge weight nonnegative (parent height >= child height - Tolerance).
  bool hasMonotoneHeights(double Tolerance = 1e-9) const;

  /// Returns true if `leafDistance(i, j) >= M[i, j] - Tolerance` for all
  /// pairs, i.e. the tree is a *feasible* ultrametric tree for \p M
  /// (Definition 8 requires d_T >= M).
  bool dominatesMatrix(const DistanceMatrix &M,
                       double Tolerance = 1e-9) const;

  /// Replaces the leaf labeled \p Species with a copy of \p Sub.
  ///
  /// \p Sub's species indices are remapped through \p SpeciesMap
  /// (`new = SpeciesMap[old]`). If the subtree's root height exceeds the
  /// height of the spliced position's parent, heights above are raised to
  /// keep edges nonnegative; \returns the number of nodes whose height had
  /// to be raised (0 when the splice was already consistent, which is
  /// guaranteed for maximum-condensed compact blocks).
  int replaceLeafWithSubtree(int Species, const PhyloTree &Sub,
                             const std::vector<int> &SpeciesMap);

  /// Deep-copies \p Sub into this tree with species remapped through
  /// \p SpeciesMap. \returns the node index of the copied root.
  int adoptSubtree(const PhyloTree &Sub, const std::vector<int> &SpeciesMap);

  /// A copy of this tree with its leaves relabeled through \p Map
  /// (`new = Map[old]`).
  PhyloTree relabeled(const std::vector<int> &Map) const;

  /// True if \p Ancestor lies on the path from \p Node to the root
  /// (a node is its own ancestor).
  bool isAncestorOf(int Ancestor, int Node) const;

  /// Exchanges the subtrees rooted at \p A and \p B by swapping their
  /// parent links. Neither node may be an ancestor of the other and
  /// neither may be the root. Heights are left untouched — callers are
  /// expected to refit them (see `fitMinimalHeights`); this is the move
  /// primitive of nearest-neighbor-interchange search.
  void swapSubtrees(int A, int B);

private:
  std::vector<PhyloNode> Nodes;
  int Root = -1;
  std::vector<std::string> SpeciesNames;

  PhyloNode &mutableNode(int Index) {
    assert(Index >= 0 && Index < numNodes() && "node out of range");
    return Nodes[static_cast<std::size_t>(Index)];
  }

  int depthOf(int Node) const;
};

} // namespace mutk

#endif // MUTK_TREE_PHYLOTREE_H

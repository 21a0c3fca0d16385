//===- tree/PhyloTree.cpp - Rooted edge-weighted binary trees -------------===//

#include "tree/PhyloTree.h"

#include <algorithm>

using namespace mutk;

int PhyloTree::addLeaf(int Species) {
  assert(Species >= 0 && "species index must be nonnegative");
  PhyloNode Node;
  Node.Leaf = Species;
  Nodes.push_back(Node);
  int Index = numNodes() - 1;
  if (Root < 0)
    Root = Index;
  return Index;
}

int PhyloTree::addInternal(int Left, int Right, double Height) {
  assert(Left >= 0 && Left < numNodes() && "left child out of range");
  assert(Right >= 0 && Right < numNodes() && "right child out of range");
  assert(Left != Right && "children must differ");
  assert(node(Left).Parent < 0 && node(Right).Parent < 0 &&
         "children must be roots before adoption");
  PhyloNode Node;
  Node.Left = Left;
  Node.Right = Right;
  Node.Height = Height;
  Nodes.push_back(Node);
  int Index = numNodes() - 1;
  mutableNode(Left).Parent = Index;
  mutableNode(Right).Parent = Index;
  if (Root == Left || Root == Right || Root < 0)
    Root = Index;
  return Index;
}

int PhyloTree::numLeaves() const {
  // Count only leaves reachable from the root: splicing can orphan a
  // replaced leaf node, which no longer belongs to the tree.
  if (Root < 0)
    return 0;
  int Count = 0;
  std::vector<int> Stack = {Root};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    const PhyloNode &N = node(Index);
    if (N.isLeaf()) {
      ++Count;
      continue;
    }
    Stack.push_back(N.Left);
    Stack.push_back(N.Right);
  }
  return Count;
}

std::string PhyloTree::speciesName(int Species) const {
  if (Species >= 0 &&
      static_cast<std::size_t>(Species) < SpeciesNames.size() &&
      !SpeciesNames[static_cast<std::size_t>(Species)].empty())
    return SpeciesNames[static_cast<std::size_t>(Species)];
  return "s" + std::to_string(Species);
}

double PhyloTree::weight() const {
  if (Root < 0)
    return 0.0;
  // w(T) = sum over non-root nodes of (h(parent) - h(node)). Only nodes
  // reachable from the root count: splices can orphan replaced leaves.
  double Total = 0.0;
  std::vector<int> Stack = {Root};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    const PhyloNode &N = node(Index);
    if (Index != Root)
      Total += node(N.Parent).Height - N.Height;
    if (!N.isLeaf()) {
      Stack.push_back(N.Left);
      Stack.push_back(N.Right);
    }
  }
  return Total;
}

double PhyloTree::edgeWeightAbove(int Node) const {
  const PhyloNode &N = node(Node);
  if (N.Parent < 0)
    return 0.0;
  return node(N.Parent).Height - N.Height;
}

std::vector<int> PhyloTree::leavesBelow(int Node) const {
  std::vector<int> Result;
  std::vector<int> Stack = {Node};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    const PhyloNode &N = node(Index);
    if (N.isLeaf()) {
      Result.push_back(N.Leaf);
      continue;
    }
    // Push right first so the left subtree is visited first.
    Stack.push_back(N.Right);
    Stack.push_back(N.Left);
  }
  return Result;
}

int PhyloTree::leafNodeOf(int Species) const {
  if (Root < 0)
    return -1;
  std::vector<int> Stack = {Root};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    const PhyloNode &N = node(Index);
    if (N.isLeaf()) {
      if (N.Leaf == Species)
        return Index;
      continue;
    }
    Stack.push_back(N.Left);
    Stack.push_back(N.Right);
  }
  return -1;
}

int PhyloTree::depthOf(int Node) const {
  int Depth = 0;
  for (int Cur = Node; node(Cur).Parent >= 0; Cur = node(Cur).Parent)
    ++Depth;
  return Depth;
}

int PhyloTree::lcaOfSpecies(int SpeciesA, int SpeciesB) const {
  int A = leafNodeOf(SpeciesA);
  int B = leafNodeOf(SpeciesB);
  assert(A >= 0 && B >= 0 && "both species must be present");
  int DepthA = depthOf(A);
  int DepthB = depthOf(B);
  while (DepthA > DepthB) {
    A = node(A).Parent;
    --DepthA;
  }
  while (DepthB > DepthA) {
    B = node(B).Parent;
    --DepthB;
  }
  while (A != B) {
    A = node(A).Parent;
    B = node(B).Parent;
  }
  return A;
}

double PhyloTree::leafDistance(int SpeciesA, int SpeciesB) const {
  if (SpeciesA == SpeciesB)
    return 0.0;
  int A = leafNodeOf(SpeciesA);
  int B = leafNodeOf(SpeciesB);
  assert(A >= 0 && B >= 0 && "both species must be present");
  int Lca = lcaOfSpecies(SpeciesA, SpeciesB);
  // Path length = (h(lca) - h(a)) + (h(lca) - h(b)); leaves are at h = 0
  // in a proper ultrametric tree, but sum the actual heights so the
  // function stays correct for trees mid-construction.
  return (node(Lca).Height - node(A).Height) +
         (node(Lca).Height - node(B).Height);
}

DistanceMatrix PhyloTree::inducedMatrix() const {
  std::vector<int> Species = allSpecies();
  std::vector<int> Sorted = Species;
  std::sort(Sorted.begin(), Sorted.end());
  const int N = static_cast<int>(Sorted.size());
  for (int I = 0; I < N; ++I)
    assert(Sorted[static_cast<std::size_t>(I)] == I &&
           "species must be exactly 0..n-1 for matrix extraction");

  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    M.setName(I, speciesName(I));
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, leafDistance(I, J));
  return M;
}

bool PhyloTree::isWellFormed() const {
  if (Root < 0)
    return numNodes() == 0;
  if (node(Root).Parent >= 0)
    return false;

  std::vector<bool> Visited(static_cast<std::size_t>(numNodes()), false);
  std::vector<int> SeenSpecies;
  std::vector<int> Stack = {Root};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    if (Visited[static_cast<std::size_t>(Index)])
      return false; // a node reached twice: not a tree
    Visited[static_cast<std::size_t>(Index)] = true;
    const PhyloNode &N = node(Index);
    if (N.isLeaf()) {
      if (N.Left >= 0 || N.Right >= 0)
        return false;
      SeenSpecies.push_back(N.Leaf);
      continue;
    }
    if (N.Left < 0 || N.Right < 0 || N.Left >= numNodes() ||
        N.Right >= numNodes())
      return false;
    if (node(N.Left).Parent != Index || node(N.Right).Parent != Index)
      return false;
    Stack.push_back(N.Left);
    Stack.push_back(N.Right);
  }

  std::sort(SeenSpecies.begin(), SeenSpecies.end());
  return std::adjacent_find(SeenSpecies.begin(), SeenSpecies.end()) ==
         SeenSpecies.end();
}

bool PhyloTree::hasMonotoneHeights(double Tolerance) const {
  if (Root < 0)
    return true;
  std::vector<int> Stack = {Root};
  while (!Stack.empty()) {
    int Index = Stack.back();
    Stack.pop_back();
    const PhyloNode &N = node(Index);
    if (N.isLeaf()) {
      if (std::abs(N.Height) > Tolerance)
        return false;
      continue;
    }
    if (node(N.Left).Height > N.Height + Tolerance ||
        node(N.Right).Height > N.Height + Tolerance)
      return false;
    Stack.push_back(N.Left);
    Stack.push_back(N.Right);
  }
  return true;
}

bool PhyloTree::dominatesMatrix(const DistanceMatrix &M,
                                double Tolerance) const {
  std::vector<int> Species = allSpecies();
  for (std::size_t A = 0; A < Species.size(); ++A)
    for (std::size_t B = A + 1; B < Species.size(); ++B) {
      int I = Species[A];
      int J = Species[B];
      if (leafDistance(I, J) < M.at(I, J) - Tolerance)
        return false;
    }
  return true;
}

int PhyloTree::adoptSubtree(const PhyloTree &Sub,
                            const std::vector<int> &SpeciesMap) {
  assert(Sub.root() >= 0 && "cannot adopt an empty subtree");
  // Copy nodes in Sub's index order; child indices always refer to
  // already-copied nodes only after remapping, so do a two-pass copy.
  std::vector<int> NewIndex(static_cast<std::size_t>(Sub.numNodes()), -1);
  for (int I = 0; I < Sub.numNodes(); ++I) {
    const PhyloNode &Old = Sub.node(I);
    PhyloNode Copy;
    Copy.Height = Old.Height;
    if (Old.isLeaf()) {
      assert(static_cast<std::size_t>(Old.Leaf) < SpeciesMap.size() &&
             "species map too small");
      Copy.Leaf = SpeciesMap[static_cast<std::size_t>(Old.Leaf)];
    }
    Nodes.push_back(Copy);
    NewIndex[static_cast<std::size_t>(I)] = numNodes() - 1;
  }
  for (int I = 0; I < Sub.numNodes(); ++I) {
    const PhyloNode &Old = Sub.node(I);
    PhyloNode &Copy = mutableNode(NewIndex[static_cast<std::size_t>(I)]);
    if (Old.Parent >= 0)
      Copy.Parent = NewIndex[static_cast<std::size_t>(Old.Parent)];
    if (!Old.isLeaf()) {
      Copy.Left = NewIndex[static_cast<std::size_t>(Old.Left)];
      Copy.Right = NewIndex[static_cast<std::size_t>(Old.Right)];
    }
  }
  if (Root < 0)
    Root = NewIndex[static_cast<std::size_t>(Sub.root())];
  return NewIndex[static_cast<std::size_t>(Sub.root())];
}

PhyloTree PhyloTree::relabeled(const std::vector<int> &Map) const {
  PhyloTree Out;
  Out.setRoot(Out.adoptSubtree(*this, Map));
  return Out;
}

bool PhyloTree::isAncestorOf(int Ancestor, int Node) const {
  for (int Cur = Node; Cur >= 0; Cur = node(Cur).Parent)
    if (Cur == Ancestor)
      return true;
  return false;
}

void PhyloTree::swapSubtrees(int A, int B) {
  assert(A != B && "cannot swap a subtree with itself");
  assert(node(A).Parent >= 0 && node(B).Parent >= 0 &&
         "cannot swap the root");
  assert(!isAncestorOf(A, B) && !isAncestorOf(B, A) &&
         "subtrees must be disjoint");

  int PA = node(A).Parent;
  int PB = node(B).Parent;
  auto relink = [this](int Parent, int OldChild, int NewChild) {
    PhyloNode &P = mutableNode(Parent);
    if (P.Left == OldChild)
      P.Left = NewChild;
    else {
      assert(P.Right == OldChild && "child link broken");
      P.Right = NewChild;
    }
    mutableNode(NewChild).Parent = Parent;
  };
  relink(PA, A, B);
  relink(PB, B, A);
}

int PhyloTree::replaceLeafWithSubtree(int Species, const PhyloTree &Sub,
                                      const std::vector<int> &SpeciesMap) {
  int Victim = leafNodeOf(Species);
  assert(Victim >= 0 && "species to replace not found");

  int NewRoot = adoptSubtree(Sub, SpeciesMap);
  int Parent = node(Victim).Parent;

  if (Parent < 0) {
    // Replacing the only leaf: the subtree becomes the whole tree.
    Root = NewRoot;
  } else {
    PhyloNode &P = mutableNode(Parent);
    if (P.Left == Victim)
      P.Left = NewRoot;
    else {
      assert(P.Right == Victim && "victim not a child of its parent");
      P.Right = NewRoot;
    }
    mutableNode(NewRoot).Parent = Parent;
    mutableNode(Victim).Parent = -1; // orphan the replaced leaf
  }

  // Raise any ancestor whose height the spliced subtree now exceeds.
  // With maximum-condensed compact blocks this loop never fires (the
  // cross-block distance strictly exceeds the block diameter).
  int Raised = 0;
  double Floor = node(NewRoot).Height;
  for (int Cur = Parent; Cur >= 0; Cur = node(Cur).Parent) {
    if (node(Cur).Height >= Floor)
      break;
    mutableNode(Cur).Height = Floor;
    ++Raised;
  }
  return Raised;
}

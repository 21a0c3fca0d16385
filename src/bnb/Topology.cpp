//===- bnb/Topology.cpp - Partial topologies for the B&B -------------------===//

#include "bnb/Topology.h"

#include "tree/UltrametricFit.h"

#include <algorithm>
#include <cmath>

using namespace mutk;

double Topology::halfMaxTo(const double *Row, LeafMask Mask) {
  double Max = 0.0;
  forEachLeaf(Mask, [&](int Leaf) { Max = std::max(Max, Row[Leaf]); });
  return Max / 2.0;
}

void Topology::recomputeCost() {
  double Sum = 0.0;
  for (const Node &N : Nodes)
    if (!N.isLeaf())
      Sum += N.Height;
  Cost = Sum + (Root >= 0 ? Nodes[static_cast<std::size_t>(Root)].Height : 0.0);
}

Topology Topology::initialPair(const DistanceMatrix &M) {
  assert(M.size() >= 2 && "initial pair needs two species");
  assert(M.size() <= MaxBnbSpecies && "matrix exceeds the 64-species cap");
  Topology T;
  T.Nodes.reserve(static_cast<std::size_t>(2 * M.size() - 1));

  Node Leaf0;
  Leaf0.Leaf = 0;
  Leaf0.Mask = leafBit(0);
  Node Leaf1;
  Leaf1.Leaf = 1;
  Leaf1.Mask = leafBit(1);
  Node RootNode;
  RootNode.Left = 0;
  RootNode.Right = 1;
  RootNode.Mask = Leaf0.Mask | Leaf1.Mask;
  RootNode.Height = M.at(0, 1) / 2.0;

  T.Nodes = {Leaf0, Leaf1, RootNode};
  T.Nodes[0].Parent = 2;
  T.Nodes[1].Parent = 2;
  T.Root = 2;
  T.LeafNode = {0, 1};
  T.Placed = 2;
  T.recomputeCost();
  return T;
}

std::optional<Topology> Topology::fromNodes(std::vector<Node> Nodes,
                                            int Root) {
  const int Count = static_cast<int>(Nodes.size());
  if (Count < 3 || Count % 2 == 0 || Count > 2 * MaxBnbSpecies - 1)
    return std::nullopt;
  if (Root < 0 || Root >= Count || Nodes[static_cast<std::size_t>(Root)].Parent >= 0)
    return std::nullopt;

  const int Placed = (Count + 1) / 2;
  std::vector<std::int16_t> LeafNode(static_cast<std::size_t>(Placed), -1);
  int Leaves = 0;
  for (int I = 0; I < Count; ++I) {
    const Node &N = Nodes[static_cast<std::size_t>(I)];
    if (N.isLeaf()) {
      if (N.Left >= 0 || N.Right >= 0 || N.Leaf >= Placed ||
          N.Mask != leafBit(N.Leaf) || N.Height != 0.0)
        return std::nullopt;
      if (LeafNode[static_cast<std::size_t>(N.Leaf)] >= 0)
        return std::nullopt; // duplicate species
      LeafNode[static_cast<std::size_t>(N.Leaf)] =
          static_cast<std::int16_t>(I);
      ++Leaves;
      continue;
    }
    if (N.Left < 0 || N.Right < 0 || N.Left >= Count || N.Right >= Count ||
        N.Left == N.Right)
      return std::nullopt;
    const Node &L = Nodes[static_cast<std::size_t>(N.Left)];
    const Node &R = Nodes[static_cast<std::size_t>(N.Right)];
    if (L.Parent != I || R.Parent != I)
      return std::nullopt;
    if ((L.Mask | R.Mask) != N.Mask || (L.Mask & R.Mask) != 0)
      return std::nullopt;
    if (N.Height < L.Height || N.Height < R.Height)
      return std::nullopt;
  }
  if (Leaves != Placed)
    return std::nullopt;
  if (Nodes[static_cast<std::size_t>(Root)].Mask !=
      (Placed == 64 ? ~LeafMask{0} : (LeafMask{1} << Placed) - 1))
    return std::nullopt;

  Topology T;
  T.Nodes = std::move(Nodes);
  T.LeafNode = std::move(LeafNode);
  T.Root = static_cast<std::int16_t>(Root);
  T.Placed = Placed;
  T.recomputeCost();
  return T;
}

Topology Topology::withNextSpeciesAt(int Position,
                                     const DistanceMatrix &M) const {
  Topology T = *this;
  T.insertNextAt(Position, M);
  return T;
}

void Topology::expandInto(int Position, const DistanceMatrix &M,
                          Topology &Out) const {
  assert(&Out != this && "expandInto cannot write onto its own source");
  // Copy-assignment reuses Out's vector capacity: a recycled arena
  // topology has already held a full solve's nodes, so this is a flat
  // memcpy-sized copy with no allocation.
  Out.Nodes = Nodes;
  Out.LeafNode = LeafNode;
  Out.Root = Root;
  Out.Placed = Placed;
  Out.Cost = Cost;
  Out.insertNextAt(Position, M);
}

void Topology::insertNextAt(int Position, const DistanceMatrix &M) {
  const int S = Placed;
  assert(S < M.size() && "all species already placed");
  assert(Position >= 0 && Position <= numNodes() && "bad insert position");

  const double *RowS = M.row(S);
  const bool AboveRoot = (Position == numNodes() || Position == Root);

  // New leaf node for species S.
  Node LeafS;
  LeafS.Leaf = static_cast<std::int16_t>(S);
  LeafS.Mask = leafBit(S);
  Nodes.push_back(LeafS);
  std::int16_t LeafIndex = static_cast<std::int16_t>(numNodes() - 1);
  LeafNode.push_back(LeafIndex);

  if (AboveRoot) {
    // New root adopting the old root and the new leaf; every previously
    // placed species is on the far side of the new internal node.
    Node NewRoot;
    NewRoot.Left = Root;
    NewRoot.Right = LeafIndex;
    NewRoot.Mask = Nodes[static_cast<std::size_t>(Root)].Mask | LeafS.Mask;
    NewRoot.Height =
        std::max(Nodes[static_cast<std::size_t>(Root)].Height,
                 halfMaxTo(RowS, Nodes[static_cast<std::size_t>(Root)].Mask));
    Nodes.push_back(NewRoot);
    std::int16_t NewRootIndex = static_cast<std::int16_t>(numNodes() - 1);
    Nodes[static_cast<std::size_t>(Root)].Parent = NewRootIndex;
    Nodes[static_cast<std::size_t>(LeafIndex)].Parent = NewRootIndex;
    Root = NewRootIndex;
  } else {
    // Split the edge above `Position`: new internal node V adopts the old
    // subtree C and the new leaf.
    std::int16_t C = static_cast<std::int16_t>(Position);
    std::int16_t P = Nodes[static_cast<std::size_t>(C)].Parent;
    assert(P >= 0 && "non-root position must have a parent");

    Node V;
    V.Parent = P;
    V.Left = C;
    V.Right = LeafIndex;
    V.Mask = Nodes[static_cast<std::size_t>(C)].Mask | LeafS.Mask;
    V.Height = std::max(Nodes[static_cast<std::size_t>(C)].Height,
                        halfMaxTo(RowS, Nodes[static_cast<std::size_t>(C)].Mask));
    Nodes.push_back(V);
    std::int16_t VIndex = static_cast<std::int16_t>(numNodes() - 1);

    Node &ParentNode = Nodes[static_cast<std::size_t>(P)];
    if (ParentNode.Left == C)
      ParentNode.Left = VIndex;
    else {
      assert(ParentNode.Right == C && "child link broken");
      ParentNode.Right = VIndex;
    }
    Nodes[static_cast<std::size_t>(C)].Parent = VIndex;
    Nodes[static_cast<std::size_t>(LeafIndex)].Parent = VIndex;

    // Walk to the root: masks gain species S; each ancestor's height must
    // cover the new crossing pairs (S vs the sibling subtree) and stay
    // above its updated child.
    std::int16_t Child = VIndex;
    for (std::int16_t A = P; A >= 0;
         Child = A, A = Nodes[static_cast<std::size_t>(A)].Parent) {
      Node &Anc = Nodes[static_cast<std::size_t>(A)];
      std::int16_t Sibling = (Anc.Left == Child) ? Anc.Right : Anc.Left;
      double Crossing =
          halfMaxTo(RowS, Nodes[static_cast<std::size_t>(Sibling)].Mask);
      Anc.Mask |= LeafS.Mask;
      Anc.Height = std::max(
          {Anc.Height, Crossing, Nodes[static_cast<std::size_t>(Child)].Height});
    }
  }

  ++Placed;
  recomputeCost();
}

InsertionPrices::InsertionPrices(const Topology &Parent,
                                 const DistanceMatrix &M)
    : Parent(Parent), Count(Parent.numNodes()), Root(Parent.rootIndex()) {
  assert(Parent.numPlaced() < M.size() && "all species already placed");
  const double *Row = M.row(Parent.numPlaced());

  // The largest distance from the new species into each subtree, from
  // +0.0 as `halfMaxTo` starts. Every value is +0.0 or positive, so the
  // max does not depend on the order leaves are met in and `Far[V] / 2.0`
  // has `halfMaxTo`'s bits. `Raised` takes `insertNextAt`'s argument
  // order: an equal half keeps h(v), sign of zero included.
  double Far[MaxNodes];
  for (int S = 0; S < Parent.numPlaced(); ++S) {
    const int Leaf = Parent.leafNodeOf(S);
    Far[Leaf] = std::max(0.0, Row[S]);
    Raised[Leaf] = std::max(Parent.node(Leaf).Height, Far[Leaf] / 2.0);
  }

  // The internal nodes breadth-first from the root, so every parent
  // precedes its children.
  std::int16_t Order[MaxBnbSpecies];
  int Ordered = 0;
  Order[Ordered++] = static_cast<std::int16_t>(Root);
  for (int I = 0; I < Ordered; ++I) {
    const Topology::Node &N = Parent.node(Order[I]);
    Order[Ordered] = N.Left;
    Ordered += !Parent.node(N.Left).isLeaf();
    Order[Ordered] = N.Right;
    Ordered += !Parent.node(N.Right).isLeaf();
  }

  // Children before parents.
  for (int I = Ordered - 1; I >= 0; --I) {
    const int V = Order[I];
    const Topology::Node &N = Parent.node(V);
    Far[V] = std::max(Far[N.Left], Far[N.Right]);
    Raised[V] = std::max(N.Height, Far[V] / 2.0);
  }

  // A child inherits its parent's first raised ancestor, or the parent
  // itself when that is raised and has a lower index. `Raised` is h(v)
  // itself unless the half is strictly greater.
  FirstRaised[Root] = static_cast<std::int16_t>(Count);
  for (int I = 0; I < Ordered; ++I) {
    const int V = Order[I];
    const Topology::Node &N = Parent.node(V);
    std::int16_t First = FirstRaised[V];
    if (Raised[V] != N.Height && V < First)
      First = static_cast<std::int16_t>(V);
    FirstRaised[N.Left] = First;
    FirstRaised[N.Right] = First;
  }

  double Sum = 0.0;
  for (int I = 0; I < Count; ++I) {
    Prefix[I] = Sum;
    if (!Parent.node(I).isLeaf())
      Sum += Parent.node(I).Height;
  }
  Prefix[Count] = Sum;
}

double InsertionPrices::cost(int Position) const {
  assert(Position >= 0 && Position < Count && "bad insert position");
  // The child keeps the parent's node order and appends the new leaf and
  // the new internal node, so `recomputeCost` adds the parent's internal
  // heights (raised on the path) in index order, then the new node's, then
  // the root's. Nodes below the first raised ancestor add what they add
  // in the parent. The strict ancestors are the nodes whose masks strictly
  // contain the position's, because the masks are laminar.
  const int From = FirstRaised[Position];
  const LeafMask Below = Parent.node(Position).Mask;
  double Sum = Prefix[From];
  for (int I = From; I < Count; ++I) {
    const Topology::Node &N = Parent.node(I);
    if (N.isLeaf())
      continue;
    const bool Above = (N.Mask & Below) == Below && N.Mask != Below;
    Sum += Above ? Raised[I] : N.Height;
  }
  return (Sum + Raised[Position]) + Raised[Root];
}

bool Topology::hasMinimalHeights(const DistanceMatrix &M) const {
  assert(Placed <= M.size() && "topology places species the matrix lacks");
  for (const Node &N : Nodes) {
    if (N.isLeaf())
      continue;
    const Node &L = node(N.Left);
    const Node &R = node(N.Right);
    // Max commutes with the exact halving, so this is bit-identical to
    // the value insertion maintains.
    double Minimal = std::max(L.Height, R.Height);
    forEachLeaf(L.Mask, [&](int Leaf) {
      Minimal = std::max(Minimal, halfMaxTo(M.row(Leaf), R.Mask));
    });
    if (N.Height != Minimal)
      return false;
  }
  return true;
}

int Topology::lcaOf(int SpeciesA, int SpeciesB) const {
  assert(SpeciesA != SpeciesB && "LCA of a species with itself is its leaf");
  LeafMask Wanted = leafBit(SpeciesA) | leafBit(SpeciesB);
  int Cur = leafNodeOf(SpeciesA);
  while ((node(Cur).Mask & Wanted) != Wanted) {
    Cur = node(Cur).Parent;
    assert(Cur >= 0 && "walked past the root without covering both species");
  }
  return Cur;
}

bool Topology::isStrictlyBelow(int A, int B) const {
  if (A == B)
    return false;
  // Masks are laminar: A is below B iff A's mask is a subset of B's and
  // they differ.
  LeafMask MA = node(A).Mask;
  LeafMask MB = node(B).Mask;
  return (MA & MB) == MA && MA != MB;
}

PhyloTree Topology::toPhyloTree(const std::vector<int> &Relabel) const {
  PhyloTree Tree;
  if (Root < 0)
    return Tree;
  // Postorder rebuild, since PhyloTree::addInternal requires children to
  // exist first.
  std::vector<int> Map(static_cast<std::size_t>(numNodes()), -1);
  struct Frame {
    int Node;
    bool Expanded;
  };
  std::vector<Frame> Stack = {{Root, false}};
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    const Node &N = node(F.Node);
    if (N.isLeaf()) {
      int Species = N.Leaf;
      if (static_cast<std::size_t>(Species) < Relabel.size())
        Species = Relabel[static_cast<std::size_t>(Species)];
      Map[static_cast<std::size_t>(F.Node)] = Tree.addLeaf(Species);
      continue;
    }
    if (!F.Expanded) {
      Stack.push_back({F.Node, true});
      Stack.push_back({N.Left, false});
      Stack.push_back({N.Right, false});
      continue;
    }
    Map[static_cast<std::size_t>(F.Node)] =
        Tree.addInternal(Map[static_cast<std::size_t>(N.Left)],
                         Map[static_cast<std::size_t>(N.Right)], N.Height);
  }
  return Tree;
}

bool Topology::invariantsHold(const DistanceMatrix &M,
                              double Tolerance) const {
  // Masks must union correctly and heights must match a from-scratch fit.
  for (int I = 0; I < numNodes(); ++I) {
    const Node &N = node(I);
    if (N.isLeaf()) {
      if (N.Mask != leafBit(N.Leaf) || N.Height != 0.0)
        return false;
      continue;
    }
    if ((node(N.Left).Mask | node(N.Right).Mask) != N.Mask)
      return false;
    if ((node(N.Left).Mask & node(N.Right).Mask) != 0)
      return false;
  }

  std::vector<int> Identity(static_cast<std::size_t>(Placed));
  for (int I = 0; I < Placed; ++I)
    Identity[static_cast<std::size_t>(I)] = I;
  PhyloTree Check = toPhyloTree(Identity);
  double Fitted = fitMinimalHeights(Check, M);
  if (std::fabs(Fitted - Cost) > Tolerance)
    return false;

  // Heights must be monotone along every edge.
  for (int I = 0; I < numNodes(); ++I) {
    const Node &N = node(I);
    if (N.Parent >= 0 && node(N.Parent).Height < N.Height - Tolerance)
      return false;
  }
  return true;
}

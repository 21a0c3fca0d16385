//===- mp/Serialize.cpp - Message payload (de)serialization ----------------===//

#include "mp/Serialize.h"

#include <cstring>

using namespace mutk;

void ByteWriter::writeU32(std::uint32_t Value) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Buffer.push_back(static_cast<std::uint8_t>(Value >> Shift));
}

void ByteWriter::writeU64(std::uint64_t Value) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Buffer.push_back(static_cast<std::uint8_t>(Value >> Shift));
}

void ByteWriter::writeF64(double Value) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double must be 64 bits");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeString(const std::string &Value) {
  writeU32(static_cast<std::uint32_t>(Value.size()));
  for (char C : Value)
    Buffer.push_back(static_cast<std::uint8_t>(C));
}

void ByteWriter::writeBytes(const std::vector<std::uint8_t> &Value) {
  writeU32(static_cast<std::uint32_t>(Value.size()));
  Buffer.insert(Buffer.end(), Value.begin(), Value.end());
}

bool ByteReader::readU8(std::uint8_t &Value) {
  if (Position + 1 > Bytes.size())
    return false;
  Value = Bytes[Position++];
  return true;
}

bool ByteReader::readU32(std::uint32_t &Value) {
  if (Position + 4 > Bytes.size())
    return false;
  Value = 0;
  for (int Shift = 0; Shift < 32; Shift += 8)
    Value |= static_cast<std::uint32_t>(Bytes[Position++]) << Shift;
  return true;
}

bool ByteReader::readI32(std::int32_t &Value) {
  std::uint32_t Raw;
  if (!readU32(Raw))
    return false;
  Value = static_cast<std::int32_t>(Raw);
  return true;
}

bool ByteReader::readU64(std::uint64_t &Value) {
  if (Position + 8 > Bytes.size())
    return false;
  Value = 0;
  for (int Shift = 0; Shift < 64; Shift += 8)
    Value |= static_cast<std::uint64_t>(Bytes[Position++]) << Shift;
  return true;
}

bool ByteReader::readF64(double &Value) {
  std::uint64_t Bits;
  if (!readU64(Bits))
    return false;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return true;
}

bool ByteReader::readString(std::string &Value) {
  std::uint32_t Length;
  if (!readU32(Length))
    return false;
  if (Position + Length > Bytes.size())
    return false;
  Value.assign(reinterpret_cast<const char *>(Bytes.data() + Position),
               Length);
  Position += Length;
  return true;
}

bool ByteReader::readBytes(std::vector<std::uint8_t> &Value) {
  std::uint32_t Length;
  if (!readU32(Length))
    return false;
  if (Position + Length > Bytes.size())
    return false;
  Value.assign(Bytes.begin() + static_cast<std::ptrdiff_t>(Position),
               Bytes.begin() + static_cast<std::ptrdiff_t>(Position + Length));
  Position += Length;
  return true;
}

void mutk::writeTopology(ByteWriter &Writer, const Topology &T) {
  Writer.writeU32(static_cast<std::uint32_t>(T.numNodes()));
  Writer.writeI32(T.rootIndex());
  for (int I = 0; I < T.numNodes(); ++I) {
    const Topology::Node &N = T.node(I);
    Writer.writeI32(N.Parent);
    Writer.writeI32(N.Left);
    Writer.writeI32(N.Right);
    Writer.writeI32(N.Leaf);
    Writer.writeF64(N.Height);
    // Masks are re-derivable but shipping them avoids a rebuild pass and
    // lets fromNodes() cross-validate the payload.
    Writer.writeU64(N.Mask);
  }
}

bool mutk::readTopology(ByteReader &Reader, std::optional<Topology> &T) {
  std::uint32_t Count;
  std::int32_t Root;
  if (!Reader.readU32(Count) || !Reader.readI32(Root))
    return false;
  if (Count > 2 * static_cast<std::uint32_t>(MaxBnbSpecies))
    return false;

  std::vector<Topology::Node> Nodes(Count);
  for (std::uint32_t I = 0; I < Count; ++I) {
    Topology::Node &N = Nodes[I];
    std::int32_t Parent, Left, Right, Leaf;
    if (!Reader.readI32(Parent) || !Reader.readI32(Left) ||
        !Reader.readI32(Right) || !Reader.readI32(Leaf) ||
        !Reader.readF64(N.Height) || !Reader.readU64(N.Mask))
      return false;
    N.Parent = static_cast<std::int16_t>(Parent);
    N.Left = static_cast<std::int16_t>(Left);
    N.Right = static_cast<std::int16_t>(Right);
    N.Leaf = static_cast<std::int16_t>(Leaf);
  }
  T = Topology::fromNodes(std::move(Nodes), Root);
  return T.has_value();
}

std::vector<std::uint8_t> mutk::encodeTopology(const Topology &T) {
  ByteWriter Writer;
  writeTopology(Writer, T);
  return Writer.take();
}

std::optional<Topology>
mutk::decodeTopology(const std::vector<std::uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  std::optional<Topology> T;
  if (!readTopology(Reader, T) || !Reader.atEnd())
    return std::nullopt;
  return T;
}

std::vector<std::uint8_t> mutk::encodeMatrix(const DistanceMatrix &M) {
  ByteWriter Writer;
  Writer.writeU32(static_cast<std::uint32_t>(M.size()));
  for (int I = 0; I < M.size(); ++I)
    Writer.writeString(M.name(I));
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J)
      Writer.writeF64(M.at(I, J));
  return Writer.take();
}

namespace {

/// Node tags of the pre-order tree encoding.
constexpr std::uint8_t TreeTagLeaf = 0;
constexpr std::uint8_t TreeTagInternal = 1;

/// Decoded trees are bounded so a hostile payload cannot blow the heap
/// or the recursion stack (the service species cap is 4096; this leaves
/// ample headroom for standalone library users).
constexpr std::uint32_t MaxTreeNodes = 1u << 20;

void writeTreeNode(ByteWriter &Writer, const PhyloTree &Tree, int Index) {
  const PhyloNode &N = Tree.node(Index);
  if (N.isLeaf()) {
    Writer.writeU8(TreeTagLeaf);
    Writer.writeI32(N.Leaf);
    return;
  }
  Writer.writeU8(TreeTagInternal);
  Writer.writeF64(N.Height);
  writeTreeNode(Writer, Tree, N.Left);
  writeTreeNode(Writer, Tree, N.Right);
}

/// Rebuilds one subtree bottom-up (children become roots before their
/// parent adopts them, matching `addInternal`'s contract). \returns the
/// new node index or -1 on malformed input.
int readTreeNode(ByteReader &Reader, PhyloTree &Tree, std::uint32_t &Nodes) {
  if (++Nodes > MaxTreeNodes)
    return -1;
  std::uint8_t Tag;
  if (!Reader.readU8(Tag))
    return -1;
  if (Tag == TreeTagLeaf) {
    std::int32_t Species;
    if (!Reader.readI32(Species) || Species < 0)
      return -1;
    return Tree.addLeaf(Species);
  }
  if (Tag != TreeTagInternal)
    return -1;
  double Height;
  if (!Reader.readF64(Height) || !(Height == Height)) // reject NaN
    return -1;
  int Left = readTreeNode(Reader, Tree, Nodes);
  if (Left < 0)
    return -1;
  int Right = readTreeNode(Reader, Tree, Nodes);
  if (Right < 0)
    return -1;
  return Tree.addInternal(Left, Right, Height);
}

} // namespace

void mutk::writePhyloTree(ByteWriter &Writer, const PhyloTree &Tree) {
  Writer.writeU8(Tree.root() >= 0 ? 1 : 0);
  if (Tree.root() >= 0)
    writeTreeNode(Writer, Tree, Tree.root());
  Writer.writeU32(static_cast<std::uint32_t>(Tree.names().size()));
  for (const std::string &Name : Tree.names())
    Writer.writeString(Name);
}

bool mutk::readPhyloTree(ByteReader &Reader, PhyloTree &Tree) {
  Tree = PhyloTree();
  std::uint8_t HasRoot;
  if (!Reader.readU8(HasRoot) || HasRoot > 1)
    return false;
  if (HasRoot) {
    std::uint32_t Nodes = 0;
    int Root = readTreeNode(Reader, Tree, Nodes);
    if (Root < 0)
      return false;
    Tree.setRoot(Root);
    // Structural re-validation: a syntactically valid payload could
    // still label two leaves with one species, which would poison any
    // later splice or relabel.
    if (!Tree.isWellFormed())
      return false;
  }
  std::uint32_t NumNames;
  if (!Reader.readU32(NumNames) || NumNames > MaxTreeNodes)
    return false;
  std::vector<std::string> Names(NumNames);
  for (std::uint32_t I = 0; I < NumNames; ++I)
    if (!Reader.readString(Names[I]))
      return false;
  Tree.setNames(std::move(Names));
  return true;
}

std::vector<std::uint8_t> mutk::encodePhyloTree(const PhyloTree &Tree) {
  ByteWriter Writer;
  writePhyloTree(Writer, Tree);
  return Writer.take();
}

std::optional<PhyloTree>
mutk::decodePhyloTree(const std::vector<std::uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  PhyloTree Tree;
  if (!readPhyloTree(Reader, Tree) || !Reader.atEnd())
    return std::nullopt;
  return Tree;
}

std::vector<std::uint8_t>
mutk::encodeSearchCheckpoint(const SearchCheckpoint &Ck) {
  ByteWriter Writer;
  Writer.writeU64(Ck.MatrixKey);
  Writer.writeF64(Ck.UpperBound);
  Writer.writeU64(Ck.Stats.Branched);
  Writer.writeU64(Ck.Stats.Generated);
  Writer.writeU64(Ck.Stats.PrunedByBound);
  Writer.writeU64(Ck.Stats.PrunedByThreeThree);
  Writer.writeU64(Ck.Stats.UbUpdates);
  Writer.writeU8(Ck.Stats.Complete ? 1 : 0);
  writePhyloTree(Writer, Ck.Incumbent);
  Writer.writeU32(static_cast<std::uint32_t>(Ck.Frontier.size()));
  for (const Topology &T : Ck.Frontier)
    writeTopology(Writer, T);
  return Writer.take();
}

std::optional<SearchCheckpoint>
mutk::decodeSearchCheckpoint(const std::vector<std::uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  SearchCheckpoint Ck;
  std::uint8_t Complete;
  if (!Reader.readU64(Ck.MatrixKey) || !Reader.readF64(Ck.UpperBound) ||
      !Reader.readU64(Ck.Stats.Branched) ||
      !Reader.readU64(Ck.Stats.Generated) ||
      !Reader.readU64(Ck.Stats.PrunedByBound) ||
      !Reader.readU64(Ck.Stats.PrunedByThreeThree) ||
      !Reader.readU64(Ck.Stats.UbUpdates) || !Reader.readU8(Complete) ||
      Complete > 1)
    return std::nullopt;
  Ck.Stats.Complete = Complete == 1;
  if (!readPhyloTree(Reader, Ck.Incumbent))
    return std::nullopt;
  std::uint32_t NumFrontier;
  if (!Reader.readU32(NumFrontier) || NumFrontier > MaxTreeNodes)
    return std::nullopt;
  Ck.Frontier.reserve(NumFrontier);
  for (std::uint32_t I = 0; I < NumFrontier; ++I) {
    std::optional<Topology> T;
    if (!readTopology(Reader, T))
      return std::nullopt;
    Ck.Frontier.push_back(std::move(*T));
  }
  if (!Reader.atEnd())
    return std::nullopt;
  return Ck;
}

std::optional<DistanceMatrix>
mutk::decodeMatrix(const std::vector<std::uint8_t> &Bytes) {
  ByteReader Reader(Bytes);
  std::uint32_t N;
  if (!Reader.readU32(N) || N > 100000)
    return std::nullopt;
  DistanceMatrix M(static_cast<int>(N));
  for (std::uint32_t I = 0; I < N; ++I) {
    std::string Name;
    if (!Reader.readString(Name))
      return std::nullopt;
    M.setName(static_cast<int>(I), std::move(Name));
  }
  for (std::uint32_t I = 0; I < N; ++I)
    for (std::uint32_t J = I + 1; J < N; ++J) {
      double Value;
      if (!Reader.readF64(Value) || Value < 0.0)
        return std::nullopt;
      M.set(static_cast<int>(I), static_cast<int>(J), Value);
    }
  if (!Reader.atEnd())
    return std::nullopt;
  return M;
}

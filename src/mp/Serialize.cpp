//===- mp/Serialize.cpp - Message payload (de)serialization ----------------===//

#include "mp/Serialize.h"

#include <bit>
#include <cstring>
#include <limits>

using namespace mutk;

namespace {

/// The wire is little-endian: on a little-endian host a value's memory
/// image already is its encoding, so scalars and f64 runs copy whole.
constexpr bool HostIsLittleEndian = std::endian::native == std::endian::little;

template <typename T>
void appendLittleEndian(std::vector<std::uint8_t> &Out, T Value) {
  const std::size_t At = Out.size();
  Out.resize(At + sizeof(T));
  if constexpr (HostIsLittleEndian) {
    std::memcpy(Out.data() + At, &Value, sizeof(T));
  } else {
    for (std::size_t I = 0; I < sizeof(T); ++I)
      Out[At + I] = static_cast<std::uint8_t>(Value >> (8 * I));
  }
}

template <typename T> T loadLittleEndian(const std::uint8_t *Bytes) {
  T Value = 0;
  if constexpr (HostIsLittleEndian) {
    std::memcpy(&Value, Bytes, sizeof(T));
  } else {
    for (std::size_t I = 0; I < sizeof(T); ++I)
      Value |= static_cast<T>(Bytes[I]) << (8 * I);
  }
  return Value;
}

} // namespace

void ByteWriter::writeU32(std::uint32_t Value) {
  appendLittleEndian(Buffer, Value);
}

void ByteWriter::writeU64(std::uint64_t Value) {
  appendLittleEndian(Buffer, Value);
}

void ByteWriter::writeF64(double Value) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double must be 64 bits");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeF64s(const double *Values, std::size_t Count) {
  if constexpr (HostIsLittleEndian) {
    const auto *Bytes = reinterpret_cast<const std::uint8_t *>(Values);
    Buffer.insert(Buffer.end(), Bytes, Bytes + Count * sizeof(double));
  } else {
    for (std::size_t I = 0; I < Count; ++I)
      writeF64(Values[I]);
  }
}

void ByteWriter::writeString(const std::string &Value) {
  writeU32(static_cast<std::uint32_t>(Value.size()));
  Buffer.insert(Buffer.end(), Value.begin(), Value.end());
}

void ByteWriter::writeBytes(const std::vector<std::uint8_t> &Value) {
  writeU32(static_cast<std::uint32_t>(Value.size()));
  Buffer.insert(Buffer.end(), Value.begin(), Value.end());
}

bool ByteReader::readU8(std::uint8_t &Value) {
  if (remaining() < 1)
    return false;
  Value = Bytes[Position++];
  return true;
}

bool ByteReader::readU32(std::uint32_t &Value) {
  if (remaining() < 4)
    return false;
  Value = loadLittleEndian<std::uint32_t>(Bytes.data() + Position);
  Position += 4;
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
  if (remaining() < 8)
    return false;
  Value = loadLittleEndian<std::uint64_t>(Bytes.data() + Position);
  Position += 8;
  return true;
}

bool ByteReader::readF64(double &Value) {
  std::uint64_t Bits;
  if (!readU64(Bits))
    return false;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return true;
}

bool ByteReader::readF64s(double *Values, std::size_t Count) {
  if (remaining() / sizeof(double) < Count)
    return false;
  if constexpr (HostIsLittleEndian) {
    std::memcpy(Values, Bytes.data() + Position, Count * sizeof(double));
    Position += Count * sizeof(double);
  } else {
    for (std::size_t I = 0; I < Count; ++I)
      readF64(Values[I]);
  }
  return true;
}

bool ByteReader::readString(std::string &Value) {
  std::uint32_t Length;
  if (!readU32(Length))
    return false;
  if (Length > remaining())
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
  if (Length > remaining())
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

namespace {

/// Species count a standalone `decodeMatrix` accepts; the service
/// protocol passes its own, lower cap.
constexpr std::uint32_t MaxMatrixSpecies = 100000;

std::uint64_t numPairs(std::uint64_t NumSpecies) {
  return NumSpecies < 2 ? 0 : NumSpecies * (NumSpecies - 1) / 2;
}

/// Every distance finite and nonnegative: `>= 0` fails for NaN and
/// negatives, `<= max` for +inf. No early exit, so the loop vectorizes.
bool allFiniteNonNegative(const double *Values, std::size_t Count) {
  bool Ok = true;
  for (std::size_t I = 0; I < Count; ++I)
    Ok &= Values[I] >= 0.0 && Values[I] <= std::numeric_limits<double>::max();
  return Ok;
}

} // namespace

std::size_t mutk::matrixWireBytes(const DistanceMatrix &M) {
  std::size_t Bytes = 4 + 8 * numPairs(static_cast<std::uint64_t>(M.size()));
  for (const std::string &Name : M.names())
    Bytes += 4 + Name.size();
  return Bytes;
}

void mutk::writeMatrix(ByteWriter &Writer, const DistanceMatrix &M) {
  const int N = M.size();
  Writer.writeU32(static_cast<std::uint32_t>(N));
  for (const std::string &Name : M.names())
    Writer.writeString(Name);
  for (int I = 0; I < N; ++I)
    Writer.writeF64s(M.row(I) + I + 1, static_cast<std::size_t>(N - I - 1));
}

bool mutk::readMatrix(ByteReader &Reader, DistanceMatrix &M,
                      std::uint32_t MaxSpecies) {
  std::uint32_t N = 0;
  if (!Reader.readU32(N) || N > MaxSpecies)
    return false;
  // A forged count must not buy an allocation its payload cannot back.
  if (Reader.remaining() / 4 < N ||
      (Reader.remaining() - 4 * std::size_t{N}) / 8 < numPairs(N))
    return false;
  std::vector<std::string> Names(N);
  for (std::string &Name : Names)
    if (!Reader.readString(Name))
      return false;
  DistanceMatrix Out(std::move(Names));
  if (!Out.fillUpperRows([&](double *Upper, std::size_t Count) {
        return Reader.readF64s(Upper, Count) &&
               allFiniteNonNegative(Upper, Count);
      }))
    return false;
  M = std::move(Out);
  return true;
}

std::vector<std::uint8_t> mutk::encodeMatrix(const DistanceMatrix &M) {
  ByteWriter Writer;
  Writer.reserve(matrixWireBytes(M));
  writeMatrix(Writer, M);
  return Writer.take();
}

namespace {

/// Node tags of the pre-order tree encoding.
constexpr std::uint8_t TreeTagLeaf = 0;
constexpr std::uint8_t TreeTagInternal = 1;

/// Decoded trees are bounded so a hostile payload cannot blow the heap
/// (the service species cap is 4096; this leaves ample headroom for
/// standalone library users).
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

/// Rebuilds a pre-order encoded tree bottom-up (children become roots
/// before their parent adopts them, matching `addInternal`'s contract).
/// An explicit stack holds the internal nodes still waiting for a child,
/// so a deep tree costs heap, not call stack. \returns the root's node
/// index or -1 on malformed input.
int readTreeNodes(ByteReader &Reader, PhyloTree &Tree) {
  struct Open {
    double Height;
    int Left; ///< The finished left child, -1 while it is being read.
  };
  std::vector<Open> Stack;
  for (std::uint32_t Nodes = 0; Nodes < MaxTreeNodes; ++Nodes) {
    std::uint8_t Tag = 0;
    if (!Reader.readU8(Tag))
      return -1;
    if (Tag == TreeTagInternal) {
      double Height = 0.0;
      if (!Reader.readF64(Height) || !(Height == Height)) // reject NaN
        return -1;
      Stack.push_back({Height, -1});
      continue;
    }
    std::int32_t Species = 0;
    if (Tag != TreeTagLeaf || !Reader.readI32(Species) || Species < 0)
      return -1;
    // A finished subtree completes every parent whose left child is
    // already done, then becomes the left child of the next one up.
    int Done = Tree.addLeaf(Species);
    while (!Stack.empty() && Stack.back().Left >= 0) {
      Done = Tree.addInternal(Stack.back().Left, Done, Stack.back().Height);
      Stack.pop_back();
    }
    if (Stack.empty())
      return Done;
    Stack.back().Left = Done;
  }
  return -1;
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
    int Root = readTreeNodes(Reader, Tree);
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

void mutk::writeBnbCounters(ByteWriter &Writer, const BnbStats &Stats) {
  Writer.writeU64(Stats.Branched);
  Writer.writeU64(Stats.Generated);
  Writer.writeU64(Stats.PrunedByBound);
  Writer.writeU64(Stats.PrunedByThreeThree);
  Writer.writeU64(Stats.UbUpdates);
}

bool mutk::readBnbCounters(ByteReader &Reader, BnbStats &Stats) {
  return Reader.readU64(Stats.Branched) && Reader.readU64(Stats.Generated) &&
         Reader.readU64(Stats.PrunedByBound) &&
         Reader.readU64(Stats.PrunedByThreeThree) &&
         Reader.readU64(Stats.UbUpdates);
}

std::vector<std::uint8_t>
mutk::encodeSearchCheckpoint(const SearchCheckpoint &Ck) {
  ByteWriter Writer;
  Writer.writeU64(Ck.MatrixKey);
  Writer.writeF64(Ck.UpperBound);
  writeBnbCounters(Writer, Ck.Stats);
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
      !readBnbCounters(Reader, Ck.Stats) || !Reader.readU8(Complete) ||
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
  DistanceMatrix M;
  if (!readMatrix(Reader, M, MaxMatrixSpecies) || !Reader.atEnd())
    return std::nullopt;
  return M;
}

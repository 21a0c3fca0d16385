//===- mp/Serialize.h - Message payload (de)serialization -------*- C++ -*-===//
///
/// \file
/// Byte-level encoding for message payloads: little-endian fixed-width
/// scalars plus codecs for the structures the B&B protocol ships across
/// ranks — partial topologies and whole distance matrices. Every codec
/// has an exact round-trip guarantee (tested), since a corrupted BBT
/// node silently poisons a search.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_MP_SERIALIZE_H
#define MUTK_MP_SERIALIZE_H

#include "bnb/Checkpoint.h"
#include "bnb/Topology.h"
#include "matrix/DistanceMatrix.h"
#include "tree/PhyloTree.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mutk {

/// Appends fixed-width little-endian values to a byte buffer.
class ByteWriter {
public:
  std::vector<std::uint8_t> take() { return std::move(Buffer); }
  const std::vector<std::uint8_t> &bytes() const { return Buffer; }

  /// Makes room for \p Extra more bytes in one allocation. Meant to be
  /// called once with a payload's exact size, not per field: repeated
  /// small reservations defeat the buffer's geometric growth.
  void reserve(std::size_t Extra) { Buffer.reserve(Buffer.size() + Extra); }

  void writeU8(std::uint8_t Value) { Buffer.push_back(Value); }
  void writeU32(std::uint32_t Value);
  void writeI32(std::int32_t Value) {
    writeU32(static_cast<std::uint32_t>(Value));
  }
  void writeU64(std::uint64_t Value);
  void writeF64(double Value);
  /// Appends \p Count doubles, bit-exact, 8 little-endian bytes each.
  void writeF64s(const double *Values, std::size_t Count);
  void writeString(const std::string &Value);
  /// Length-prefixed raw byte blob (u32 size + bytes).
  void writeBytes(const std::vector<std::uint8_t> &Value);

private:
  std::vector<std::uint8_t> Buffer;
};

/// Reads values written by ByteWriter. All methods fail (return false /
/// nullopt) instead of reading past the end.
class ByteReader {
public:
  explicit ByteReader(const std::vector<std::uint8_t> &Bytes)
      : Bytes(Bytes) {}

  bool atEnd() const { return Position == Bytes.size(); }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return Bytes.size() - Position; }

  bool readU8(std::uint8_t &Value);
  bool readU32(std::uint32_t &Value);
  bool readI32(std::int32_t &Value);
  bool readU64(std::uint64_t &Value);
  bool readF64(double &Value);
  /// Reads \p Count doubles written by `writeF64s` into \p Values.
  bool readF64s(double *Values, std::size_t Count);
  bool readString(std::string &Value);
  bool readBytes(std::vector<std::uint8_t> &Value);

private:
  const std::vector<std::uint8_t> &Bytes;
  std::size_t Position = 0;
};

/// Encodes a partial topology (BBT node) for shipping to another rank.
std::vector<std::uint8_t> encodeTopology(const Topology &T);

/// Decodes a topology; nullopt on malformed input.
std::optional<Topology> decodeTopology(const std::vector<std::uint8_t> &Bytes);

/// \name Distance-matrix codec.
///
/// The one matrix layout on every wire: a u32 species count, the
/// length-prefixed names, then the upper triangle row-major as f64s.
/// The service protocol embeds it in Build requests and the MP engine
/// ships it whole in its `Init` message.
/// @{

/// Encoded size of \p M in bytes.
std::size_t matrixWireBytes(const DistanceMatrix &M);

/// Appends \p M.
void writeMatrix(ByteWriter &Writer, const DistanceMatrix &M);

/// Reads a matrix written by `writeMatrix` into \p M. Fails on more than
/// \p MaxSpecies species, on a payload too short for the names (each at
/// least its 4-byte length prefix) and the whole triangle — checked
/// before anything n-sized is allocated — and on any distance that is
/// not finite and nonnegative.
bool readMatrix(ByteReader &Reader, DistanceMatrix &M,
                std::uint32_t MaxSpecies);

/// Encodes a distance matrix including species names.
std::vector<std::uint8_t> encodeMatrix(const DistanceMatrix &M);

/// Decodes a matrix; nullopt on malformed input.
std::optional<DistanceMatrix>
decodeMatrix(const std::vector<std::uint8_t> &Bytes);
/// @}

/// \name Inline codecs (append to / read from an open stream).
///
/// The whole-buffer codecs above own their framing; these variants let
/// composite structures (search checkpoints, durable-cache records)
/// embed trees and topologies inside a larger payload.
/// @{
void writePhyloTree(ByteWriter &Writer, const PhyloTree &Tree);
bool readPhyloTree(ByteReader &Reader, PhyloTree &Tree);
void writeTopology(ByteWriter &Writer, const Topology &T);
bool readTopology(ByteReader &Reader, std::optional<Topology> &T);
/// @}

/// Encodes an ultrametric tree (shape, heights, species ids, names).
/// Exact round trip: heights are shipped bit-exact.
std::vector<std::uint8_t> encodePhyloTree(const PhyloTree &Tree);

/// Decodes a tree; nullopt on malformed input.
std::optional<PhyloTree>
decodePhyloTree(const std::vector<std::uint8_t> &Bytes);

/// \name Search counters.
///
/// The five `BnbStats` counters that cross a process boundary, as u64s
/// in a fixed order: branched, generated, pruned by bound, pruned by
/// 3-3, upper-bound updates. `BoundEvals` is process-local and
/// `Complete` is up to the enclosing message. Shared by the checkpoint
/// codec and the MP Stats message.
/// @{
void writeBnbCounters(ByteWriter &Writer, const BnbStats &Stats);
bool readBnbCounters(ByteReader &Reader, BnbStats &Stats);
/// @}

/// Encodes a branch-and-bound search checkpoint: the open frontier, the
/// incumbent tree, the upper bound and the counters accumulated so far
/// (`bnb/Checkpoint.h`). Persisted atomically by `persist/Checkpoint.h`.
std::vector<std::uint8_t> encodeSearchCheckpoint(const SearchCheckpoint &Ck);

/// Decodes a checkpoint; nullopt on malformed input (every embedded
/// topology is re-validated through `Topology::fromNodes`).
std::optional<SearchCheckpoint>
decodeSearchCheckpoint(const std::vector<std::uint8_t> &Bytes);

} // namespace mutk

#endif // MUTK_MP_SERIALIZE_H

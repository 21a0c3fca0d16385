//===- matrix/Fingerprint.cpp - Canonical matrix fingerprints -------------===//

#include "matrix/Fingerprint.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

using namespace mutk;

namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t> &Bytes) {
  std::uint64_t Hash = 1469598103934665603ull;
  for (std::uint8_t B : Bytes) {
    Hash ^= B;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// The bit pattern of \p Value: zeros of either sign compare equal as
/// doubles but not here, and the canonical bytes tell them apart.
std::uint64_t bitsOf(double Value) {
  return std::bit_cast<std::uint64_t>(Value);
}

/// Greedy maxmin order seeded with \p First then \p Second: each further
/// species maximizes its minimum distance to the prefix, ties going to
/// the smaller index. Seeded the other way round, the order is the same
/// after its first two entries (docs/ALGORITHMS.md §10), so one sweep
/// serves both orientations of a seed pair.
std::vector<int> maxminOrder(const DistanceMatrix &M, int First,
                             int Second) {
  const int N = M.size();
  std::vector<int> Perm{First, Second};
  Perm.reserve(static_cast<std::size_t>(N));
  // The species not yet placed, in index order, and their minimum
  // distance to the prefix. Each step drops the species it places,
  // lowers the other gaps by their distance to it (its row; the storage
  // is exactly symmetric) and finds the next argmax, all in one pass.
  std::vector<int> Left;
  std::vector<double> Gap;
  Left.reserve(static_cast<std::size_t>(N));
  Gap.reserve(static_cast<std::size_t>(N));
  const double *FirstRow = M.row(First);
  const double *SecondRow = M.row(Second);
  for (int I = 0; I < N; ++I)
    if (I != First && I != Second) {
      Left.push_back(I);
      Gap.push_back(std::min(FirstRow[I], SecondRow[I]));
    }
  std::size_t Count = Left.size();
  std::size_t Best = 0;
  for (std::size_t K = 1; K < Count; ++K)
    if (Gap[K] > Gap[Best])
      Best = K;
  while (Count > 0) {
    const int Placed = Left[Best];
    Perm.push_back(Placed);
    const double *Row = M.row(Placed);
    std::size_t Kept = 0;
    std::size_t NextBest = 0;
    for (std::size_t K = 0; K < Count; ++K) {
      if (K == Best)
        continue;
      const int I = Left[K];
      const double G = std::min(Gap[K], Row[I]);
      Left[Kept] = I;
      Gap[Kept] = G;
      if (Kept == 0 || G > Gap[NextBest])
        NextBest = Kept;
      ++Kept;
    }
    Count = Kept;
    Best = NextBest;
  }
  return Perm;
}

/// True when the canonical bytes of \p A sort before those of \p B. Both
/// encodings share their size header, so this compares distance by
/// distance in encoding order and stops at the first pair that differs.
/// Byte-lexicographic order on a distance's little-endian image is the
/// integer order of its byte-swapped bit pattern (docs/ALGORITHMS.md
/// §10).
bool encodesBefore(const DistanceMatrix &M, const std::vector<int> &A,
                   const std::vector<int> &B) {
  const std::size_t N = A.size();
  for (std::size_t I = 0; I < N; ++I) {
    const double *RowA = M.row(A[I]);
    const double *RowB = M.row(B[I]);
    for (std::size_t J = I + 1; J < N; ++J) {
      const std::uint64_t X = bitsOf(RowA[A[J]]);
      const std::uint64_t Y = bitsOf(RowB[B[J]]);
      if (X != Y)
        return __builtin_bswap64(X) < __builtin_bswap64(Y);
    }
  }
  return false;
}

/// The size header (u32) and the upper triangle under \p Perm, row-major,
/// each distance as its 8 little-endian bytes.
std::vector<std::uint8_t> canonicalBytes(const DistanceMatrix &M,
                                         const std::vector<int> &Perm) {
  const std::size_t N = Perm.size();
  const std::size_t Size = 4 + (N < 2 ? 0 : N * (N - 1) / 2) * 8;
  std::vector<std::uint8_t> Bytes;
  // Spare room for a short suffix: the service's whole-matrix identity
  // appends its knob bytes to these without reallocating.
  Bytes.reserve(Size + 8);
  Bytes.resize(Size);
  std::uint8_t *Out = Bytes.data();
  for (int Shift = 0; Shift < 32; Shift += 8)
    *Out++ = static_cast<std::uint8_t>(N >> Shift);
  for (std::size_t I = 0; I < N; ++I) {
    const double *Row = M.row(Perm[I]);
    for (std::size_t J = I + 1; J < N; ++J) {
      std::uint64_t Bits = bitsOf(Row[Perm[J]]);
      if constexpr (std::endian::native == std::endian::big)
        Bits = __builtin_bswap64(Bits);
      std::memcpy(Out, &Bits, sizeof(Bits));
      Out += sizeof(Bits);
    }
  }
  return Bytes;
}

} // namespace

CanonicalForm mutk::canonicalForm(const DistanceMatrix &M) {
  CanonicalForm Form;
  const int N = M.size();
  if (N < 2) {
    // Trivial matrices carry no distances; the size alone is the form.
    Form.Perm.resize(static_cast<std::size_t>(N));
    std::iota(Form.Perm.begin(), Form.Perm.end(), 0);
  } else {
    // The greedy order is seeded with the farthest pair, and a relabeling
    // can change which tied pair (or which of its endpoints) a scan finds
    // first. Try every tied farthest pair in both orientations and keep
    // the lexicographically smallest encoding — a label-free choice as
    // long as all tied pairs are tried, so the cap only matters for
    // pathologically tie-heavy matrices, where dropping candidates costs
    // at worst a cache miss, never a wrong hit.
    constexpr std::size_t MaxSeedPairs = 16;
    std::vector<std::pair<int, int>> Seeds;
    double Farthest = M.at(0, 1);
    for (int I = 0; I < N; ++I) {
      const double *Row = M.row(I);
      for (int J = I + 1; J < N; ++J) {
        if (Row[J] > Farthest) {
          Farthest = Row[J];
          Seeds.clear();
        }
        if (Row[J] == Farthest && Seeds.size() < MaxSeedPairs)
          Seeds.emplace_back(I, J);
      }
    }
    for (const auto &[I, J] : Seeds) {
      std::vector<int> Order = maxminOrder(M, I, J);
      if (Form.Perm.empty() || encodesBefore(M, Order, Form.Perm))
        Form.Perm = Order;
      std::swap(Order[0], Order[1]); // the (J, I) orientation
      if (encodesBefore(M, Order, Form.Perm))
        Form.Perm = std::move(Order);
    }
  }
  Form.Bytes = canonicalBytes(M, Form.Perm);
  Form.Key = fnv1a(Form.Bytes);
  return Form;
}

std::vector<int> CanonicalForm::inversePerm() const {
  std::vector<int> Inverse(Perm.size());
  for (std::size_t K = 0; K < Perm.size(); ++K)
    Inverse[static_cast<std::size_t>(Perm[K])] = static_cast<int>(K);
  return Inverse;
}

std::uint64_t mutk::fingerprint(const DistanceMatrix &M) {
  return canonicalForm(M).Key;
}

int mutk::canonicalSpeciesCount(const std::vector<std::uint8_t> &Bytes) {
  if (Bytes.size() < 4)
    return 0;
  std::uint32_t N = 0;
  for (int Shift = 0; Shift < 32; Shift += 8)
    N |= static_cast<std::uint32_t>(Bytes[static_cast<std::size_t>(Shift / 8)])
         << Shift;
  return N > static_cast<std::uint32_t>(1 << 20) ? 0 : static_cast<int>(N);
}

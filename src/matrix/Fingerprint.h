//===- matrix/Fingerprint.h - Canonical matrix fingerprints -----*- C++ -*-===//
///
/// \file
/// Relabeling-invariant fingerprints for distance matrices, the cache key
/// of the tree-construction service: two matrices that differ only by a
/// permutation of the taxa (and by their names) hash to the same 64-bit
/// key, so a cached solution can be replayed onto the second matrix by
/// permuting leaf labels instead of re-running branch-and-bound.
///
/// Canonicalization uses the greedy maxmin order (as in `MetricUtils.h`):
/// it depends only on the distances, so permuting the input permutes the
/// chosen species but reproduces the same *canonical matrix* whenever the
/// argmax choices are unique. The systematic ambiguity — which farthest
/// pair seeds the order, and which of its endpoints comes first — is
/// resolved by enumerating every tied farthest pair in both orientations
/// (capped at 16 pairs) and keeping the lexicographically smallest byte
/// string, which is label-independent. One maxmin sweep serves both
/// orientations of a pair, and candidates are ranked distance by
/// distance without being encoded (docs/ALGORITHMS.md §10). Remaining
/// ties (equal maxmin margins mid-order, or more tied farthest pairs than
/// the cap) are broken toward the smaller index, which is
/// label-dependent; such degenerate inputs may canonicalize differently
/// under relabeling — that costs a cache miss, never a wrong hit, because
/// hits additionally compare the canonical bytes, not just the 64-bit
/// hash.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_MATRIX_FINGERPRINT_H
#define MUTK_MATRIX_FINGERPRINT_H

#include "matrix/DistanceMatrix.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mutk {

/// The canonical form of a matrix under taxon relabeling.
struct CanonicalForm {
  /// `hashBytes(Bytes)`: the cache key, shard selector and checkpoint
  /// name of the form.
  std::uint64_t Key = 0;
  /// Maxmin permutation used: canonical index `k` is original index
  /// `Perm[k]`.
  std::vector<int> Perm;
  /// The inverse of `Perm` (original index -> canonical index). Cached
  /// trees are stored relabeled through it, and replayed through `Perm`.
  std::vector<int> inversePerm() const;
  /// The canonical upper triangle, bit-exact (size header + doubles in
  /// row-major `(i, j > i)` order). Equality of two canonical forms is
  /// equality of these bytes; names are deliberately excluded.
  std::vector<std::uint8_t> Bytes;
};

/// Computes the canonical form of \p M: one O(n^2) maxmin sweep per tied
/// farthest pair (at most 16), candidate comparisons that stop at the
/// first distance that differs, then one encode and one `hashBytes` pass
/// over the winner's 4 + 8 n(n-1)/2 bytes.
CanonicalForm canonicalForm(const DistanceMatrix &M);

/// The 64-bit hash that keys canonical forms. It is part of the on-disk
/// format: cache records, checkpoint names (`ckpt/<key>.ckpt`) and the
/// cluster's key-to-owner map all derive from it, so changing it is a
/// cache format change (docs/ALGORITHMS.md §10).
///
/// The input is read as little-endian 8-byte words, and P1..P5 are
/// xxHash64's primes. Each 32-byte stripe feeds one word to each of four
/// independent lanes, seeded as xxHash64's with seed 0, through its round
/// `round(Lane, Word) = rotl(Lane + Word * P2, 31) * P1`. The lanes are
/// merged as in xxHash64 (an input shorter than 32 bytes starts from P5
/// instead), the length is added, and the 0-31 tail bytes follow as
/// whole words and then one zero-padded partial word, each through
/// `Hash = rotl(Hash ^ round(0, Word), 27) * P1 + P4`. murmur3's
/// `fmix64` finalizer then spreads every input bit over all 64 key bits,
/// high and low, for the cache's shard choice and the cluster ring.
std::uint64_t hashBytes(std::span<const std::uint8_t> Bytes);

/// Shorthand for `canonicalForm(M).Key`: a relabeling-invariant 64-bit
/// fingerprint (collisions possible; compare `Bytes` before trusting it).
std::uint64_t fingerprint(const DistanceMatrix &M);

/// `hashBytes` over \p M in its own labels: the size header and the
/// upper triangle in index order, encoded as `CanonicalForm::Bytes` is
/// but under the identity permutation. Unlike `fingerprint` it changes
/// under relabeling, so it keys state that names species by index, such
/// as a search checkpoint (`SearchCheckpoint::MatrixKey`). One O(n^2)
/// pass, no maxmin sweep.
std::uint64_t labeledKey(const DistanceMatrix &M);

/// Decodes the species-count header of a `CanonicalForm::Bytes` string
/// (0 for a malformed/too-short buffer). Lets cache tiers apply
/// size-dependent policy — e.g. "only ship blocks of >= k species to a
/// remote peer" — without re-deriving the matrix.
int canonicalSpeciesCount(const std::vector<std::uint8_t> &Bytes);

} // namespace mutk

#endif // MUTK_MATRIX_FINGERPRINT_H

//===- tests/service_test.cpp - Tree-construction service tests -----------===//
//
// Covers the `mutkd` subsystem bottom-up: matrix fingerprints, the
// sharded LRU cache, the wire-protocol codecs, the loopback TreeService
// (concurrency, determinism, caching, deadlines, shutdown, counters) and
// the socket transport end to end. The job queue is `qos::ReadyQueue`,
// covered in qos_test.
//
//===----------------------------------------------------------------------===//

#include "compact/CompactSetPipeline.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "matrix/MatrixIO.h"
#include "obs/Metrics.h"
#include "service/Client.h"
#include "service/ResultCache.h"
#include "service/Server.h"
#include "service/Service.h"
#include "service/ServiceStats.h"
#include "support/Rng.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mutk;

namespace {

/// A metric whose distances all lie in [99, 100]: the triangle
/// inequality holds trivially, and the only compact sets are forced
/// minimum pairs, so the top condensed block stays large and exact B&B
/// on it prunes poorly — a reliable way to keep a worker busy for a
/// bounded-but-nontrivial number of branched nodes.
DistanceMatrix narrowBandMatrix(int N, std::uint64_t Seed) {
  DistanceMatrix M(N);
  std::uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 1;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      double Unit = static_cast<double>(State >> 11) /
                    static_cast<double>(1ull << 53);
      M.set(I, J, 99.0 + Unit);
    }
  return M;
}

/// The knobs a default BuildRequest maps to on the pipeline side.
PipelineOptions defaultPipelineOptions() {
  PipelineOptions Options;
  Options.Mode = CondenseMode::Maximum;
  Options.MaxExactBlockSize = 16;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, InvariantUnderRelabeling) {
  for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(12, Seed);
    std::uint64_t Want = fingerprint(M);
    std::vector<std::uint8_t> WantBytes = canonicalForm(M).Bytes;
    std::vector<int> Perm(12);
    std::iota(Perm.begin(), Perm.end(), 0);
    // A deterministic batch of permutations: reversals and rotations
    // compose into fairly arbitrary relabelings across iterations.
    for (int Round = 0; Round < 6; ++Round) {
      if (Round % 2 == 0)
        std::reverse(Perm.begin() + Round / 2, Perm.end());
      else
        std::rotate(Perm.begin(), Perm.begin() + 1 + Round / 2, Perm.end());
      DistanceMatrix P = M.permuted(Perm);
      EXPECT_EQ(Want, fingerprint(P)) << "seed " << Seed << " round "
                                      << Round;
      EXPECT_EQ(WantBytes, canonicalForm(P).Bytes);
    }
  }
}

TEST(Fingerprint, NamesDoNotMatter) {
  DistanceMatrix M = uniformRandomMetric(8, 9);
  DistanceMatrix Renamed = M;
  for (int I = 0; I < 8; ++I)
    Renamed.setName(I, "species_" + std::to_string(100 - I));
  EXPECT_EQ(fingerprint(M), fingerprint(Renamed));
}

TEST(Fingerprint, DistinguishesMatrices) {
  DistanceMatrix A = uniformRandomMetric(10, 1);
  DistanceMatrix B = uniformRandomMetric(10, 2);
  EXPECT_NE(fingerprint(A), fingerprint(B));

  DistanceMatrix C = A;
  C.set(2, 7, A.at(2, 7) + 0.5);
  EXPECT_NE(fingerprint(A), fingerprint(C));
}

TEST(Fingerprint, TinySizes) {
  EXPECT_NE(fingerprint(DistanceMatrix(0)), fingerprint(DistanceMatrix(1)));
  CanonicalForm Form = canonicalForm(DistanceMatrix(1));
  EXPECT_EQ(Form.Perm, std::vector<int>{0});
}

TEST(Fingerprint, PermutationMapsToCanonicalOrder) {
  DistanceMatrix M = uniformRandomMetric(9, 33);
  CanonicalForm Form = canonicalForm(M);
  ASSERT_EQ(static_cast<int>(Form.Perm.size()), 9);
  // Perm maps canonical index -> original index, so permuting M by it
  // must reproduce the canonical bytes with an identity permutation.
  DistanceMatrix Canon = M.permuted(Form.Perm);
  CanonicalForm Again = canonicalForm(Canon);
  EXPECT_EQ(Form.Key, Again.Key);
  EXPECT_EQ(Form.Bytes, Again.Bytes);
}

namespace {

/// The canonical form spelled out the slow way: every tied farthest pair
/// (at most 16, in row-major scan order) in both orientations runs its
/// own maxmin order, every candidate is fully encoded, and the
/// byte-smallest encoding wins (the first one on a tie). `canonicalForm`
/// must agree with it bit for bit.
CanonicalForm referenceCanonicalForm(const DistanceMatrix &M) {
  auto AppendU32 = [](std::vector<std::uint8_t> &Bytes, std::uint32_t V) {
    for (int Shift = 0; Shift < 32; Shift += 8)
      Bytes.push_back(static_cast<std::uint8_t>(V >> Shift));
  };
  const int N = M.size();
  CanonicalForm Form;
  if (N < 2) {
    for (int I = 0; I < N; ++I)
      Form.Perm.push_back(I);
    AppendU32(Form.Bytes, static_cast<std::uint32_t>(N));
    Form.Key = hashBytes(Form.Bytes);
    return Form;
  }
  double Farthest = M.at(0, 1);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Farthest = std::max(Farthest, M.at(I, J));
  std::vector<std::pair<int, int>> Seeds;
  for (int I = 0; I < N && Seeds.size() < 16; ++I)
    for (int J = I + 1; J < N && Seeds.size() < 16; ++J)
      if (M.at(I, J) == Farthest)
        Seeds.emplace_back(I, J);
  for (const auto &[I, J] : Seeds)
    for (const auto &[First, Second] :
         {std::pair<int, int>{I, J}, std::pair<int, int>{J, I}}) {
      std::vector<int> Perm{First, Second};
      std::vector<bool> Chosen(static_cast<std::size_t>(N), false);
      Chosen[static_cast<std::size_t>(First)] = true;
      Chosen[static_cast<std::size_t>(Second)] = true;
      std::vector<double> MinToPrefix(static_cast<std::size_t>(N));
      for (int K = 0; K < N; ++K)
        MinToPrefix[static_cast<std::size_t>(K)] =
            std::min(M.at(K, First), M.at(K, Second));
      for (int Step = 2; Step < N; ++Step) {
        int Best = -1;
        for (int K = 0; K < N; ++K)
          if (!Chosen[static_cast<std::size_t>(K)] &&
              (Best < 0 || MinToPrefix[static_cast<std::size_t>(K)] >
                               MinToPrefix[static_cast<std::size_t>(Best)]))
            Best = K;
        Perm.push_back(Best);
        Chosen[static_cast<std::size_t>(Best)] = true;
        for (int K = 0; K < N; ++K)
          MinToPrefix[static_cast<std::size_t>(K)] = std::min(
              MinToPrefix[static_cast<std::size_t>(K)], M.at(K, Best));
      }
      std::vector<std::uint8_t> Bytes;
      AppendU32(Bytes, static_cast<std::uint32_t>(N));
      for (int A = 0; A < N; ++A)
        for (int B = A + 1; B < N; ++B) {
          std::uint64_t Bits = 0;
          double V = M.at(Perm[static_cast<std::size_t>(A)],
                          Perm[static_cast<std::size_t>(B)]);
          std::memcpy(&Bits, &V, sizeof(Bits));
          for (int Shift = 0; Shift < 64; Shift += 8)
            Bytes.push_back(static_cast<std::uint8_t>(Bits >> Shift));
        }
      if (Form.Bytes.empty() || Bytes < Form.Bytes) {
        Form.Perm = std::move(Perm);
        Form.Bytes = std::move(Bytes);
      }
    }
  Form.Key = hashBytes(Form.Bytes);
  return Form;
}

/// A second, unrelated 64-bit hash (splitmix-style), so a golden row pins
/// the canonical bytes by more than the key they produce.
template <typename T> std::uint64_t mixHash(const std::vector<T> &Values) {
  std::uint64_t H = 0x243f6a8885a308d3ull;
  for (T V : Values) {
    H = (H ^ static_cast<std::uint64_t>(V)) + 0x9e3779b97f4a7c15ull;
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
    H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
    H ^= H >> 31;
  }
  return H;
}

/// Integer distances drawn from `[Lo, Hi]`: many exact ties, and with
/// `Hi <= 2 * Lo` the triangle inequality holds without repair.
DistanceMatrix integerTieMatrix(int N, int Lo, int Hi, std::uint64_t Seed) {
  Rng R(Seed);
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, static_cast<double>(R.nextInt(Lo, Hi)));
  return M;
}

/// Entries drawn from {-0.0, +0.0, 1, 2}: zeros of both signs compare
/// equal but encode differently, and most pairs tie.
DistanceMatrix signedZeroMatrix(int N, std::uint64_t Seed) {
  const double Values[] = {-0.0, 0.0, 1.0, 2.0};
  Rng R(Seed);
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, Values[R.nextBelow(4)]);
  return M;
}

/// A 40-taxon block-diagonal composition shaped like the ledger's
/// `overlap-durable` requests: modules of 14, 14 and 12 taxa with
/// near-equidistant distances of diameter 20, 80 apart from each other.
DistanceMatrix moduleComposition(std::uint64_t Seed) {
  const int Sizes[] = {14, 14, 12};
  DistanceMatrix M(40);
  for (int I = 0; I < 40; ++I)
    for (int J = I + 1; J < 40; ++J)
      M.set(I, J, 80.0);
  int Offset = 0;
  for (int K = 0; K < 3; ++K) {
    DistanceMatrix Module = scaledToMax(
        uniformRandomMetric(Sizes[K], Seed * 3 + static_cast<std::uint64_t>(K),
                            18.0, 20.0),
        20.0);
    for (int I = 0; I < Sizes[K]; ++I)
      for (int J = I + 1; J < Sizes[K]; ++J)
        M.set(Offset + I, Offset + J, Module.at(I, J));
    Offset += Sizes[K];
  }
  return M;
}

DistanceMatrix dataMatrix(const std::string &File) {
  std::string Error;
  std::optional<DistanceMatrix> M =
      readMatrixFile(std::string(MUTK_REPO_ROOT) + "/data/" + File, &Error);
  EXPECT_TRUE(M.has_value()) << File << ": " << Error;
  return M ? *M : DistanceMatrix();
}

struct GoldenForm {
  const char *Name;
  DistanceMatrix M;
  std::uint64_t Key;
  std::uint64_t PermHash;
  std::size_t Size;
  std::uint64_t BytesHash;
};

} // namespace

// Canonical forms are stored on disk and shipped between nodes, so any
// change to the key, the permutation or the bytes is a format change.
// These rows pin all three across the inputs that exercise every branch
// of the construction: seed-pair ties past the 16-pair cap, signed
// zeros, the trivial sizes and a warm-replay-sized planted matrix.
TEST(Fingerprint, GoldenCanonicalForms) {
  DistanceMatrix AllEqual(20);
  for (int I = 0; I < 20; ++I)
    for (int J = I + 1; J < 20; ++J)
      AllEqual.set(I, J, 7.0);
  DistanceMatrix Two(2);
  Two.set(0, 1, 5.0);
  DistanceMatrix Three(3);
  Three.set(0, 1, 3.0);
  Three.set(0, 2, 4.0);
  Three.set(1, 2, 5.0);
  DistanceMatrix AllZero(7);
  for (int I = 0; I < 7; ++I)
    for (int J = I + 1; J < 7; ++J)
      AllZero.set(I, J, (I + J) % 3 == 0 ? -0.0 : 0.0);

  const GoldenForm Rows[] = {
      {"paper_example", dataMatrix("paper_example.dist"),
       0x7d2befa8e4b8d2bfull, 0x1f9052fb8d651d91ull, 124, 0x9992eee97dc036eull},
      {"hmdna16", dataMatrix("hmdna16.dist"),
       0x882992f78f7355f0ull, 0x3827832ef6be7d5ull, 964, 0x698ec19d9fa73d90ull},
      {"random20", dataMatrix("random20.dist"),
       0xcdc92bb0177dba3cull, 0xc8bf3d437e3bc44full, 1524,
       0xd7ab2b6c29682890ull},
      {"all-equal-20", AllEqual,
       0x3b3c3042c0aa7fe3ull, 0x856471c42619a0b0ull, 1524,
       0x5da700916395500dull},
      {"int-ties-24-s1", integerTieMatrix(24, 2, 4, 1),
       0xa8f3538a844d45edull, 0xca56e12f34a753d1ull, 2212,
       0x423be5fa7c386f6bull},
      {"int-ties-24-s2", integerTieMatrix(24, 2, 4, 2),
       0x780a2cc2e0d62f29ull, 0xc130b1c8a2d1a295ull, 2212,
       0x55069c864ef94919ull},
      {"int-ties-31-s3", integerTieMatrix(31, 1, 2, 3),
       0x2194cfc1675b718aull, 0x5aab1e484fb6b0f3ull, 3724,
       0x4612974e2871c2e9ull},
      {"signed-zero-12", signedZeroMatrix(12, 4),
       0x3ee5340c4ef5c48aull, 0x662f266eb5c4d681ull, 532,
       0xed9bb6ffd89352d6ull},
      {"all-zero-7", AllZero,
       0x583cafe3b4c1d4c4ull, 0xbac1ad66691a0463ull, 172,
       0xf62fa418cdef90edull},
      {"n0", DistanceMatrix(0),
       0xa393c46a00f149d6ull, 0x243f6a8885a308d3ull, 4, 0x4534183a9817a9a3ull},
      {"n1", DistanceMatrix(1),
       0x5f940cac43179430ull, 0x2cb0f69f4abea221ull, 4, 0x3757231de6a562ddull},
      {"n2", Two,
       0xaf45a747f1d27f0bull, 0x9478dcbcb9ca8043ull, 12, 0x56c9c4e55d0a423bull},
      {"n3", Three,
       0xac0307e7ef567477ull, 0xede5552e5fe53772ull, 28, 0xc570176602ec0d1ull},
      {"planted-256", scaledToMax(plantedClusterMetric(256, 7), 100.0),
       0xc0951729580897eaull, 0xe270a80bcb41be83ull, 261124,
       0xd3640ca74ba40032ull},
  };
  for (const GoldenForm &Row : Rows) {
    CanonicalForm Form = canonicalForm(Row.M);
    std::uint64_t PermHash = mixHash(Form.Perm);
    std::uint64_t BytesHash = mixHash(Form.Bytes);
    EXPECT_TRUE(Form.Key == Row.Key && PermHash == Row.PermHash &&
                Form.Bytes.size() == Row.Size && BytesHash == Row.BytesHash)
        << "{\"" << Row.Name << "\", ..., 0x" << std::hex << Form.Key
        << "ull, 0x" << PermHash << "ull, " << std::dec << Form.Bytes.size()
        << ", 0x" << std::hex << BytesHash << "ull}";
  }
}

// The data files' permutations, spelled out.
TEST(Fingerprint, GoldenPermutationsOfTheDataFiles) {
  EXPECT_EQ(canonicalForm(dataMatrix("paper_example.dist")).Perm,
            (std::vector<int>{2, 5, 4, 1, 3, 0}));
  EXPECT_EQ(canonicalForm(dataMatrix("hmdna16.dist")).Perm,
            (std::vector<int>{15, 11, 9, 14, 4, 5, 2, 13, 7, 8, 3, 6, 10, 12,
                              0, 1}));
  EXPECT_EQ(canonicalForm(dataMatrix("random20.dist")).Perm,
            (std::vector<int>{10, 2, 12, 15, 13, 0, 9, 5, 18, 3, 7, 14, 17, 6,
                              11, 16, 1, 4, 19, 8}));
}

// Property: `canonicalForm` equals the encode-every-candidate reference
// (key, permutation and bytes) on inputs chosen to stress each shortcut
// a faster construction could take: tie-heavy integer matrices (seed
// pairs past the cap, mid-order argmax ties), signed zeros (equal as
// values, different as bytes), block-diagonal module compositions
// (hundreds of tied farthest pairs) and their relabelings.
TEST(Fingerprint, MatchesEncodeEveryCandidateReference) {
  std::vector<DistanceMatrix> Inputs;
  for (std::uint64_t Seed = 0; Seed < 400; ++Seed) {
    int N = 2 + static_cast<int>(Seed % 29);
    int Hi = 1 + static_cast<int>(Seed % 3);
    Inputs.push_back(integerTieMatrix(N, 1, Hi, 100 + Seed));
  }
  for (std::uint64_t Seed = 0; Seed < 300; ++Seed)
    Inputs.push_back(signedZeroMatrix(2 + static_cast<int>(Seed % 23),
                                      500 + Seed));
  for (std::uint64_t Seed = 0; Seed < 200; ++Seed)
    Inputs.push_back(moduleComposition(900 + Seed));
  for (std::uint64_t Seed = 0; Seed < 60; ++Seed)
    Inputs.push_back(uniformRandomMetric(3 + static_cast<int>(Seed % 40),
                                         1300 + Seed));
  // Relabelings reach the same inputs through different scan orders.
  const std::size_t Base = Inputs.size();
  for (std::size_t I = 0; I < Base; I += 6) {
    Rng R(2000 + I);
    Inputs.push_back(Inputs[I].permuted(R.permutation(Inputs[I].size())));
  }
  ASSERT_GE(Inputs.size(), 1000u);
  for (std::size_t I = 0; I < Inputs.size(); ++I) {
    CanonicalForm Got = canonicalForm(Inputs[I]);
    CanonicalForm Want = referenceCanonicalForm(Inputs[I]);
    ASSERT_EQ(Got.Key, Want.Key) << "input " << I;
    ASSERT_EQ(Got.Perm, Want.Perm) << "input " << I;
    ASSERT_EQ(Got.Bytes, Want.Bytes) << "input " << I;
  }
}

namespace {

/// `hashBytes` spelled out the slow way: every word is assembled byte by
/// byte, little-endian, whatever the host's byte order.
std::uint64_t referenceHashBytes(const std::vector<std::uint8_t> &Bytes) {
  const std::uint64_t P1 = 0x9e3779b185ebca87ull;
  const std::uint64_t P2 = 0xc2b2ae3d27d4eb4full;
  const std::uint64_t P4 = 0x85ebca77c2b2ae63ull;
  const std::uint64_t P5 = 0x27d4eb2f165667c5ull;
  auto Rotl = [](std::uint64_t X, int R) { return X << R | X >> (64 - R); };
  auto Round = [&](std::uint64_t Lane, std::uint64_t Word) {
    return Rotl(Lane + Word * P2, 31) * P1;
  };
  // The little-endian word of the (at most 8) bytes from At on.
  auto Word = [&](std::size_t At) {
    std::uint64_t W = 0;
    for (std::size_t K = 0; K < 8 && At + K < Bytes.size(); ++K)
      W |= static_cast<std::uint64_t>(Bytes[At + K]) << (8 * K);
    return W;
  };
  const std::size_t Size = Bytes.size();
  std::size_t At = 0;
  std::uint64_t Hash = P5;
  if (Size >= 32) {
    std::uint64_t Lanes[4] = {P1 + P2, P2, 0, 0 - P1};
    for (; At + 32 <= Size; At += 32)
      for (std::size_t L = 0; L < 4; ++L)
        Lanes[L] = Round(Lanes[L], Word(At + 8 * L));
    Hash = Rotl(Lanes[0], 1) + Rotl(Lanes[1], 7) + Rotl(Lanes[2], 12) +
           Rotl(Lanes[3], 18);
    for (std::uint64_t Lane : Lanes)
      Hash = (Hash ^ Round(0, Lane)) * P1 + P4;
  }
  Hash += Size;
  for (; At < Size; At += 8)
    Hash = Rotl(Hash ^ Round(0, Word(At)), 27) * P1 + P4;
  Hash ^= Hash >> 33;
  Hash *= 0xff51afd7ed558ccdull;
  Hash ^= Hash >> 33;
  Hash *= 0xc4ceb9fe1a85ec53ull;
  Hash ^= Hash >> 33;
  return Hash;
}

} // namespace

// The key is part of the on-disk format: the word-at-a-time hash must
// equal a byte-at-a-time spelling of it for every tail length and at the
// size of a 256-taxon canonical form.
TEST(Fingerprint, HashBytesMatchesByteByByteReference) {
  Rng R(41);
  std::vector<std::uint8_t> Bytes;
  for (std::size_t Size = 0; Size <= 100; ++Size) {
    ASSERT_EQ(hashBytes(Bytes), referenceHashBytes(Bytes)) << "size " << Size;
    Bytes.push_back(static_cast<std::uint8_t>(R.next()));
  }
  std::vector<std::uint8_t> Large(261124);
  for (std::uint8_t &B : Large)
    B = static_cast<std::uint8_t>(R.next());
  EXPECT_EQ(hashBytes(Large), referenceHashBytes(Large));
}

// Every input bit reaches every key bit: each single-bit flip of a
// 16-taxon form changes the key, and flips each key bit about half the
// time (the shard choice and the cluster ring read different bits).
TEST(Fingerprint, HashBytesAvalanches) {
  const std::vector<std::uint8_t> Bytes =
      canonicalForm(dataMatrix("hmdna16.dist")).Bytes;
  ASSERT_EQ(Bytes.size(), 964u);
  const std::uint64_t Key = hashBytes(Bytes);
  std::array<int, 64> Flipped{};
  int Flips = 0;
  for (std::size_t I = 0; I < Bytes.size(); ++I)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<std::uint8_t> Copy = Bytes;
      Copy[I] ^= static_cast<std::uint8_t>(1u << Bit);
      const std::uint64_t Diff = hashBytes(Copy) ^ Key;
      ASSERT_NE(Diff, 0u) << "byte " << I << " bit " << Bit;
      for (int K = 0; K < 64; ++K)
        Flipped[static_cast<std::size_t>(K)] += (Diff >> K) & 1;
      ++Flips;
    }
  ASSERT_EQ(Flips, 7712);
  for (int K = 0; K < 64; ++K) {
    const double Rate = Flipped[static_cast<std::size_t>(K)] / 7712.0;
    EXPECT_NEAR(Rate, 0.5, 0.05) << "key bit " << K;
  }
}

// Keys spread evenly over the cache's shards, reduced as
// `ShardedLruCache::shardFor` reduces them.
TEST(Fingerprint, KeysFillTheDefaultShardsEvenly) {
  constexpr int Shards = 8;
  constexpr int Forms = 4096;
  std::array<int, Shards> Load{};
  std::set<std::uint64_t> Keys;
  for (std::uint64_t Seed = 0; Seed < Forms; ++Seed) {
    const std::uint64_t Key =
        canonicalForm(uniformRandomMetric(8, 7000 + Seed)).Key;
    Keys.insert(Key);
    ++Load[static_cast<std::size_t>((Key ^ (Key >> 32)) % Shards)];
  }
  // Distinct keys, so distinct forms.
  ASSERT_EQ(Keys.size(), static_cast<std::size_t>(Forms));
  const double Mean = static_cast<double>(Forms) / Shards;
  for (int S = 0; S < Shards; ++S)
    EXPECT_LE(Load[static_cast<std::size_t>(S)], 1.2 * Mean) << "shard " << S;
}

//===----------------------------------------------------------------------===//
// Sharded LRU cache
//===----------------------------------------------------------------------===//

namespace {

CachedSolution solutionWithCost(double Cost,
                                std::vector<std::uint8_t> Bytes) {
  CachedSolution S;
  S.Cost = Cost;
  S.Bytes = std::move(Bytes);
  return S;
}

} // namespace

TEST(ShardedLruCache, StoreAndLookup) {
  ShardedLruCache Cache(16, 4);
  Cache.store(7, solutionWithCost(1.5, {1, 2, 3}));
  auto Hit = Cache.lookup(7, {1, 2, 3});
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Cost, 1.5);
  EXPECT_FALSE(Cache.lookup(8, {1, 2, 3}).has_value());
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(ShardedLruCache, HashCollisionIsAMissNotAWrongTree) {
  ShardedLruCache Cache(16, 4);
  Cache.store(7, solutionWithCost(1.5, {1, 2, 3}));
  // Same key, different canonical bytes: must refuse the entry.
  EXPECT_FALSE(Cache.lookup(7, {9, 9, 9}).has_value());
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache Cache(2, 1); // single shard, two entries
  Cache.store(1, solutionWithCost(1, {1}));
  Cache.store(2, solutionWithCost(2, {2}));
  ASSERT_TRUE(Cache.lookup(1, {1}).has_value()); // 1 now most recent
  Cache.store(3, solutionWithCost(3, {3}));      // evicts 2
  EXPECT_TRUE(Cache.lookup(1, {1}).has_value());
  EXPECT_FALSE(Cache.lookup(2, {2}).has_value());
  EXPECT_TRUE(Cache.lookup(3, {3}).has_value());
  EXPECT_EQ(Cache.evictions(), 1u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(ShardedLruCache, ClearEmpties) {
  ShardedLruCache Cache(16, 4);
  Cache.store(1, solutionWithCost(1, {1}));
  Cache.store(2, solutionWithCost(2, {2}));
  EXPECT_EQ(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.lookup(1, {1}).has_value());
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

namespace {

BuildRequest sampleBuildRequest() {
  BuildRequest R;
  R.Matrix = uniformRandomMetric(6, 11);
  R.Matrix.setName(0, "needs escaping?");
  R.Mode = CondenseMode::Average;
  R.ThreeThree = ThreeThreeMode::AllInsertions;
  R.MaxExactBlockSize = 9;
  R.Polish = true;
  R.NodeBudget = 123456789;
  R.DeadlineMillis = 2500;
  R.UseCache = false;
  return R;
}

} // namespace

TEST(Protocol, BuildRequestRoundTrip) {
  Request Original = makeBuildRequest(sampleBuildRequest());
  std::vector<std::uint8_t> Bytes = encodeRequest(Original);
  std::optional<Request> Back = decodeRequest(Bytes);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->V, Verb::Build);
  const BuildRequest &B = Back->Build;
  EXPECT_TRUE(Original.Build.Matrix.approxEquals(B.Matrix, 0.0));
  EXPECT_EQ(B.Matrix.name(0), "needs escaping?");
  EXPECT_EQ(B.Mode, CondenseMode::Average);
  EXPECT_EQ(B.ThreeThree, ThreeThreeMode::AllInsertions);
  EXPECT_EQ(B.MaxExactBlockSize, 9);
  EXPECT_TRUE(B.Polish);
  EXPECT_EQ(B.NodeBudget, 123456789u);
  EXPECT_EQ(B.DeadlineMillis, 2500u);
  EXPECT_FALSE(B.UseCache);
}

TEST(Protocol, GeneratorRequestRoundTrip) {
  BuildRequest G;
  G.Generator = GeneratorKind::Clustered;
  G.GenSpecies = 40;
  G.GenSeed = 77;
  std::optional<Request> Back = decodeRequest(encodeRequest(makeBuildRequest(G)));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Build.Generator, GeneratorKind::Clustered);
  EXPECT_EQ(Back->Build.GenSpecies, 40);
  EXPECT_EQ(Back->Build.GenSeed, 77u);
  EXPECT_EQ(Back->Build.Matrix.size(), 0);
}

TEST(Protocol, BuildResponseRoundTrip) {
  Response R;
  R.V = Verb::Build;
  R.Build.Newick = "((a:1,b:1):1,c:2);";
  R.Build.Cost = 42.25;
  R.Build.Exact = true;
  R.Build.CacheHit = true;
  R.Build.BlockCacheHits = 3;
  R.Build.Branched = 999;
  R.Build.QueueMillis = 0.5;
  R.Build.SolveMillis = 7.25;
  BlockSummary S;
  S.NumBlocks = 4;
  S.Cost = 10.5;
  S.Exact = false;
  S.FromCache = true;
  R.Build.Blocks = {S, S};
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->ok());
  EXPECT_EQ(Back->Build.Newick, R.Build.Newick);
  EXPECT_DOUBLE_EQ(Back->Build.Cost, 42.25);
  EXPECT_TRUE(Back->Build.Exact);
  EXPECT_TRUE(Back->Build.CacheHit);
  EXPECT_EQ(Back->Build.BlockCacheHits, 3u);
  EXPECT_EQ(Back->Build.Branched, 999u);
  ASSERT_EQ(Back->Build.Blocks.size(), 2u);
  EXPECT_EQ(Back->Build.Blocks[0].NumBlocks, 4);
  EXPECT_FALSE(Back->Build.Blocks[0].Exact);
  EXPECT_TRUE(Back->Build.Blocks[0].FromCache);
}

TEST(Protocol, ErrorResponseRoundTrip) {
  Response R = makeErrorResponse(Verb::Build, ServiceError::DeadlineExpired,
                                 "too slow");
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Error, ServiceError::DeadlineExpired);
  EXPECT_EQ(Back->Message, "too slow");
  EXPECT_FALSE(Back->ok());
}

TEST(Protocol, StatsRoundTrip) {
  Response R;
  R.V = Verb::Stats;
  R.Stats.Accepted = 10;
  R.Stats.WholeHits = 4;
  R.Stats.QueueDepth = 2;
  R.Stats.P95Millis = 12.5;
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Stats.Accepted, 10u);
  EXPECT_EQ(Back->Stats.WholeHits, 4u);
  EXPECT_EQ(Back->Stats.QueueDepth, 2u);
  EXPECT_DOUBLE_EQ(Back->Stats.P95Millis, 12.5);
}

TEST(Protocol, RejectsCorruptFrames) {
  EXPECT_FALSE(decodeRequest({}).has_value());
  EXPECT_FALSE(decodeRequest({99}).has_value());      // unknown verb
  EXPECT_FALSE(decodeResponse({}).has_value());
  EXPECT_FALSE(decodeResponse({0xff}).has_value());

  // Every strict prefix of a valid encoding must fail, and so must
  // trailing garbage — decoders consume exactly the payload.
  std::vector<std::uint8_t> Bytes =
      encodeRequest(makeBuildRequest(sampleBuildRequest()));
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<std::uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    EXPECT_FALSE(decodeRequest(Prefix).has_value()) << "prefix " << Len;
  }
  std::vector<std::uint8_t> Padded = Bytes;
  Padded.push_back(0);
  EXPECT_FALSE(decodeRequest(Padded).has_value());
}

TEST(Protocol, RejectsOversizedMatrixHeader) {
  // A forged species count beyond the protocol cap must be rejected
  // before any n^2 allocation happens.
  BuildRequest R;
  R.Matrix = DistanceMatrix(2);
  std::vector<std::uint8_t> Bytes = encodeRequest(makeBuildRequest(R));
  // Layout: verb u8, version u32, generator u8, then the i32 species
  // count of the inline matrix.
  std::size_t CountOffset = 1 + 4 + 1;
  std::uint32_t Huge = 1u << 30;
  for (int I = 0; I < 4; ++I)
    Bytes[CountOffset + I] = static_cast<std::uint8_t>(Huge >> (8 * I));
  EXPECT_FALSE(decodeRequest(Bytes).has_value());
}

TEST(Protocol, RejectsMatrixHeaderWithoutBody) {
  // A count within the cap but with no names or distances behind it:
  // rejected from the payload size, before the n^2 allocation.
  BuildRequest R;
  R.Matrix = DistanceMatrix(2);
  std::vector<std::uint8_t> Bytes = encodeRequest(makeBuildRequest(R));
  std::size_t CountOffset = 1 + 4 + 1;
  Bytes.resize(CountOffset);
  for (int I = 0; I < 4; ++I)
    Bytes.push_back(
        static_cast<std::uint8_t>(MaxProtocolSpecies >> (8 * I)));
  std::string Error;
  EXPECT_FALSE(decodeRequest(Bytes, &Error).has_value());
  EXPECT_EQ(Error, "malformed build request");
}

TEST(Protocol, RejectsNegativeAndNanDistances) {
  // DistanceMatrix itself refuses such values (asserts in debug), so
  // forge them on the wire: overwrite the single f64 distance of a
  // 2-species request. It sits right before the 26 trailing bytes of
  // knob fields (mode u8, 3-3 u8, cap i32, polish u8, budget u64,
  // deadline u32, cache u8, incremental u8, priority u8, empty tenant
  // u32 length).
  DistanceMatrix M(2);
  M.set(0, 1, 3.0);
  BuildRequest R;
  R.Matrix = M;
  std::vector<std::uint8_t> Good = encodeRequest(makeBuildRequest(R));
  ASSERT_TRUE(decodeRequest(Good).has_value());

  auto withDistance = [&](double Value) {
    std::vector<std::uint8_t> Forged = Good;
    std::uint64_t Bits = 0;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    std::size_t Offset = Forged.size() - 26 - 8;
    for (int I = 0; I < 8; ++I)
      Forged[Offset + static_cast<std::size_t>(I)] =
          static_cast<std::uint8_t>(Bits >> (8 * I));
    return Forged;
  };
  ASSERT_TRUE(decodeRequest(withDistance(3.0)).has_value()); // offset sane
  EXPECT_FALSE(decodeRequest(withDistance(-1.0)).has_value());
  EXPECT_FALSE(
      decodeRequest(withDistance(std::numeric_limits<double>::quiet_NaN()))
          .has_value());
  EXPECT_FALSE(
      decodeRequest(withDistance(std::numeric_limits<double>::infinity()))
          .has_value());
  EXPECT_FALSE(
      decodeRequest(withDistance(-std::numeric_limits<double>::infinity()))
          .has_value());
}

//===----------------------------------------------------------------------===//
// Latency histogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, PercentilesAreOrderedAndInRange) {
  LatencyHistogram H;
  EXPECT_DOUBLE_EQ(H.snapshotMillis().P50, 0.0);
  for (int I = 0; I < 95; ++I)
    H.record(1.0);
  for (int I = 0; I < 5; ++I)
    H.record(200.0);
  obs::HistogramSnapshot S = H.snapshotMillis();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_GT(S.P50, 0.2);
  EXPECT_LT(S.P50, 3.0); // power-of-two buckets: within ~2x of 1ms
  EXPECT_LE(S.P50, S.P95);
  EXPECT_GT(S.P99, 100.0);
  EXPECT_LT(S.P99, 500.0);
  EXPECT_GT(S.Max, 100.0);
}

//===----------------------------------------------------------------------===//
// Loopback service
//===----------------------------------------------------------------------===//

TEST(TreeService, ConcurrentClientsMatchDirectPipeline) {
  // Direct single-threaded reference results for three matrices.
  std::vector<DistanceMatrix> Matrices;
  std::vector<std::string> WantNewick;
  std::vector<double> WantCost;
  for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(10 + 2 * static_cast<int>(Seed),
                                           Seed);
    PipelineResult Direct = buildCompactSetTree(M, defaultPipelineOptions());
    Matrices.push_back(std::move(M));
    WantNewick.push_back(toNewick(Direct.Tree));
    WantCost.push_back(Direct.Cost);
  }

  ServiceOptions Options;
  Options.NumWorkers = 4;
  TreeService Service(Options);

  // 4 client threads, each submitting every matrix several times in a
  // different order: exercises queue, workers and cache concurrently.
  constexpr int NumClients = 4;
  constexpr int Rounds = 3;
  std::vector<std::thread> Clients;
  std::vector<std::string> Failures[NumClients];
  for (int C = 0; C < NumClients; ++C) {
    Clients.emplace_back([&, C] {
      for (int Round = 0; Round < Rounds; ++Round) {
        for (std::size_t K = 0; K < Matrices.size(); ++K) {
          std::size_t Pick = (K + static_cast<std::size_t>(C)) %
                             Matrices.size();
          BuildRequest R;
          R.Matrix = Matrices[Pick];
          BuildResponse Resp = Service.submit(std::move(R));
          if (!Resp.ok())
            Failures[C].push_back(Resp.Message);
          else if (Resp.Newick != WantNewick[Pick] ||
                   std::abs(Resp.Cost - WantCost[Pick]) > 1e-9)
            Failures[C].push_back("mismatch on matrix " +
                                  std::to_string(Pick));
        }
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (int C = 0; C < NumClients; ++C)
    EXPECT_TRUE(Failures[C].empty())
        << "client " << C << ": " << Failures[C].front();

  StatsSnapshot S = Service.stats();
  EXPECT_EQ(S.Accepted, static_cast<std::uint64_t>(NumClients) * Rounds * 3);
  EXPECT_EQ(S.Completed, S.Accepted);
  EXPECT_EQ(S.Failed, 0u);
  // 12 submissions per matrix and only the first can miss everywhere;
  // some overlap is guaranteed to hit one of the two cache layers.
  EXPECT_GT(S.WholeHits + S.BlockHits, 0u);
}

TEST(TreeService, RelabeledDuplicateHitsWholeCache) {
  DistanceMatrix M = uniformRandomMetric(12, 42);
  ServiceOptions Options;
  Options.NumWorkers = 2;
  TreeService Service(Options);

  BuildRequest First;
  First.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(First));
  ASSERT_TRUE(R1.ok()) << R1.Message;
  ASSERT_TRUE(R1.Exact); // only exact results are cached
  EXPECT_FALSE(R1.CacheHit);

  // The same metric under a different labeling: must be answered from
  // the whole-matrix cache without running a solver.
  std::vector<int> Perm(12);
  std::iota(Perm.begin(), Perm.end(), 0);
  std::reverse(Perm.begin(), Perm.end());
  BuildRequest Second;
  Second.Matrix = M.permuted(Perm);
  for (int I = 0; I < 12; ++I)
    Second.Matrix.setName(I, "relabeled_" + std::to_string(I));
  BuildResponse R2 = Service.submit(std::move(Second));
  ASSERT_TRUE(R2.ok()) << R2.Message;
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_NEAR(R2.Cost, R1.Cost, 1e-9);
  EXPECT_NE(R2.Newick.find("relabeled_3"), std::string::npos);

  std::optional<PhyloTree> Replayed = parseNewick(R2.Newick);
  ASSERT_TRUE(Replayed.has_value());
  EXPECT_EQ(Replayed->numLeaves(), 12);

  StatsSnapshot S = Service.stats();
  EXPECT_EQ(S.WholeHits, 1u);
  EXPECT_EQ(S.WholeMisses, 1u);
}

TEST(TreeService, CacheOptOutSolvesFresh) {
  DistanceMatrix M = uniformRandomMetric(10, 4);
  TreeService Service;
  BuildRequest First;
  First.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(First));
  ASSERT_TRUE(R1.ok());
  BuildRequest Second;
  Second.Matrix = M;
  Second.UseCache = false;
  BuildResponse R2 = Service.submit(std::move(Second));
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2.CacheHit);
  EXPECT_EQ(R2.BlockCacheHits, 0u);
  EXPECT_EQ(R2.Newick, R1.Newick); // still deterministic
}

TEST(TreeService, KnobsArePartOfTheCacheKey) {
  DistanceMatrix M = uniformRandomMetric(12, 8);
  TreeService Service;
  BuildRequest MaxMode;
  MaxMode.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(MaxMode));
  ASSERT_TRUE(R1.ok());

  BuildRequest AvgMode;
  AvgMode.Matrix = M;
  AvgMode.Mode = CondenseMode::Average;
  BuildResponse R2 = Service.submit(std::move(AvgMode));
  ASSERT_TRUE(R2.ok());
  // A different condense mode must not be answered from the Maximum
  // entry (costs may or may not differ; the hit flag must not lie).
  EXPECT_FALSE(R2.CacheHit);
}

TEST(TreeService, RejectsBadAndOversizedRequests) {
  ServiceOptions Options;
  Options.MaxSpecies = 32;
  TreeService Service(Options);

  BuildRequest Empty; // neither matrix nor generator
  EXPECT_EQ(Service.submit(std::move(Empty)).Error, ServiceError::BadMatrix);

  BuildRequest TooBig;
  TooBig.Generator = GeneratorKind::Uniform;
  TooBig.GenSpecies = 100;
  EXPECT_EQ(Service.submit(std::move(TooBig)).Error,
            ServiceError::BadRequest);

  BuildRequest Inline;
  Inline.Matrix = uniformRandomMetric(33, 1);
  EXPECT_EQ(Service.submit(std::move(Inline)).Error, ServiceError::TooLarge);

  BuildRequest Single;
  Single.Matrix = DistanceMatrix(1);
  BuildResponse R = Service.submit(std::move(Single));
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.Cost, 0.0);
}

TEST(TreeService, DeadlineExpiredIsAStructuredError) {
  // One worker, and a blocker in front that branches a large (but
  // budget-bounded) number of B&B nodes: by the time the worker reaches
  // the second job its 1ms deadline has long expired, which must yield
  // a structured error, not a stall or a silent heuristic answer.
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);

  BuildRequest Blocker;
  Blocker.Matrix = narrowBandMatrix(20, 3);
  Blocker.MaxExactBlockSize = 20;
  Blocker.NodeBudget = 400'000;
  Blocker.UseCache = false;
  std::future<BuildResponse> BlockerDone =
      Service.submitAsync(std::move(Blocker));

  // The queue is deadline-ordered, so a short-deadline job submitted
  // while the blocker is still *queued* would be popped first and solved
  // in time. Wait until the worker has dequeued the blocker — only then
  // does the doomed request actually sit behind a busy worker.
  while (Service.stats().QueueDepth > 0)
    std::this_thread::yield();

  BuildRequest Doomed;
  Doomed.Matrix = uniformRandomMetric(8, 1);
  Doomed.DeadlineMillis = 1;
  std::future<BuildResponse> DoomedDone =
      Service.submitAsync(std::move(Doomed));

  BuildResponse BlockerResp = BlockerDone.get();
  EXPECT_TRUE(BlockerResp.ok()) << BlockerResp.Message;
  BuildResponse DoomedResp = DoomedDone.get();
  EXPECT_EQ(DoomedResp.Error, ServiceError::DeadlineExpired);
  EXPECT_FALSE(DoomedResp.Message.empty());
  EXPECT_GE(Service.stats().DeadlineExpired, 1u);
}

TEST(TreeService, DeadlineCapsNodeBudget) {
  // A request with both a node budget and a deadline gets the tighter
  // of the two: the solver must never branch past its explicit budget.
  TreeService Service;
  BuildRequest R;
  R.Matrix = narrowBandMatrix(14, 9);
  R.MaxExactBlockSize = 14;
  R.NodeBudget = 1000;
  R.DeadlineMillis = 60'000;
  BuildResponse Resp = Service.submit(std::move(R));
  ASSERT_TRUE(Resp.ok()) << Resp.Message;
  EXPECT_LE(Resp.Branched, 1000u + 14);
}

TEST(TreeService, CleanShutdownWithJobsInFlight) {
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);

  std::vector<std::future<BuildResponse>> Futures;
  for (int I = 0; I < 6; ++I) {
    BuildRequest R;
    R.Matrix = narrowBandMatrix(14, static_cast<std::uint64_t>(I));
    R.MaxExactBlockSize = 14;
    R.NodeBudget = 50'000;
    Futures.push_back(Service.submitAsync(std::move(R)));
  }
  Service.stop();

  // Every admitted job must be answered: solved if a worker got to it,
  // failed with ShuttingDown otherwise — never a broken promise.
  int Solved = 0, Failed = 0;
  for (std::future<BuildResponse> &F : Futures) {
    BuildResponse R = F.get();
    if (R.ok())
      ++Solved;
    else {
      EXPECT_EQ(R.Error, ServiceError::ShuttingDown);
      ++Failed;
    }
  }
  EXPECT_EQ(Solved + Failed, 6);

  // Post-shutdown submissions are refused, not queued forever.
  BuildRequest Late;
  Late.Matrix = uniformRandomMetric(6, 1);
  EXPECT_EQ(Service.submit(std::move(Late)).Error,
            ServiceError::ShuttingDown);
  Service.stop(); // idempotent
}

TEST(TreeService, HandleDispatchesProtocolVerbs) {
  TreeService Service;
  Request Ping;
  Ping.V = Verb::Ping;
  EXPECT_TRUE(Service.handle(Ping).ok());

  Request Build = makeBuildRequest([] {
    BuildRequest R;
    R.Generator = GeneratorKind::Ultrametric;
    R.GenSpecies = 9;
    R.GenSeed = 5;
    return R;
  }());
  Response BuildResp = Service.handle(Build);
  ASSERT_TRUE(BuildResp.ok()) << BuildResp.Message;
  std::optional<PhyloTree> Tree = parseNewick(BuildResp.Build.Newick);
  ASSERT_TRUE(Tree.has_value());
  EXPECT_EQ(Tree->numLeaves(), 9);

  Request Stats;
  Stats.V = Verb::Stats;
  Response StatsResp = Service.handle(Stats);
  ASSERT_TRUE(StatsResp.ok());
  EXPECT_EQ(StatsResp.Stats.Accepted, 1u);
}

//===----------------------------------------------------------------------===//
// Service counters: per-service `Stats` and the process-wide registry
//===----------------------------------------------------------------------===//

namespace {

/// Two near-equidistant 5-taxon modules 80 apart. Each module is a
/// compact set, so a solve condenses into small exact blocks that a
/// perturbed copy of the matrix can replay from the block tier.
DistanceMatrix twoModuleMatrix() {
  DistanceMatrix A = uniformRandomMetric(5, 1, 18.0, 20.0);
  DistanceMatrix B = uniformRandomMetric(5, 2, 18.0, 20.0);
  DistanceMatrix M(10);
  for (int I = 0; I < 10; ++I)
    for (int J = I + 1; J < 10; ++J) {
      if (J < 5)
        M.set(I, J, A.at(I, J));
      else if (I >= 5)
        M.set(I, J, B.at(I - 5, J - 5));
      else
        M.set(I, J, 80.0);
    }
  return M;
}

BuildRequest buildOf(const DistanceMatrix &M) {
  BuildRequest R;
  R.Matrix = M;
  return R;
}

/// One `Stats` counter: its `StatsJson` key, its `StatsSnapshot` field
/// and the registry counter that counts the same events process-wide.
struct CounterTwin {
  const char *Key;
  std::uint64_t StatsSnapshot::*Field;
  const char *Metric;
};

const CounterTwin CounterTwins[] = {
    {"accepted", &StatsSnapshot::Accepted, "mutk_service_requests_total"},
    {"completed", &StatsSnapshot::Completed, "mutk_service_completed_total"},
    {"failed", &StatsSnapshot::Failed, "mutk_service_failed_total"},
    {"whole_hits", &StatsSnapshot::WholeHits, "mutk_cache_whole_hits_total"},
    {"whole_misses", &StatsSnapshot::WholeMisses,
     "mutk_cache_whole_misses_total"},
    {"block_hits", &StatsSnapshot::BlockHits, "mutk_block_cache_hits_total"},
    {"block_misses", &StatsSnapshot::BlockMisses,
     "mutk_block_cache_misses_total"},
    {"block_remote_hits", &StatsSnapshot::BlockRemoteHits,
     "mutk_block_cache_remote_hits_total"},
    {"incremental_applied", &StatsSnapshot::IncrementalApplied,
     "mutk_incremental_applied_total"},
    {"incremental_dirty", &StatsSnapshot::IncrementalDirty,
     "mutk_incremental_dirty_blocks_total"},
    {"incremental_clean", &StatsSnapshot::IncrementalClean,
     "mutk_incremental_clean_blocks_total"},
    {"deadline_expired", &StatsSnapshot::DeadlineExpired,
     "mutk_service_deadline_expired_total"},
    {"rejected", &StatsSnapshot::Rejected, "mutk_service_rejected_total"},
    {"shed", &StatsSnapshot::Shed, "mutk_qos_shed_total"},
    {"rate_limited", &StatsSnapshot::RateLimited,
     "mutk_qos_rate_limited_total"},
    {"tier_exact", &StatsSnapshot::TierExact, "mutk_qos_tier_exact_total"},
    {"tier_pipeline", &StatsSnapshot::TierPipeline,
     "mutk_qos_tier_pipeline_total"},
    {"tier_heuristic", &StatsSnapshot::TierHeuristic,
     "mutk_qos_tier_heuristic_total"},
    {"coalesced", &StatsSnapshot::Coalesced, "mutk_qos_coalesced_total"},
};

/// The unsigned value of \p Key in the `service` object of a StatsJson
/// answer, or -1 when the key is missing.
long long serviceJsonValue(const std::string &Json, const std::string &Key) {
  std::size_t Begin = Json.find("\"service\":{");
  std::size_t End = Json.find('}', Begin);
  if (Begin == std::string::npos || End == std::string::npos)
    return -1;
  std::string Section = Json.substr(Begin, End - Begin);
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Section.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::stoll(Section.substr(At + Needle.size()));
}

/// A registry counter's current value; an unregistered one reads 0.
std::uint64_t registryCounter(const std::string &Name) {
  for (const auto &[Metric, Value] :
       obs::MetricsRegistry::global().snapshot().Counters)
    if (Metric == Name)
      return Value;
  return 0;
}

} // namespace

// One worker walks a fixed script that moves every counter row a QoS +
// incremental service can move without a cluster. Pins `stats()` and the
// `service` section of StatsJson (latency quantiles aside).
TEST(ServiceStats, ScenarioCountsArePinned) {
  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.MaxSpecies = 30;
  Options.Incremental = true;
  Options.Qos.Enabled = true;
  TreeService Service(Options);

  // Shed: no tier fits a 2000-taxon solve into 1 ms.
  BuildRequest Hopeless;
  Hopeless.Generator = GeneratorKind::Uniform;
  Hopeless.GenSpecies = 2000;
  Hopeless.DeadlineMillis = 1;
  EXPECT_EQ(Service.submit(Hopeless).Error, ServiceError::Shed);

  // A cold solve, its whole-matrix replay, and an incremental
  // perturbation that replays the clean blocks.
  DistanceMatrix X = twoModuleMatrix();
  BuildResponse Cold = Service.submit(buildOf(X));
  ASSERT_TRUE(Cold.ok()) << Cold.Message;
  EXPECT_TRUE(Cold.Exact);
  EXPECT_TRUE(Service.submit(buildOf(X)).CacheHit);
  DistanceMatrix Near = X;
  Near.set(0, 1, X.at(0, 1) * 1.05);
  BuildRequest Perturbed = buildOf(Near);
  Perturbed.Incremental = true;
  EXPECT_TRUE(Service.submit(Perturbed).IncrementalApplied);

  // Failed: over the service's species cap.
  EXPECT_EQ(Service.submit(buildOf(uniformRandomMetric(31, 3))).Error,
            ServiceError::TooLarge);

  // While a budgeted solve holds the only worker, an identical request
  // coalesces onto it and a warm request with a 1 ms deadline expires in
  // the queue.
  BuildRequest Slow = buildOf(narrowBandMatrix(20, 3));
  Slow.MaxExactBlockSize = 20;
  Slow.NodeBudget = 100'000;
  Slow.UseCache = false;
  std::future<BuildResponse> Leader = Service.submitAsync(Slow);
  while (Service.stats().QueueDepth > 0)
    std::this_thread::yield();
  std::future<BuildResponse> Follower = Service.submitAsync(Slow);
  BuildRequest Late = buildOf(X);
  Late.DeadlineMillis = 1;
  std::future<BuildResponse> Expired = Service.submitAsync(Late);
  EXPECT_TRUE(Leader.get().ok());
  EXPECT_TRUE(Follower.get().Coalesced);
  EXPECT_EQ(Expired.get().Error, ServiceError::DeadlineExpired);

  // Rejected: submitted after shutdown.
  Service.stop();
  EXPECT_EQ(Service.submit(buildOf(X)).Error, ServiceError::ShuttingDown);

  const std::pair<std::string, std::uint64_t> Pinned[] = {
      {"accepted", 7},           {"completed", 4},
      {"failed", 2},             {"whole_hits", 1},
      {"whole_misses", 2},       {"block_hits", 4},
      {"block_misses", 6},       {"block_remote_hits", 0},
      {"incremental_applied", 1}, {"incremental_dirty", 1},
      {"incremental_clean", 4},  {"deadline_expired", 1},
      {"rejected", 2},           {"shed", 1},
      {"rate_limited", 0},       {"tier_exact", 7},
      {"tier_pipeline", 0},      {"tier_heuristic", 0},
      {"coalesced", 1},          {"queue_depth", 0},
      {"cache_entries", 8},
  };
  auto pinned = [&](const std::string &Key) -> std::uint64_t {
    for (const auto &[Name, Value] : Pinned)
      if (Name == Key)
        return Value;
    ADD_FAILURE() << "no pinned value for " << Key;
    return 0;
  };
  StatsSnapshot S = Service.stats();
  std::string Json = Service.statsJson();
  for (const CounterTwin &T : CounterTwins)
    EXPECT_EQ(S.*T.Field, pinned(T.Key)) << T.Key;
  EXPECT_EQ(S.QueueDepth, pinned("queue_depth"));
  EXPECT_EQ(S.CacheEntries, pinned("cache_entries"));
  for (const auto &[Key, Value] : Pinned)
    EXPECT_EQ(serviceJsonValue(Json, Key), static_cast<long long>(Value))
        << Key;
}

// `Stats` is per TreeService, the registry per process: two services in
// one process each count only their own requests, and every registry
// twin moves by their sum.
TEST(ServiceStats, EachServiceCountsItsOwnRequestsAndTheRegistryTheSum) {
  std::vector<std::uint64_t> Before;
  for (const CounterTwin &T : CounterTwins)
    Before.push_back(registryCounter(T.Metric));

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Incremental = true;
  Options.Qos.Enabled = true;
  TreeService A(Options);
  TreeService B(Options);
  DistanceMatrix X = twoModuleMatrix();
  DistanceMatrix Near = X;
  Near.set(0, 1, X.at(0, 1) * 1.05);
  BuildRequest Perturbed = buildOf(Near);
  Perturbed.Incremental = true;

  ASSERT_TRUE(A.submit(buildOf(X)).ok());
  EXPECT_TRUE(A.submit(buildOf(X)).CacheHit);
  EXPECT_TRUE(A.submit(Perturbed).IncrementalApplied);
  // B has its own cache: the same matrix misses there.
  EXPECT_FALSE(B.submit(buildOf(X)).CacheHit);
  A.stop();
  B.stop();
  EXPECT_EQ(B.submit(buildOf(X)).Error, ServiceError::ShuttingDown);

  StatsSnapshot SA = A.stats();
  StatsSnapshot SB = B.stats();
  EXPECT_EQ(SA.Accepted, 3u);
  EXPECT_EQ(SA.WholeHits, 1u);
  EXPECT_EQ(SA.WholeMisses, 2u);
  EXPECT_EQ(SA.IncrementalApplied, 1u);
  EXPECT_EQ(SA.Rejected, 0u);
  EXPECT_EQ(SB.Accepted, 1u);
  EXPECT_EQ(SB.WholeHits, 0u);
  EXPECT_EQ(SB.WholeMisses, 1u);
  EXPECT_EQ(SB.IncrementalApplied, 0u);
  EXPECT_EQ(SB.Rejected, 1u);
  for (std::size_t I = 0; I < std::size(CounterTwins); ++I) {
    const CounterTwin &T = CounterTwins[I];
    EXPECT_EQ(registryCounter(T.Metric) - Before[I], SA.*T.Field + SB.*T.Field)
        << T.Metric;
  }
}

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

namespace {

/// Everything \p Fd yields until EOF, as lower-case hex.
std::string readHexToEof(int Fd) {
  std::string Hex;
  std::uint8_t Buffer[256];
  for (;;) {
    ssize_t Got = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (Got <= 0)
      return Hex;
    for (ssize_t I = 0; I < Got; ++I) {
      char Digits[3];
      std::snprintf(Digits, sizeof(Digits), "%02x", Buffer[I]);
      Hex += Digits;
    }
  }
}

/// A raw client socket connected to the Unix socket at \p Path; a
/// blocked read gives up after five seconds.
int connectRawUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  timeval Timeout{5, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

// The client port's frame is a u32 little-endian payload length, then
// the payload. These bytes must not move when the transport does.
TEST(SocketFrame, ClientPortBytesArePinned) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ASSERT_TRUE(writeFrame(Fds[1], {}));
  ASSERT_TRUE(writeFrame(Fds[1], {0x01, 0x02, 0x03}));
  ::close(Fds[1]);
  EXPECT_EQ(readHexToEof(Fds[0]), "00000000"
                                  "03000000010203");
  ::close(Fds[0]);
}

// An oversized length prefix and a close in mid-frame each drop their
// own connection without an answer; the server keeps serving others.
TEST(SocketServer, FramingErrorsDropOnlyThatConnection) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_framing_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  const std::uint32_t Huge = MaxFrameBytes + 1;
  const std::uint8_t Oversized[4] = {
      static_cast<std::uint8_t>(Huge), static_cast<std::uint8_t>(Huge >> 8),
      static_cast<std::uint8_t>(Huge >> 16),
      static_cast<std::uint8_t>(Huge >> 24)};
  // Announces 100 bytes and delivers 10.
  std::uint8_t Truncated[4 + 10] = {100, 0, 0, 0};
  struct Case {
    const char *Name;
    const std::uint8_t *Bytes;
    std::size_t Size;
  };
  for (const Case &C : {Case{"oversized", Oversized, sizeof(Oversized)},
                        Case{"truncated", Truncated, sizeof(Truncated)}}) {
    int Fd = connectRawUnix(Path);
    ASSERT_GE(Fd, 0) << C.Name;
    ASSERT_EQ(::send(Fd, C.Bytes, C.Size, MSG_NOSIGNAL),
              static_cast<ssize_t>(C.Size))
        << C.Name;
    ::shutdown(Fd, SHUT_WR);
    // The server closes without writing anything back.
    EXPECT_EQ(readHexToEof(Fd), "") << C.Name;
    ::close(Fd);
  }

  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path, &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  Server.stop();
  Service.stop();
}

// Each accept joins the connection threads that finished before it, so a
// daemon that serves one connection per request does not keep a finished
// thread per request until it stops.
TEST(SocketListener, AcceptJoinsFinishedConnectionThreads) {
  SocketListener Listener;
  std::string Path = testing::TempDir() + "mutk_reap_test.sock";
  std::string Error;
  ASSERT_TRUE(Listener.listenUnix(Path, &Error)) << Error;
  std::atomic<int> Served{0};
  Listener.start([&Served](int Fd) {
    char Byte;
    while (::recv(Fd, &Byte, 1, 0) > 0) {
    }
    Served.fetch_add(1);
  });
  constexpr int Connections = 64;
  for (int I = 1; I <= Connections; ++I) {
    int Fd = connectUnixSocket(Path, &Error);
    ASSERT_GE(Fd, 0) << Error;
    ::close(Fd);
    // One connection after another: the next opens once this handler is
    // done.
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Served.load() < I && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(Served.load(), I);
  }
  // The last connection's thread, plus at worst a few that had not yet
  // marked themselves finished when the accept after them ran.
  EXPECT_LE(Listener.connectionThreads(), 4u);
  Listener.stop();
  EXPECT_EQ(Listener.connectionThreads(), 0u);
}

TEST(SocketServer, UnixSocketEndToEnd) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  TreeService Service(Options);
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_service_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path, &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;

  BuildRequest R;
  R.Matrix = uniformRandomMetric(10, 6);
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  ASSERT_TRUE(Resp->ok()) << Resp->Message;
  PipelineResult Direct =
      buildCompactSetTree(R.Matrix, defaultPipelineOptions());
  EXPECT_EQ(Resp->Newick, toNewick(Direct.Tree));
  EXPECT_NEAR(Resp->Cost, Direct.Cost, 1e-9);

  std::optional<StatsSnapshot> S = Client.stats(&Error);
  ASSERT_TRUE(S.has_value()) << Error;
  EXPECT_GE(S->Accepted, 1u);

  EXPECT_TRUE(Client.shutdownServer(&Error)) << Error;
  Server.waitForShutdown();
  Server.stop();
  Service.stop();
}

// Regression: a failed Build echoes the Build verb with no body; the
// client must surface the outer error code instead of returning a
// default-constructed (silently successful) BuildResponse.
TEST(SocketServer, BuildErrorsCrossTheWire) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_service_err.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path, &Error)) << Error;

  BuildRequest R;
  R.Generator = GeneratorKind::Uniform;
  R.GenSpecies = 1 << 20;
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  EXPECT_EQ(Resp->Error, ServiceError::BadRequest);
  EXPECT_FALSE(Resp->Message.empty());

  Server.stop();
  Service.stop();
}

TEST(SocketServer, TcpEphemeralPortEndToEnd) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Error;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, &Error)) << Error;
  ASSERT_GT(Server.port(), 0);
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectTcp("127.0.0.1", Server.port(), &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  BuildRequest R;
  R.Generator = GeneratorKind::Uniform;
  R.GenSpecies = 8;
  R.GenSeed = 2;
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  EXPECT_TRUE(Resp->ok()) << Resp->Message;
  Client.disconnect();
  Server.stop();
  Service.stop();
}

// Each frame leaves in one write and both ends set TCP_NODELAY, so a
// kept-alive TCP connection answers every request at once. A frame sent
// as two writes without TCP_NODELAY waits for the peer's delayed ACK of
// its prefix: about 88 ms per round trip after the first.
TEST(SocketServer, TcpKeepAliveRequestsDoNotStall) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Error;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, &Error)) << Error;
  Server.start();
  ServiceClient Client;
  ASSERT_TRUE(Client.connectTcp("127.0.0.1", Server.port(), &Error)) << Error;
  const auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < 20; ++I)
    ASSERT_TRUE(Client.ping(&Error)) << Error;
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(400));
  Client.disconnect();
  Server.stop();
  Service.stop();
}

TEST(SocketServer, AnswersGarbageWithBadFrame) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_badframe_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // A well-framed payload that does not decode as any request.
  ASSERT_TRUE(writeFrame(Fd, {0xde, 0xad, 0xbe, 0xef}));
  std::vector<std::uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameError::None);
  std::optional<Response> Resp = decodeResponse(Payload);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->Error, ServiceError::BadFrame);
  ::close(Fd);

  Server.stop();
  Service.stop();
}

TEST(SocketServer, InfiniteDistanceIsABadFrameNotACrash) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_inf_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // A 6-taxon Build request whose first distance, (0, 1), is +inf. It
  // sits right after the names.
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(6, 3);
  std::vector<std::uint8_t> Frame = encodeRequest(makeBuildRequest(Build));
  std::size_t Offset = 1 + 4 + 1 + 4;
  for (const std::string &Name : Build.Matrix.names())
    Offset += 4 + Name.size();
  const double Inf = std::numeric_limits<double>::infinity();
  std::memcpy(Frame.data() + Offset, &Inf, sizeof(Inf));
  ASSERT_TRUE(writeFrame(Fd, Frame));
  std::vector<std::uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameError::None);
  std::optional<Response> Resp = decodeResponse(Payload);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->Error, ServiceError::BadFrame);

  // The connection survives: a Ping on it is answered.
  Request Ping;
  Ping.V = Verb::Ping;
  ASSERT_TRUE(writeFrame(Fd, encodeRequest(Ping)));
  ASSERT_EQ(readFrame(Fd, Payload), FrameError::None);
  Resp = decodeResponse(Payload);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->V, Verb::Ping);
  EXPECT_TRUE(Resp->ok());
  ::close(Fd);

  Server.stop();
  Service.stop();
}

TEST(SocketServer, StopWithConnectedClientDoesNotHang) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_stop_test.sock";
  ASSERT_TRUE(Server.listenUnix(Path));
  Server.start();
  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path));
  ASSERT_TRUE(Client.ping());
  // Client stays connected and idle; stop() must shut the connection
  // down rather than wait for the client to hang up.
  Server.stop();
  Service.stop();
  EXPECT_FALSE(Client.ping());
}

TEST(ClientBackoff, DoublesAndSaturatesAtCap) {
  EXPECT_EQ(nextBackoffMillis(100, 5000), 200);
  EXPECT_EQ(nextBackoffMillis(200, 5000), 400);
  EXPECT_EQ(nextBackoffMillis(2499, 5000), 4998);
  // At or past half the cap, doubling would overshoot: saturate.
  EXPECT_EQ(nextBackoffMillis(2500, 5000), 5000);
  EXPECT_EQ(nextBackoffMillis(5000, 5000), 5000);
  EXPECT_EQ(nextBackoffMillis(9999, 5000), 5000);
}

TEST(ClientBackoff, NeverOverflows) {
  // A huge current delay (e.g. user-supplied --backoff-ms near LONG_MAX)
  // must clamp to the cap, not wrap to a negative sleep. The naive
  // `min(Current * 2, Cap)` is undefined behavior here.
  constexpr long Cap = 5000;
  EXPECT_EQ(nextBackoffMillis(std::numeric_limits<long>::max(), Cap), Cap);
  EXPECT_EQ(nextBackoffMillis(std::numeric_limits<long>::max() / 2, Cap), Cap);
  // Degenerate inputs stay positive.
  EXPECT_EQ(nextBackoffMillis(0, 5000), 1);
  EXPECT_GT(nextBackoffMillis(1, 5000), 0);
}

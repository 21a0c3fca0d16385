//===- bench/ledger/Stats.h - Order statistics for the ledger ---*- C++ -*-===//
///
/// \file
/// The few order statistics the ledger reports: interpolated percentiles
/// of one run's samples, quartiles across runs (computed exactly like
/// Python's `statistics.quantiles(values, n=4)`, so the numbers the
/// ledger prints match a script's), and the rule that picks the highest
/// percentile a sample can honestly support.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_STATS_H
#define MUTK_BENCH_LEDGER_STATS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ledger {

/// The \p P-th percentile (0..100) of \p Values, interpolating linearly
/// between the closest ranks; 0 for an empty sample.
inline double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = P / 100.0 * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

/// First quartile, median and third quartile.
struct Quartiles {
  double Q1 = 0.0;
  double Median = 0.0;
  double Q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles; an empty sample gives zeros.
inline Quartiles quartiles(std::vector<double> Values) {
  Quartiles Out;
  const std::size_t N = Values.size();
  if (N == 0)
    return Out;
  std::sort(Values.begin(), Values.end());
  if (N == 1) {
    Out.Q1 = Out.Median = Out.Q3 = Values[0];
    return Out;
  }
  const std::size_t M = N + 1;
  double Cut[3];
  for (std::size_t I = 1; I <= 3; ++I) {
    std::size_t J = std::clamp<std::size_t>(I * M / 4, 1, N - 1);
    double Delta = static_cast<double>(I * M) - static_cast<double>(J * 4);
    Cut[I - 1] = (Values[J - 1] * (4.0 - Delta) + Values[J] * Delta) / 4.0;
  }
  Out.Q1 = Cut[0];
  Out.Median = Cut[1];
  Out.Q3 = Cut[2];
  return Out;
}

/// The highest of the reported tail percentiles (99.9, 99, 95, 90) that
/// leaves at least ten of \p Samples beyond it, or 0 when even p90 would
/// rest on fewer than ten: a tail read from fewer samples is one outlier.
inline double tailPercentile(std::size_t Samples) {
  for (double P : {99.9, 99.0, 95.0, 90.0})
    if (static_cast<double>(Samples) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return 0.0;
}

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_STATS_H

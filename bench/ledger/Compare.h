//===- bench/ledger/Compare.h - Ledger TSV rows and --compare ---*- C++ -*-===//
///
/// \file
/// The flat ledger every run writes (`ledger.tsv`) and the comparison of
/// two sets of such runs. One row per run x workload x metric:
///
///   run  workload  metric  unit  better  bound  kind  value
///
/// `kind` is `timed` (wall clock and everything derived from it: judged
/// against a noise band) or `exact` (a deterministic count from the
/// traced replay: must repeat bit for bit). `bound` is the share of the
/// base median a timed metric may worsen by before it counts as a
/// regression (0 for metrics without a bound). Lines starting with `#`
/// carry run metadata (machine, compiler, build flavor) and are skipped.
/// Several runs' files concatenate into one set.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_COMPARE_H
#define MUTK_BENCH_LEDGER_COMPARE_H

#include "Stats.h"

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace ledger {

struct LedgerRow {
  std::string Run;
  std::string Workload;
  std::string Metric;
  std::string Unit;
  /// `lower` or `higher`.
  std::string Better;
  double Bound = 0.0;
  bool Exact = false;
  double Value = 0.0;
};

void writeLedgerRow(std::ostream &OS, const LedgerRow &Row);

/// Parses ledger rows; nullopt (with \p Error naming the line) on a
/// malformed one.
std::optional<std::vector<LedgerRow>> readLedger(std::istream &IS,
                                                 std::string *Error);

enum class VerdictKind {
  Ok,         ///< Within the bound (or an exact count that repeated).
  Improved,   ///< Base spread too wide, but every new run beats every base.
  Unresolved, ///< The base's own quartile spread exceeds the bound.
  Regressed,  ///< Median worse than the base median by more than the bound.
  Drift,      ///< An exact count differs between or within the sets.
  Info,       ///< No bound, or only the new set has it: never judged.
  Missing,    ///< The base has it and the new set does not.
};

const char *verdictName(VerdictKind Kind);

struct Verdict {
  std::string Workload;
  std::string Metric;
  std::string Unit;
  Quartiles Base;
  Quartiles New;
  std::size_t BaseRuns = 0;
  std::size_t NewRuns = 0;
  /// (new - base) / base median, signed (0 when the base median is 0).
  double Delta = 0.0;
  /// Base quartile spread as a share of its median.
  double BaseSpread = 0.0;
  /// The row's bound, or more where an absolute floor applies (setup_s:
  /// never less than 0.05 s over the base median).
  double Bound = 0.0;
  VerdictKind Kind = VerdictKind::Info;
};

/// Judges every workload x metric present in either set.
std::vector<Verdict> compareLedgers(const std::vector<LedgerRow> &Base,
                                    const std::vector<LedgerRow> &New);

/// True when any verdict is a regression, an exact-count drift, or a
/// metric the base measured and the new set lacks (a set of untraced
/// runs, or one that skips a workload, cannot pass as a traced one).
bool anyFailure(const std::vector<Verdict> &Verdicts);

void printVerdicts(std::ostream &OS, const std::vector<Verdict> &Verdicts);

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_COMPARE_H

//===- bench/ledger/Run.h - One ledger run of one workload ------*- C++ -*-===//
///
/// \file
/// A run: seeded inputs and golden answers, repeated daemon set-up, the
/// closed-loop measured phase against a real `mutkd`, verification of
/// every answer, and (with tracing) the in-process replay that splits
/// request time by layer. Writes `ledger.tsv`, `ledger.json` and, when
/// traced, `spans.tsv` into a fresh run directory, prints a table, and
/// ends standard output with one JSON line for scripts.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_RUN_H
#define MUTK_BENCH_LEDGER_RUN_H

#include <cstdint>
#include <string>

namespace ledger {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Minimum length of the measured phase (it also runs to at least
  /// 1000 requests and to the end of a pass over the inputs).
  int Seconds = 10;
  bool Trace = false;
  /// Run directories are created under this one.
  std::string OutDir;
  /// First column of every ledger row (groups runs into sets).
  std::string Label = "run";
};

/// \returns the process exit code: 0 when every answer checked out.
int runWorkload(const RunConfig &Config);

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_RUN_H

//===- bench/ledger/mutk_ledger.cpp - The repository benchmark ------------===//
//
// Usage:
//   mutk_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR] [--label L]
//   mutk_ledger --compare BASE[#LABEL] NEW[#LABEL]
//   mutk_ledger --list
//
// A run drives a real mutkd through one workload and prints every metric
// (see README.md in this directory); the last line of standard output is
// one JSON object. --compare judges two sets of runs' ledger.tsv rows
// (concatenated files; `#LABEL` keeps only rows of that run label) and
// exits nonzero on a regression beyond a metric's bound or on any drift
// in an exact count.
//
//===----------------------------------------------------------------------===//

#include "Compare.h"
#include "Inputs.h"
#include "Run.h"

#include "obs/Log.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

using namespace ledger;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mutk_ledger --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1]\n"
               "                   [--out DIR] [--label L]\n"
               "       mutk_ledger --compare BASE[#LABEL] NEW[#LABEL]\n"
               "       mutk_ledger --list\n");
  return 2;
}

/// Reads `PATH` or `PATH#LABEL` (rows of that run label only).
bool loadSet(const std::string &Spec, std::vector<LedgerRow> &Rows) {
  std::size_t Hash = Spec.rfind('#');
  std::string Path = Hash == std::string::npos ? Spec : Spec.substr(0, Hash);
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "mutk_ledger: cannot read " << Path << "\n";
    return false;
  }
  std::string Error;
  std::optional<std::vector<LedgerRow>> All = readLedger(In, &Error);
  if (!All) {
    std::cerr << "mutk_ledger: " << Path << ": " << Error << "\n";
    return false;
  }
  for (LedgerRow &R : *All)
    if (Hash == std::string::npos || R.Run == Spec.substr(Hash + 1))
      Rows.push_back(std::move(R));
  if (Rows.empty()) {
    std::cerr << "mutk_ledger: no ledger rows in " << Spec << "\n";
    return false;
  }
  return true;
}

bool parseNumber(const char *Text, long long Min, long long Max,
                 long long &Out) {
  char *End = nullptr;
  Out = std::strtoll(Text, &End, 10);
  return *Text && End && *End == '\0' && Out >= Min && Out <= Max;
}

} // namespace

int main(int argc, char **argv) {
  // The replay runs the layers in this process; keep their info records
  // (compactions, recoveries) out of the ledger's output.
  mutk::obs::setLogLevel(mutk::obs::LogLevel::Warn);
  RunConfig Config;
  Config.OutDir = MUTK_LEDGER_OUT;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    long long N = 0;
    if (Arg == "--list") {
      for (const WorkloadSpec &W : workloads())
        std::printf("%-16s %s\n", W.Name, W.Why);
      return 0;
    }
    if (Arg == "--compare") {
      if (argc != I + 3)
        return usage();
      std::vector<LedgerRow> Base, New;
      if (!loadSet(argv[I + 1], Base) || !loadSet(argv[I + 2], New))
        return 2;
      std::vector<Verdict> Verdicts = compareLedgers(Base, New);
      printVerdicts(std::cout, Verdicts);
      return anyFailure(Verdicts) ? 1 : 0;
    }
    if (!V)
      return usage();
    ++I;
    if (Arg == "--workload")
      Config.Workload = V;
    else if (Arg == "--seed" && parseNumber(V, 0, INT64_MAX, N))
      Config.Seed = static_cast<std::uint64_t>(N);
    else if (Arg == "--seconds" && parseNumber(V, 1, 3600, N))
      Config.Seconds = static_cast<int>(N);
    else if (Arg == "--trace" && parseNumber(V, 0, 1, N))
      Config.Trace = N == 1;
    else if (Arg == "--out")
      Config.OutDir = V;
    else if (Arg == "--label" && std::strpbrk(V, "\t\n#") == nullptr)
      Config.Label = V;
    else
      return usage();
  }
  if (Config.Workload.empty())
    return usage();
  return runWorkload(Config);
}

//===- bench/ledger/Compare.cpp - Ledger TSV rows and --compare -----------===//

#include "Compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

using namespace ledger;

void ledger::writeLedgerRow(std::ostream &OS, const LedgerRow &Row) {
  char Value[64];
  std::snprintf(Value, sizeof(Value), "%.17g", Row.Value);
  char Bound[32];
  std::snprintf(Bound, sizeof(Bound), "%g", Row.Bound);
  OS << Row.Run << '\t' << Row.Workload << '\t' << Row.Metric << '\t'
     << Row.Unit << '\t' << Row.Better << '\t' << Bound << '\t'
     << (Row.Exact ? "exact" : "timed") << '\t' << Value << '\n';
}

std::optional<std::vector<LedgerRow>> ledger::readLedger(std::istream &IS,
                                                         std::string *Error) {
  std::vector<LedgerRow> Rows;
  std::string Line;
  int LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> Fields;
    std::stringstream SS(Line);
    std::string Field;
    while (std::getline(SS, Field, '\t'))
      Fields.push_back(Field);
    auto number = [](const std::string &Text, double &Out) {
      char *End = nullptr;
      Out = std::strtod(Text.c_str(), &End);
      return !Text.empty() && End && *End == '\0' && std::isfinite(Out);
    };
    LedgerRow Row;
    bool Ok = Fields.size() == 8;
    if (Ok) {
      Row.Run = Fields[0];
      Row.Workload = Fields[1];
      Row.Metric = Fields[2];
      Row.Unit = Fields[3];
      Row.Better = Fields[4];
      Ok = (Row.Better == "lower" || Row.Better == "higher") &&
           number(Fields[5], Row.Bound) && Row.Bound >= 0.0 &&
           (Fields[6] == "exact" || Fields[6] == "timed") &&
           number(Fields[7], Row.Value);
      Row.Exact = Fields[6] == "exact";
    }
    if (!Ok) {
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": malformed ledger row";
      return std::nullopt;
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

const char *ledger::verdictName(VerdictKind Kind) {
  switch (Kind) {
  case VerdictKind::Ok:
    return "ok";
  case VerdictKind::Improved:
    return "improved";
  case VerdictKind::Unresolved:
    return "unresolved";
  case VerdictKind::Regressed:
    return "REGRESSED";
  case VerdictKind::Drift:
    return "DRIFT";
  case VerdictKind::Info:
    return "info";
  case VerdictKind::Missing:
    return "MISSING";
  }
  return "?";
}

namespace {

/// Metrics whose bound is never tighter than an absolute amount, in the
/// metric's unit: `setup_s` is a few milliseconds of process start on the
/// cold workloads, where a share of the median is scheduler noise.
struct AbsoluteFloor {
  const char *Metric;
  double Value;
};
constexpr AbsoluteFloor Floors[] = {{"setup_s", 0.05}};

struct Series {
  const LedgerRow *First = nullptr;
  std::vector<double> Base;
  std::vector<double> New;
};

Verdict judge(const Series &S) {
  const LedgerRow &R = *S.First;
  Verdict V;
  V.Workload = R.Workload;
  V.Metric = R.Metric;
  V.Unit = R.Unit;
  V.Bound = R.Bound;
  V.BaseRuns = S.Base.size();
  V.NewRuns = S.New.size();
  V.Base = quartiles(S.Base);
  V.New = quartiles(S.New);
  if (V.Base.Median != 0.0) {
    V.Delta = (V.New.Median - V.Base.Median) / V.Base.Median;
    V.BaseSpread = (V.Base.Q3 - V.Base.Q1) / std::fabs(V.Base.Median);
    for (const AbsoluteFloor &F : Floors)
      if (R.Bound > 0.0 && R.Metric == F.Metric)
        V.Bound = std::max(V.Bound, F.Value / std::fabs(V.Base.Median));
  }
  if (S.Base.empty()) {
    // Only the new set measures it: a metric added since the base.
    V.Kind = VerdictKind::Info;
    return V;
  }
  if (S.New.empty()) {
    V.Kind = VerdictKind::Missing;
    return V;
  }
  if (R.Exact) {
    bool Same = true;
    for (const std::vector<double> *Side : {&S.Base, &S.New})
      for (double X : *Side)
        Same = Same && X == S.Base.front();
    V.Kind = Same ? VerdictKind::Ok : VerdictKind::Drift;
    return V;
  }
  if (V.Bound <= 0.0) {
    V.Kind = VerdictKind::Info;
    return V;
  }
  const bool LowerIsBetter = R.Better == "lower";
  double Worse = LowerIsBetter ? V.Delta : -V.Delta;
  if (V.BaseSpread > V.Bound) {
    // The base cannot resolve a change this small. The one exception the
    // method allows: every new run beats every base run.
    bool AllBetter = true;
    for (double N : S.New)
      for (double B : S.Base)
        AllBetter = AllBetter && (LowerIsBetter ? N < B : N > B);
    V.Kind = AllBetter ? VerdictKind::Improved : VerdictKind::Unresolved;
    return V;
  }
  V.Kind = Worse > V.Bound ? VerdictKind::Regressed : VerdictKind::Ok;
  return V;
}

} // namespace

std::vector<Verdict> ledger::compareLedgers(const std::vector<LedgerRow> &Base,
                                            const std::vector<LedgerRow> &New) {
  std::map<std::pair<std::string, std::string>, Series> All;
  for (const LedgerRow &R : Base) {
    Series &S = All[{R.Workload, R.Metric}];
    if (!S.First)
      S.First = &R;
    S.Base.push_back(R.Value);
  }
  for (const LedgerRow &R : New) {
    Series &S = All[{R.Workload, R.Metric}];
    if (!S.First)
      S.First = &R;
    S.New.push_back(R.Value);
  }
  std::vector<Verdict> Out;
  for (const auto &[Key, S] : All)
    Out.push_back(judge(S));
  return Out;
}

bool ledger::anyFailure(const std::vector<Verdict> &Verdicts) {
  for (const Verdict &V : Verdicts)
    if (V.Kind == VerdictKind::Regressed || V.Kind == VerdictKind::Drift ||
        V.Kind == VerdictKind::Missing)
      return true;
  return false;
}

void ledger::printVerdicts(std::ostream &OS,
                           const std::vector<Verdict> &Verdicts) {
  char Line[400];
  std::snprintf(Line, sizeof(Line),
                "%-15s %-33s %-5s %11s %11s %11s %11s %11s %11s %8s %7s "
                "%5s  %s\n",
                "workload", "metric", "unit", "base_q1", "base_med",
                "base_q3", "new_q1", "new_med", "new_q3", "delta", "spread",
                "bound", "verdict (runs base/new)");
  OS << Line;
  for (const Verdict &V : Verdicts) {
    std::snprintf(Line, sizeof(Line),
                  "%-15s %-33s %-5s %11.5g %11.5g %11.5g %11.5g %11.5g "
                  "%11.5g %+7.2f%% %6.2f%% %4.0f%%  %s (%zu/%zu)\n",
                  V.Workload.c_str(), V.Metric.c_str(), V.Unit.c_str(),
                  V.Base.Q1, V.Base.Median, V.Base.Q3, V.New.Q1,
                  V.New.Median, V.New.Q3, 100.0 * V.Delta,
                  100.0 * V.BaseSpread, 100.0 * V.Bound, verdictName(V.Kind),
                  V.BaseRuns, V.NewRuns);
    OS << Line;
  }
}

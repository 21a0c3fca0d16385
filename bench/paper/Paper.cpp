//===- bench/paper/Paper.cpp - Cell files and their comparison ------------===//

#include "Paper.h"

#include <charconv>
#include <cstdlib>
#include <map>

using namespace paper;

namespace {

std::string keyOf(const Cell &C) {
  return C.Table + '\t' + C.Row + '\t' + C.Column;
}

std::string shortest(double Value) {
  char Buf[32];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  return std::string(Buf, R.ptr);
}

/// Exact cells by key; a key seen twice is reported in \p Diffs.
std::map<std::string, double> byKey(const std::vector<Cell> &Cells,
                                    const char *Source,
                                    std::vector<std::string> &Diffs) {
  std::map<std::string, double> Out;
  for (const Cell &C : Cells)
    if (C.Exact && !Out.emplace(keyOf(C), C.Value).second)
      Diffs.push_back(keyOf(C) + ": recorded twice in " + Source);
  return Out;
}

} // namespace

void paper::writeCells(std::ostream &Out, const std::vector<Cell> &Cells) {
  for (const Cell &C : Cells)
    if (C.Exact)
      Out << keyOf(C) << '\t' << shortest(C.Value) << '\n';
}

bool paper::readCells(std::istream &In, std::vector<Cell> &Cells,
                      std::string &Error) {
  std::string Line;
  for (int LineNo = 1; std::getline(In, Line); ++LineNo) {
    std::vector<std::string> Fields;
    std::size_t Start = 0;
    for (std::size_t Tab; (Tab = Line.find('\t', Start)) != std::string::npos;
         Start = Tab + 1)
      Fields.push_back(Line.substr(Start, Tab - Start));
    Fields.push_back(Line.substr(Start));
    char *End = nullptr;
    double Value = Fields.size() == 4 ? std::strtod(Fields[3].c_str(), &End)
                                      : 0.0;
    if (Fields.size() != 4 || Fields[3].empty() || *End != '\0') {
      Error = "line " + std::to_string(LineNo) + ": not 'table\\trow\\t"
              "column\\tvalue': " + Line;
      return false;
    }
    Cells.push_back({Fields[0], Fields[1], Fields[2], Value, true});
  }
  return true;
}

std::vector<std::string> paper::diffCells(const std::vector<Cell> &Computed,
                                          const std::vector<Cell> &Expected) {
  std::vector<std::string> Diffs;
  std::map<std::string, double> Want = byKey(Expected, "expected", Diffs);
  std::map<std::string, double> Got = byKey(Computed, "computed", Diffs);
  for (const auto &[Key, Value] : Got) {
    auto It = Want.find(Key);
    if (It == Want.end())
      Diffs.push_back(Key + ": computed " + shortest(Value) +
                      ", not in expected");
    else if (It->second != Value)
      Diffs.push_back(Key + ": computed " + shortest(Value) + ", expected " +
                      shortest(It->second));
  }
  for (const auto &[Key, Value] : Want)
    if (!Got.count(Key))
      Diffs.push_back(Key + ": expected " + shortest(Value) +
                      ", not computed");
  return Diffs;
}

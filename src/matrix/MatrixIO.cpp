//===- matrix/MatrixIO.cpp - Distance-matrix text format ------------------===//

#include "matrix/MatrixIO.h"

#include "support/Audit.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace mutk;

void mutk::writeMatrix(std::ostream &OS, const DistanceMatrix &M) {
  // Full round-trip precision: distances must survive write/read exactly.
  OS.precision(std::numeric_limits<double>::max_digits10);
  OS << M.size() << '\n';
  for (int I = 0; I < M.size(); ++I) {
    OS << M.name(I);
    for (int J = 0; J < M.size(); ++J)
      OS << ' ' << M.at(I, J);
    OS << '\n';
  }
}

std::string mutk::matrixToString(const DistanceMatrix &M) {
  std::ostringstream OS;
  writeMatrix(OS, M);
  return OS.str();
}

static std::optional<DistanceMatrix> fail(std::string *Error,
                                          const std::string &Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

namespace {

/// Advances \p IS to the next line carrying content. Strips the
/// trailing CR of CRLF files and any trailing whitespace, and skips
/// blank lines (files produced on Windows or padded with trailing
/// newlines parse the same as their minimal form). Returns false at
/// end of input.
bool nextContentLine(std::istream &IS, std::string &Line) {
  while (std::getline(IS, Line)) {
    while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' ' ||
                             Line.back() == '\t'))
      Line.pop_back();
    if (Line.find_first_not_of(" \t") != std::string::npos)
      return true;
  }
  return false;
}

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Out;
  std::istringstream SS(Line);
  std::string Token;
  while (SS >> Token)
    Out.push_back(std::move(Token));
  return Out;
}

/// Parses \p Token as a double, requiring the whole token to be
/// consumed (`operator>>` would silently accept `1.5x` prefixes).
bool parseDouble(const std::string &Token, double &Out) {
  if (Token.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(Token.c_str(), &End);
  // strtod also parses "inf" and "nan", which no distance may be.
  return End == Token.c_str() + Token.size() && std::isfinite(Out);
}

} // namespace

std::optional<DistanceMatrix> mutk::readMatrix(std::istream &IS,
                                               std::string *Error) {
  // Line-oriented on purpose: a token stream cannot tell "row ended"
  // from "row continued on the next line", so a row with an extra value
  // would silently absorb the next row's name and report a misleading
  // error several rows later.
  std::string Line;
  if (!nextContentLine(IS, Line))
    return fail(Error, "missing species count");
  std::vector<std::string> Header = splitTokens(Line);
  char *End = nullptr;
  long N = std::strtol(Header.front().c_str(), &End, 10);
  if (End != Header.front().c_str() + Header.front().size())
    return fail(Error, "bad species count '" + Header.front() + "'");
  if (Header.size() > 1)
    return fail(Error, "unexpected token '" + Header[1] +
                           "' after species count");
  if (N < 0)
    return fail(Error, "negative species count");
  if (N > std::numeric_limits<int>::max())
    return fail(Error, "species count out of range");

  DistanceMatrix M(static_cast<int>(N));
  // Raw values first; symmetry is validated after the full read so the
  // error message can name both offending entries.
  std::vector<double> Raw(static_cast<std::size_t>(N) * N, 0.0);
  for (int I = 0; I < N; ++I) {
    if (!nextContentLine(IS, Line))
      return fail(Error, "missing name for row " + std::to_string(I));
    std::vector<std::string> Row = splitTokens(Line);
    M.setName(I, Row.front());
    if (Row.size() < static_cast<std::size_t>(N) + 1)
      return fail(Error, "missing entry (" + std::to_string(I) + ", " +
                             std::to_string(Row.size() - 1) + ")");
    if (Row.size() > static_cast<std::size_t>(N) + 1)
      return fail(Error, "unexpected token '" + Row[static_cast<std::size_t>(N) + 1] +
                             "' after row " + std::to_string(I));
    for (int J = 0; J < N; ++J) {
      double Value = 0.0;
      if (!parseDouble(Row[static_cast<std::size_t>(J) + 1], Value))
        return fail(Error, "bad entry (" + std::to_string(I) + ", " +
                               std::to_string(J) + "): '" +
                               Row[static_cast<std::size_t>(J) + 1] + "'");
      Raw[static_cast<std::size_t>(I) * N + J] = Value;
    }
  }
  if (nextContentLine(IS, Line))
    return fail(Error, "unexpected content after last row: '" + Line + "'");

  for (int I = 0; I < N; ++I) {
    if (Raw[static_cast<std::size_t>(I) * N + I] != 0.0)
      return fail(Error, "nonzero diagonal at row " + std::to_string(I));
    for (int J = I + 1; J < N; ++J) {
      double A = Raw[static_cast<std::size_t>(I) * N + J];
      double B = Raw[static_cast<std::size_t>(J) * N + I];
      if (std::fabs(A - B) > 1e-9)
        return fail(Error, "asymmetric entries at (" + std::to_string(I) +
                               ", " + std::to_string(J) + ")");
      if (A < 0.0)
        return fail(Error, "negative distance at (" + std::to_string(I) +
                               ", " + std::to_string(J) + ")");
      M.set(I, J, A);
    }
  }
  // What the parser just promised its callers: a zero diagonal and exact
  // symmetry (DistanceMatrix::set mirrors every entry).
  MUTK_AUDIT(
      [&] {
        for (int I = 0; I < N; ++I) {
          if (M.at(I, I) != 0.0)
            return false;
          for (int J = I + 1; J < N; ++J)
            if (M.at(I, J) != M.at(J, I) || M.at(I, J) < 0.0)
              return false;
        }
        return true;
      }(),
      "parsed matrix must be symmetric, nonnegative, zero-diagonal");
  return M;
}

std::optional<DistanceMatrix> mutk::matrixFromString(const std::string &Text,
                                                     std::string *Error) {
  std::istringstream IS(Text);
  return readMatrix(IS, Error);
}

bool mutk::writeMatrixFile(const std::string &Path, const DistanceMatrix &M) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeMatrix(OS, M);
  return static_cast<bool>(OS);
}

std::optional<DistanceMatrix> mutk::readMatrixFile(const std::string &Path,
                                                   std::string *Error) {
  std::ifstream IS(Path);
  if (!IS)
    return fail(Error, "cannot open " + Path);
  return readMatrix(IS, Error);
}

//===- tree/Newick.cpp - Newick serialization ------------------------------===//

#include "tree/Newick.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <ostream>
#include <sstream>

using namespace mutk;

namespace {

/// Appends \p Value with 17 significant digits, enough for every double
/// to round-trip exactly. `to_chars` in general format at a precision is
/// specified as `printf("%.17g")`, the bytes an ostream at `max_digits10`
/// prints.
void appendLength(std::string &Out, double Value) {
  char Buf[32];
  std::to_chars_result R =
      std::to_chars(Buf, Buf + sizeof(Buf), Value, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  Out.append(Buf, R.ptr);
}

void appendNode(std::string &Out, const PhyloTree &T, int Node) {
  const PhyloNode &N = T.node(Node);
  if (N.isLeaf())
    Out += T.speciesName(N.Leaf);
  else {
    Out += '(';
    appendNode(Out, T, N.Left);
    Out += ',';
    appendNode(Out, T, N.Right);
    Out += ')';
  }
  if (N.Parent >= 0) {
    Out += ':';
    appendLength(Out, T.edgeWeightAbove(Node));
  }
}

/// Recursive-descent Newick parser.
class Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  std::optional<PhyloTree> run() {
    skipSpace();
    double RootLength = 0.0;
    int Root = parseNode(RootLength);
    if (Root < 0)
      return std::nullopt;
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != ';') {
      fail("expected ';' at end of tree");
      return std::nullopt;
    }
    Tree.setRoot(Root);
    Tree.setNames(std::move(Names));
    return std::move(Tree);
  }

private:
  const std::string &Text;
  std::string *Error;
  std::size_t Pos = 0;
  PhyloTree Tree;
  std::vector<std::string> Names;

  int fail(const std::string &Message) {
    if (Error)
      *Error = Message + " (at offset " + std::to_string(Pos) + ")";
    return -1;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  /// Parses a node; fills \p BranchLength with the `:len` suffix (0 if
  /// absent). Returns the node index or -1 on error.
  int parseNode(double &BranchLength) {
    skipSpace();
    int Node;
    if (Pos < Text.size() && Text[Pos] == '(') {
      ++Pos; // consume '('
      double LeftLen = 0.0, RightLen = 0.0;
      int Left = parseNode(LeftLen);
      if (Left < 0)
        return -1;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ',')
        return fail("expected ',' between children");
      ++Pos;
      int Right = parseNode(RightLen);
      if (Right < 0)
        return -1;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ')')
        return fail("expected ')' (polytomies are not supported)");
      ++Pos;
      double Height =
          std::max(Tree.node(Left).Height + LeftLen,
                   Tree.node(Right).Height + RightLen);
      Node = Tree.addInternal(Left, Right, Height);
    } else {
      std::string Name = parseName();
      if (Name.empty())
        return fail("expected a leaf name");
      Node = Tree.addLeaf(static_cast<int>(Names.size()));
      Names.push_back(Name);
    }
    BranchLength = 0.0;
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ':') {
      ++Pos;
      if (!parseNumber(BranchLength))
        return fail("expected a branch length after ':'");
    }
    return Node;
  }

  std::string parseName() {
    skipSpace();
    std::size_t Start = Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '(' || C == ')' || C == ',' || C == ':' || C == ';' ||
          std::isspace(static_cast<unsigned char>(C)))
        break;
      ++Pos;
    }
    return Text.substr(Start, Pos - Start);
  }

  bool parseNumber(double &Value) {
    skipSpace();
    std::size_t Start = Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (!(std::isdigit(static_cast<unsigned char>(C)) || C == '.' ||
            C == '-' || C == '+' || C == 'e' || C == 'E'))
        break;
      ++Pos;
    }
    if (Pos == Start)
      return false;
    std::istringstream IS(Text.substr(Start, Pos - Start));
    return static_cast<bool>(IS >> Value);
  }
};

} // namespace

void mutk::writeNewick(std::ostream &OS, const PhyloTree &T) {
  const std::string Text = toNewick(T);
  OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}

std::string mutk::toNewick(const PhyloTree &T) {
  std::string Out;
  if (T.root() >= 0)
    appendNode(Out, T, T.root());
  Out += ';';
  return Out;
}

std::optional<PhyloTree> mutk::parseNewick(const std::string &Text,
                                           std::string *Error) {
  return Parser(Text, Error).run();
}

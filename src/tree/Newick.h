//===- tree/Newick.h - Newick serialization ---------------------*- C++ -*-===//
///
/// \file
/// Newick reading and writing for PhyloTree. Output carries branch lengths
/// (`(a:1.5,b:1.5):0.5;`); input reconstructs node heights bottom-up from
/// the branch lengths, so an ultrametric tree round-trips exactly. Only
/// strictly binary trees are accepted (the MUT model is binary).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_TREE_NEWICK_H
#define MUTK_TREE_NEWICK_H

#include "tree/PhyloTree.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace mutk {

/// Writes `toNewick(T)` to \p OS; the stream's formatting flags are
/// neither used nor changed.
void writeNewick(std::ostream &OS, const PhyloTree &T);

/// Serializes \p T to a Newick string (single line, terminated by `;`).
/// Branch lengths are printed as `%.17g`, so every double round-trips
/// exactly.
std::string toNewick(const PhyloTree &T);

/// Parses a Newick string into a PhyloTree.
///
/// Species indices are assigned in order of leaf appearance; the leaf
/// names become the tree's name table. Leaf heights start at 0 and
/// internal heights are the maximum over the two children of
/// `child height + branch length` (equal for well-formed ultrametric
/// input). Branch lengths default to 0 when absent.
///
/// \param [out] Error human-readable message on failure (may be null).
/// \returns the tree, or `std::nullopt` on malformed or non-binary input.
std::optional<PhyloTree> parseNewick(const std::string &Text,
                                     std::string *Error = nullptr);

} // namespace mutk

#endif // MUTK_TREE_NEWICK_H

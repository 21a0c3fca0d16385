//===- matrix/MatrixIO.h - Distance-matrix text format ----------*- C++ -*-===//
///
/// \file
/// Reading and writing distance matrices in a PHYLIP-like text format:
///
/// \code
///   4
///   human   0 3 5 5
///   chimp   3 0 5 5
///   gorilla 5 5 0 2
///   orang   5 5 2 0
/// \endcode
///
/// The first line is the species count; each following line is a species
/// name followed by a full row of distances. Parsing is line-oriented
/// and tolerant of CRLF line endings, trailing whitespace and blank
/// lines (anywhere), but strict about everything else: extra tokens on
/// a line, partial rows, non-numeric or non-finite (`inf`, `nan`)
/// entries, trailing garbage after the last row, asymmetry and a nonzero
/// diagonal are all reported as errors naming the first problem found.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_MATRIX_MATRIXIO_H
#define MUTK_MATRIX_MATRIXIO_H

#include "matrix/DistanceMatrix.h"

#include <iosfwd>
#include <optional>
#include <string>

namespace mutk {

/// Writes \p M to \p OS in the PHYLIP-like format above.
void writeMatrix(std::ostream &OS, const DistanceMatrix &M);

/// Serializes \p M to a string.
std::string matrixToString(const DistanceMatrix &M);

/// Parses a matrix from \p IS.
///
/// \param [out] Error filled with a human-readable message on failure
/// (may be null).
/// \returns the matrix, or `std::nullopt` if the input is malformed,
/// asymmetric (beyond 1e-9), or has a nonzero diagonal.
std::optional<DistanceMatrix> readMatrix(std::istream &IS,
                                         std::string *Error = nullptr);

/// Parses a matrix from a string.
std::optional<DistanceMatrix> matrixFromString(const std::string &Text,
                                               std::string *Error = nullptr);

/// Writes \p M to the file at \p Path. \returns true on success.
bool writeMatrixFile(const std::string &Path, const DistanceMatrix &M);

/// Reads a matrix from the file at \p Path.
std::optional<DistanceMatrix> readMatrixFile(const std::string &Path,
                                             std::string *Error = nullptr);

} // namespace mutk

#endif // MUTK_MATRIX_MATRIXIO_H

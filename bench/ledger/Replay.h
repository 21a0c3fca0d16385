//===- bench/ledger/Replay.h - The traced in-process pass -------*- C++ -*-===//
///
/// \file
/// Replays a workload's requests in-process, single-threaded, through
/// the layers' public functions in the order `TreeService::process` uses
/// for the request's flags, recording one span per layer call:
///
///   request
///     service.wire.encode_request / service.wire.decode_request
///     persist.journal_append            (durable: submitted)
///     matrix.fingerprint, service.cache.lookup     (cache on)
///     service.cache.replay                         (whole-matrix hit)
///     compact.pipeline                             (miss)
///       service.cache.block_lookup / block_store   (cache on)
///         persist.cache_append, persist.compact    (durable)
///     tree.newick
///     service.cache.store                          (miss, cache on)
///       persist.cache_append, persist.compact      (durable)
///     persist.journal_append            (durable: completed)
///     service.wire.encode_response
///
/// After each request the pipeline's own steps are re-run as replay
/// spans under `compact.pipeline` (`graph.compact_sets`,
/// `graph.hierarchy`, `matrix.condense` per internal node, the block
/// fingerprint when the cache is on, and `bnb.solve` or `heur.upgmm` per
/// block that was not replayed from cache), and every replayed block's
/// cost and branched count must equal the pipeline's `BlockReport`.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_REPLAY_H
#define MUTK_BENCH_LEDGER_REPLAY_H

#include "Trace.h"

#include "matrix/DistanceMatrix.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ledger {

struct ReplayOptions {
  bool UseCache = false;
  /// Capacity of the pass's own result cache (`mutkd --cache`).
  std::size_t CacheEntries = 1024;
  /// Mirror `mutkd --state-dir`: cache records and job journal entries
  /// are appended (fdatasync'd) under \p StateDir, which must not exist.
  bool Durable = false;
  std::string StateDir;
  /// Record spans and re-run the pipeline steps; off = the same request
  /// path with nothing recorded (the overhead baseline).
  bool Traced = false;
};

/// Deterministic work counts of a pass: identical on every run of the
/// same seed, on any machine.
struct ReplayCounts {
  std::uint64_t Requests = 0;
  std::uint64_t WholeHits = 0;
  std::uint64_t Blocks = 0;
  std::uint64_t ExactBlocks = 0;
  std::uint64_t CachedBlocks = 0;
  std::uint64_t FallbackBlocks = 0;
  std::uint64_t MaxBlock = 0;
  std::uint64_t Branched = 0;
  std::uint64_t Generated = 0;
  std::uint64_t BoundEvals = 0;
  std::uint64_t RequestBytes = 0;
};

struct ReplayResult {
  std::vector<Span> Spans;
  ReplayCounts Counts;
  /// Summed per-request wall time (re-executed steps excluded).
  double RequestMs = 0.0;
  /// First failed check (empty when every check held).
  std::string Error;
};

/// Replays \p Count requests, `Request(I)` for I in [0, Count), after
/// sending each of \p Prime through the same path unrecorded.
ReplayResult
replayPass(const std::vector<mutk::DistanceMatrix> &Prime, std::size_t Count,
           const std::function<mutk::DistanceMatrix(std::size_t)> &Request,
           const ReplayOptions &Options);

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_REPLAY_H

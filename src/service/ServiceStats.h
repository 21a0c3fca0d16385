//===- service/ServiceStats.h - Service counters & latency ------*- C++ -*-===//
///
/// \file
/// The counters of the tree-construction service, exposed through the
/// `Stats` protocol verb, the `service` section of `StatsJson` and
/// `mutkd`'s shutdown record. Each counter is one row of
/// `MUTK_SERVICE_COUNTERS`; every output walks that table, and every
/// event is one `inc` that moves the service's own count and its
/// process-wide registry twin together.
///
/// Latency percentiles come from an `obs::Histogram` recording
/// microseconds (sub-millisecond requests keep their resolution):
/// `record` is two relaxed atomic adds on the hot path, and p50/p95 are
/// reconstructed from the power-of-two bucket counts — plenty for
/// dashboards, free of allocation and locks.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_SERVICESTATS_H
#define MUTK_SERVICE_SERVICESTATS_H

#include "obs/Instruments.h"
#include "obs/Metrics.h"
#include "service/Protocol.h"

#include <cstdint>
#include <iterator>

namespace mutk {

/// Every service counter, one row each, in `Stats` wire order:
/// `X(StatsSnapshot field, StatsJson key, registry twin)`. The twin is
/// the `obs/Instruments.h` counter that counts the same event for the
/// whole process.
#define MUTK_SERVICE_COUNTERS(X)                                               \
  X(Accepted, "accepted", serviceInstruments().Submitted)                      \
  X(Completed, "completed", serviceInstruments().Completed)                    \
  X(Failed, "failed", serviceInstruments().Failed)                             \
  X(WholeHits, "whole_hits", serviceInstruments().WholeHits)                   \
  X(WholeMisses, "whole_misses", serviceInstruments().WholeMisses)             \
  X(BlockHits, "block_hits", blockCacheInstruments().Hits)                     \
  X(BlockMisses, "block_misses", blockCacheInstruments().Misses)               \
  X(BlockRemoteHits, "block_remote_hits", blockCacheInstruments().RemoteHits)  \
  X(IncrementalApplied, "incremental_applied",                                 \
    incrementalInstruments().Applied)                                          \
  X(IncrementalDirty, "incremental_dirty",                                     \
    incrementalInstruments().DirtyBlocks)                                      \
  X(IncrementalClean, "incremental_clean",                                     \
    incrementalInstruments().CleanBlocks)                                      \
  X(DeadlineExpired, "deadline_expired",                                       \
    serviceInstruments().DeadlineExpired)                                      \
  X(Rejected, "rejected", serviceInstruments().Rejected)                       \
  X(Shed, "shed", qosInstruments().Shed)                                       \
  X(RateLimited, "rate_limited", qosInstruments().RateLimited)                 \
  X(TierExact, "tier_exact", qosInstruments().TierExact)                       \
  X(TierPipeline, "tier_pipeline", qosInstruments().TierPipeline)              \
  X(TierHeuristic, "tier_heuristic", qosInstruments().TierHeuristic)           \
  X(Coalesced, "coalesced", qosInstruments().Coalesced)

/// A table row as data, for the outputs that walk every counter.
struct ServiceCounterRow {
  std::uint64_t StatsSnapshot::*Field;
  const char *Key;
};

inline constexpr ServiceCounterRow ServiceCounterRows[] = {
#define MUTK_COUNTER_ROW(Field, Key, Twin) {&StatsSnapshot::Field, Key},
    MUTK_SERVICE_COUNTERS(MUTK_COUNTER_ROW)
#undef MUTK_COUNTER_ROW
};

// Queue depth, cache entries and the two latency quantiles are the only
// snapshot fields outside the table.
static_assert(sizeof(StatsSnapshot) ==
                  (std::size(ServiceCounterRows) + 4) * sizeof(std::uint64_t),
              "every StatsSnapshot counter needs a MUTK_SERVICE_COUNTERS row");

/// Millisecond latency histogram backed by an `obs::Histogram` over
/// microseconds, so sub-millisecond solves still land in distinct
/// buckets.
class LatencyHistogram {
public:
  void record(double Millis) { H.record(Millis * 1000.0); }

  /// Snapshot with every value converted back to milliseconds.
  obs::HistogramSnapshot snapshotMillis() const {
    obs::HistogramSnapshot S = H.snapshot();
    S.Sum /= 1000.0;
    S.P50 /= 1000.0;
    S.P95 /= 1000.0;
    S.P99 /= 1000.0;
    S.Max /= 1000.0;
    return S;
  }

private:
  obs::Histogram H;
};

/// One `TreeService`'s counters (a member per table row, each bound to
/// its registry twin) and its end-to-end latency.
struct ServiceStats {
#define MUTK_COUNTER_MEMBER(Field, Key, Twin)                                  \
  obs::InstanceCounter Field{obs::Twin};
  MUTK_SERVICE_COUNTERS(MUTK_COUNTER_MEMBER)
#undef MUTK_COUNTER_MEMBER
  LatencyHistogram Latency;

  /// Snapshot into the wire struct; queue depth and cache size are owned
  /// by the service and filled by the caller.
  StatsSnapshot snapshot() const {
    StatsSnapshot S;
#define MUTK_COUNTER_LOAD(Field, Key, Twin) S.Field = this->Field.value();
    MUTK_SERVICE_COUNTERS(MUTK_COUNTER_LOAD)
#undef MUTK_COUNTER_LOAD
    obs::HistogramSnapshot L = Latency.snapshotMillis();
    S.P50Millis = L.P50;
    S.P95Millis = L.P95;
    return S;
  }
};

} // namespace mutk

#endif // MUTK_SERVICE_SERVICESTATS_H

//===- obs/Metrics.h - Lock-cheap metrics registry --------------*- C++ -*-===//
///
/// \file
/// The process-wide observability substrate: monotonic counters, gauges
/// and fixed-bucket histograms behind a named registry. The hot path is
/// one relaxed atomic RMW per update — no locks, no allocation; the
/// registry mutex is taken only when an instrument is first registered
/// and when a snapshot is read. Snapshots render to a Prometheus-style
/// text exposition (`mutkd --stats-dump`) and to JSON (the `StatsJson`
/// protocol verb).
///
/// Instruments are owned by the registry and never deallocated, so a
/// component may cache `Counter *` / `Gauge *` pointers for its lifetime
/// and keep incrementing them even while a snapshot is being taken.
/// Registering the same name twice returns the same instrument, which is
/// what makes process-wide singletons (`obs/Instruments.h`) safe across
/// any number of service instances.
///
/// Metric naming convention (enforced by `scripts/lint.sh` against
/// `docs/observability.md`): `mutk_<component>_<what>[_total]`, with an
/// optional `{label="value"}` suffix for per-shard families.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_OBS_METRICS_H
#define MUTK_OBS_METRICS_H

#include "support/Mutex.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mutk::obs {

/// Monotonically increasing event count.
class Counter {
public:
  void inc(std::uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  std::uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> V{0};
};

/// One component instance's own count of an event (a service, a cost
/// model) whose registry twin counts the same event process-wide. `inc`
/// is the only way to count, so the two scopes cannot drift apart.
class InstanceCounter {
public:
  explicit InstanceCounter(Counter &Twin) : Twin(Twin) {}

  void inc(std::uint64_t N = 1) {
    Own.inc(N);
    Twin.inc(N);
  }
  std::uint64_t value() const { return Own.value(); }

private:
  Counter Own;
  Counter &Twin;
};

/// Instantaneous signed level (queue depth, in-flight jobs). `add`/`sub`
/// pairs from any thread keep it consistent without a lock.
class Gauge {
public:
  void set(std::int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(std::int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  void sub(std::int64_t N) { V.fetch_sub(N, std::memory_order_relaxed); }
  std::int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> V{0};
};

/// Point-in-time view of a histogram.
struct HistogramSnapshot {
  std::uint64_t Count = 0;
  /// Sum of recorded values (fixed-point accumulated, ~1e-3 resolution
  /// per sample).
  double Sum = 0.0;
  double P50 = 0.0;
  double P95 = 0.0;
  double P99 = 0.0;
  double Max = 0.0;
};

/// Fixed-bucket histogram over nonnegative values with one bucket per
/// power of two (bucket i spans [2^i, 2^(i+1)); values <= 1 land in
/// bucket 0). `record` is two relaxed atomic adds; quantiles are
/// reconstructed from the bucket counts with at most ~50% relative
/// quantization error — plenty for dashboards, free of locks.
class Histogram {
public:
  void record(double Value) {
    double Clamped = Value > 0.0 ? Value : 0.0;
    std::uint64_t U = Clamped <= 1.0 ? 1 : static_cast<std::uint64_t>(Clamped);
    int Bucket = std::bit_width(U) - 1;
    if (Bucket >= NumBuckets)
      Bucket = NumBuckets - 1;
    Buckets[static_cast<std::size_t>(Bucket)].fetch_add(
        1, std::memory_order_relaxed);
    // Fixed-point sum: atomic<double> fetch_add is not lock-free
    // everywhere, a u64 of milli-units is.
    SumMilli.fetch_add(static_cast<std::uint64_t>(Clamped * 1000.0 + 0.5),
                       std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  std::uint64_t count() const;

private:
  static constexpr int NumBuckets = 64;
  std::array<std::atomic<std::uint64_t>, NumBuckets> Buckets{};
  std::atomic<std::uint64_t> SumMilli{0};
};

/// Point-in-time view of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> Counters;
  std::vector<std::pair<std::string, std::int64_t>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;
};

/// Named instrument registry. Registration and snapshotting serialize on
/// one mutex; instrument updates never do.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Returns the instrument registered under \p Name, creating it on
  /// first use. The reference stays valid for the registry's lifetime.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition (`# TYPE` per family; histograms
  /// as summaries with quantile labels).
  std::string renderPrometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{"count":..,"sum":..,"p50":..,"p95":..,"p99":..,"max":..}}}.
  std::string renderJson() const;

  /// The process-wide registry every built-in instrument lives in.
  static MetricsRegistry &global();

private:
  mutable Mutex Mu{"obs.metrics"};
  // std::map keeps names sorted for stable renders; unique_ptr keeps
  // instrument addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters
      MUTK_GUARDED_BY(Mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges
      MUTK_GUARDED_BY(Mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms
      MUTK_GUARDED_BY(Mu);
};

} // namespace mutk::obs

#endif // MUTK_OBS_METRICS_H

//===- bench/ledger/Trace.h - In-memory span recorder -----------*- C++ -*-===//
///
/// \file
/// The ledger's request tracing: spans recorded around the calls into
/// each layer, kept in memory and written once when the run ends.
///
/// A span is `{trace_id, span_id, parent, name, start_ns, end_ns}` plus
/// one work count. Names are `<layer>.<what>` (`bnb.solve`,
/// `persist.cache_append`, ...); the text before the first dot is the
/// layer the span's self time is charged to. A span's *self time* is its
/// duration minus the part of its interval that its children cover.
///
/// *Replay* spans are re-executions of steps that ran inside a span the
/// ledger cannot open up from outside (the compact-set pipeline): they
/// run after the request ended, outside their parent's interval, and
/// their whole duration is charged to their own layer and taken off the
/// parent's self time. What the parent keeps is the work no replayed step
/// accounts for — for `compact.pipeline`, the merge and scheduling time.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_TRACE_H
#define MUTK_BENCH_LEDGER_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ledger {

struct Span {
  /// The request this span belongs to (its index in the pass).
  std::uint32_t TraceId = 0;
  /// 1-based, unique within one recorder.
  std::uint32_t Id = 0;
  /// 0 for the request's root span.
  std::uint32_t Parent = 0;
  /// Static string, `<layer>.<what>` (the root is `request`).
  const char *Name = "";
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  /// Re-executed after the request; charged to \p Parent (file comment).
  bool Replay = false;
  /// Work done inside the span (branched nodes, bytes, blocks, ...).
  std::uint64_t Count = 0;

  std::int64_t durationNs() const { return EndNs - StartNs; }
};

/// Collects spans; a disabled recorder records nothing and returns id 0,
/// so the traced and untraced passes run the same code.
class TraceRecorder {
public:
  explicit TraceRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t begin(std::uint32_t TraceId, std::uint32_t Parent,
                      const char *Name, bool Replay = false);
  /// Closes span \p Id and records \p Count against it.
  void end(std::uint32_t Id, std::uint64_t Count = 0);

  const std::vector<Span> &spans() const { return Spans; }

  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
};

/// Opens a span for the scope's lifetime.
class SpanScope {
public:
  SpanScope(TraceRecorder &Rec, std::uint32_t TraceId, std::uint32_t Parent,
            const char *Name, bool Replay = false)
      : Rec(Rec), Id(Rec.begin(TraceId, Parent, Name, Replay)) {}
  ~SpanScope() { Rec.end(Id, Count); }

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  std::uint32_t id() const { return Id; }
  void setCount(std::uint64_t C) { Count = C; }

private:
  TraceRecorder &Rec;
  std::uint32_t Id;
  std::uint64_t Count = 0;
};

/// Self time of every span of \p Spans (same order), in nanoseconds:
/// duration, minus the union of its non-replay children's intervals
/// clipped to its own, minus its replay children's durations; clamped at
/// zero when a replayed step ran slower than it did inside the parent.
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// The layer a span name is charged to: the text before the first dot.
std::string layerOf(const std::string &Name);

/// Per-name aggregate over a pass.
struct NameSummary {
  std::uint64_t Calls = 0;
  double TotalMs = 0.0;
  double SelfMs = 0.0;
  /// Median over the requests that opened this span at least once of the
  /// request's summed duration of it.
  double PerRequestP50Ms = 0.0;
};

/// Per-layer aggregate over a pass.
struct LayerSummary {
  std::uint64_t Calls = 0;
  double TotalMs = 0.0;
  double SelfMs = 0.0;
  /// Self time as a share of all request time, in percent.
  double SharePct = 0.0;
};

struct TraceSummary {
  std::map<std::string, NameSummary> Names;
  std::map<std::string, LayerSummary> Layers;
  /// Sum of the root `request` spans' durations.
  double RequestMs = 0.0;
  std::uint64_t Requests = 0;
};

TraceSummary summarize(const std::vector<Span> &Spans);

/// One line per span: `trace_id span_id parent name start_ns end_ns
/// replay count` (tab-separated, after a header line).
void writeSpansTsv(std::ostream &OS, const std::vector<Span> &Spans);

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_TRACE_H

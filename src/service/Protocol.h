//===- service/Protocol.h - mutkd wire protocol -----------------*- C++ -*-===//
///
/// \file
/// The framed request/response protocol of the tree-construction service
/// (`mutkd`). Every message travels as one *frame* (`service/Transport.h`):
/// a little-endian `u32` payload length followed by that many bytes; the
/// first payload byte is the verb. Encoding reuses the byte codecs of `mp/Serialize.h`,
/// so scalars are fixed-width little-endian and strings are
/// length-prefixed.
///
/// Verbs:
///   * `Build`    — construct a tree for an inline matrix or a
///                  server-side generated workload; answers with a
///                  `BuildResponse` (Newick, cost, block reports,
///                  timings) or a structured error.
///   * `Stats`    — answers with a `StatsSnapshot` counter block.
///   * `Ping`     — liveness probe; answers with an empty `Ok`.
///   * `Shutdown` — acknowledges, then the server stops accepting.
///   * `StatsJson`— answers with one JSON string: the full metrics
///                  registry (queue, cache, request-latency and B&B
///                  counters) merged with the per-instance snapshot.
///
/// See `docs/service.md` for the byte-level layout and error-code
/// semantics. Decoders never trust lengths: any truncated or oversized
/// field fails the decode, which the server answers with `BadFrame`.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_PROTOCOL_H
#define MUTK_SERVICE_PROTOCOL_H

#include "bnb/BnbOptions.h"
#include "matrix/Condense.h"
#include "matrix/DistanceMatrix.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mutk {

/// Protocol revision; bumped on any incompatible layout change.
/// Version 2 added the incremental re-solve fields (request `Incremental`
/// flag; response perturbation-delta block; stats remote-block and
/// incremental counters). Version 3 added the QoS fields: request
/// priority/tenant, response tier/predicted-cost/coalesced, the `Shed`
/// and `RateLimited` error codes, and the stats QoS counter block.
inline constexpr std::uint32_t ServiceProtocolVersion = 3;

/// Hard protocol cap on inline-matrix size: checked before the decoder
/// allocates the n^2 buffer, so a hostile size field cannot OOM the
/// server either. Servers may impose a lower per-instance cap
/// (`ServiceOptions::MaxSpecies`).
inline constexpr std::int32_t MaxProtocolSpecies = 4096;

/// Request/response kinds (first payload byte).
enum class Verb : std::uint8_t {
  Build = 1,
  Stats = 2,
  Ping = 3,
  Shutdown = 4,
  StatsJson = 5,
};

/// Structured error codes carried by responses.
enum class ServiceError : std::uint8_t {
  None = 0,        ///< Success.
  BadFrame = 1,    ///< Frame or payload failed to decode.
  BadRequest = 2,  ///< Decoded but semantically invalid (unknown
                   ///< generator, nonpositive species count, ...).
  BadMatrix = 3,   ///< Inline matrix payload malformed.
  TooLarge = 4,    ///< Matrix exceeds the server's species cap.
  DeadlineExpired = 5, ///< The request's deadline elapsed before a
                       ///< result was ready.
  QueueFull = 6,       ///< The job queue is full (overload — transient;
                       ///< retry with backoff).
  ShuttingDown = 7,    ///< Service is stopping; job was not solved.
  Internal = 8,        ///< Unexpected server-side failure.
  Shed = 9,            ///< QoS admission: predicted cost exceeds the
                       ///< remaining deadline on every tier.
  RateLimited = 10,    ///< QoS admission: tenant token bucket drained.
};

/// The largest valid `ServiceError` value (decoder bounds check).
inline constexpr std::uint8_t MaxServiceError =
    static_cast<std::uint8_t>(ServiceError::RateLimited);

/// Stable lower-case name for an error code (used by logs and JSON).
const char *serviceErrorName(ServiceError Error);

/// Actionable, human-readable advice for an error code — what the
/// *client* should do about it (retry, back off, resubmit elsewhere).
/// Distinct per code so overload (`QueueFull`) and shutdown
/// (`ShuttingDown`) are never conflated in client output; empty for
/// codes with nothing actionable to say.
const char *serviceErrorAdvice(ServiceError Error);

/// Client-requested scheduling priority (higher runs sooner).
enum class RequestPriority : std::uint8_t {
  Low = 0,
  Normal = 1,
  High = 2,
};

/// Execution tier the QoS layer routed a request to, echoed in the
/// response. Always `Exact` when QoS is disabled.
enum class QosTier : std::uint8_t {
  Exact = 0,     ///< Full-fidelity pipeline, request unmodified.
  Pipeline = 1,  ///< Degraded pipeline: exact-block cap clamped.
  Heuristic = 2, ///< Single agglomerative (UPGMM) pass, no B&B.
};

/// Stable lower-case name for a tier (logs, JSON, client output).
const char *qosTierName(QosTier Tier);

/// Server-side workload generators (mirrors `mutk_tool --generate`).
enum class GeneratorKind : std::uint8_t {
  None = 0, ///< Request carries an inline matrix instead.
  Uniform = 1,
  Clustered = 2,
  Ultrametric = 3,
  Dna = 4,
};

/// One tree-construction job.
struct BuildRequest {
  /// `None` means `Matrix` is the payload; otherwise the server
  /// synthesizes the matrix from the spec below.
  GeneratorKind Generator = GeneratorKind::None;
  DistanceMatrix Matrix;
  std::int32_t GenSpecies = 0;
  std::uint64_t GenSeed = 1;

  // `PipelineOptions`-equivalent knobs. 3-3 third-species pruning is on
  // by default (cost-preserving on the clustered per-block matrices the
  // pipeline solves; clients opt out with `--three-three none`).
  CondenseMode Mode = CondenseMode::Maximum;
  ThreeThreeMode ThreeThree = ThreeThreeMode::ThirdSpecies;
  std::int32_t MaxExactBlockSize = 16;
  bool Polish = false;

  /// Per-block branch-and-bound node budget (0 = unlimited).
  std::uint64_t NodeBudget = 0;
  /// Deadline in milliseconds measured from submission (0 = none). Also
  /// capped into a per-block node budget via
  /// `ServiceOptions::NodesPerMilli`.
  std::uint32_t DeadlineMillis = 0;
  /// Opt out of the result cache for this request.
  bool UseCache = true;
  /// Ask the service to treat this matrix as a possible perturbation of
  /// a recently solved base: diff against remembered bases, and when the
  /// delta is small, re-run the decomposition reusing every clean
  /// block's cached subtree (docs/caching.md#incremental-mode). Requires
  /// `UseCache`; ignored when the service has no incremental index.
  bool Incremental = false;

  /// \name QoS fields (protocol v3; see docs/qos.md).
  /// @{

  /// Scheduling priority relative to other queued jobs.
  RequestPriority Priority = RequestPriority::Normal;
  /// Fair-share / rate-limit bucket; empty is the default tenant.
  std::string Tenant;

  /// @}
};

/// Per-condensed-block accounting echoed to the client.
struct BlockSummary {
  std::int32_t NumBlocks = 0;
  double Cost = 0.0;
  bool Exact = true;
  bool FromCache = false;
};

/// Answer to a `Build` request.
struct BuildResponse {
  ServiceError Error = ServiceError::None;
  /// Human-readable error detail (empty on success).
  std::string Message;

  std::string Newick;
  double Cost = 0.0;
  /// Every block solved to proven optimality.
  bool Exact = false;
  /// Whole-matrix cache hit: no solver ran at all.
  bool CacheHit = false;
  /// Condensed blocks replayed from the block cache.
  std::uint32_t BlockCacheHits = 0;
  std::uint64_t Branched = 0;
  std::vector<BlockSummary> Blocks;

  /// Incremental mode engaged: a remembered base matched within the
  /// service's delta thresholds, so clean blocks replayed from cache.
  bool IncrementalApplied = false;
  /// Blocks that actually ran a solver (incremental or not: on a
  /// from-scratch solve this is simply blocks minus cache hits).
  std::uint32_t DirtyBlocks = 0;
  /// Blocks replayed verbatim from the block cache.
  std::uint32_t CleanBlocks = 0;
  /// Perturbation delta against the matched base (zeros unless
  /// `IncrementalApplied`).
  std::int32_t TaxaAdded = 0;
  std::int32_t TaxaRemoved = 0;
  std::int32_t EntriesChanged = 0;

  /// Time spent queued before a worker picked the job up.
  double QueueMillis = 0.0;
  /// Time the worker spent resolving the job (cache replay or solve).
  double SolveMillis = 0.0;

  /// \name QoS fields (protocol v3; see docs/qos.md).
  /// @{

  /// Execution tier the request was routed to (`Exact` when QoS is off).
  QosTier Tier = QosTier::Exact;
  /// Admission-time cost prediction in milliseconds (0 when QoS is off).
  double PredictedMillis = 0.0;
  /// This response was fanned out from an identical in-flight leader
  /// request rather than solved (or rejected) on its own.
  bool Coalesced = false;

  /// @}

  bool ok() const { return Error == ServiceError::None; }
};

/// Counter block answered to `Stats`. Its counters are the rows of
/// `MUTK_SERVICE_COUNTERS` (`service/ServiceStats.h`), which fixes their
/// wire order.
struct StatsSnapshot {
  std::uint64_t Accepted = 0;  ///< Jobs admitted to the queue.
  std::uint64_t Completed = 0; ///< Jobs answered successfully.
  std::uint64_t Failed = 0;    ///< Jobs answered with an error.
  std::uint64_t WholeHits = 0;
  std::uint64_t WholeMisses = 0;
  std::uint64_t BlockHits = 0;
  std::uint64_t BlockMisses = 0;
  /// Block subtrees served by a remote peer's cache shard.
  std::uint64_t BlockRemoteHits = 0;
  /// Requests where incremental mode engaged (base matched thresholds).
  std::uint64_t IncrementalApplied = 0;
  /// Blocks re-solved / replayed across all incremental requests.
  std::uint64_t IncrementalDirty = 0;
  std::uint64_t IncrementalClean = 0;
  std::uint64_t DeadlineExpired = 0;
  std::uint64_t Rejected = 0; ///< QueueFull + ShuttingDown rejections.
  /// \name QoS counters (protocol v3; zero when QoS is off).
  /// @{
  std::uint64_t Shed = 0;        ///< Admission sheds (hopeless deadline).
  std::uint64_t RateLimited = 0; ///< Tenant token-bucket rejections.
  std::uint64_t TierExact = 0;
  std::uint64_t TierPipeline = 0;
  std::uint64_t TierHeuristic = 0;
  std::uint64_t Coalesced = 0; ///< Followers answered by a leader's solve.
  /// @}
  std::uint64_t QueueDepth = 0;
  std::uint64_t CacheEntries = 0;
  double P50Millis = 0.0; ///< Median end-to-end latency.
  double P95Millis = 0.0;
};

/// A decoded request frame.
struct Request {
  Verb V = Verb::Ping;
  BuildRequest Build; ///< Valid when `V == Verb::Build`.
};

/// A decoded response frame. `Build`/`Stats` are valid per the verb; the
/// outer error covers protocol-level failures (e.g. `BadFrame`).
struct Response {
  Verb V = Verb::Ping;
  ServiceError Error = ServiceError::None;
  std::string Message;
  BuildResponse Build;
  StatsSnapshot Stats;
  /// Valid when `V == Verb::StatsJson`: one JSON object (see
  /// `docs/observability.md` for the schema).
  std::string StatsJson;

  bool ok() const { return Error == ServiceError::None; }
};

/// \name Payload codecs (the `u32` frame length is the transport's job).
/// @{
std::vector<std::uint8_t> encodeRequest(const Request &R);
/// The bytes of `encodeRequest(makeBuildRequest(B))`, encoded straight
/// from \p B without copying it into a `Request` first.
std::vector<std::uint8_t> encodeBuildRequest(const BuildRequest &B);
std::optional<Request> decodeRequest(const std::vector<std::uint8_t> &Bytes,
                                     std::string *Error = nullptr);

std::vector<std::uint8_t> encodeResponse(const Response &R);
std::optional<Response> decodeResponse(const std::vector<std::uint8_t> &Bytes,
                                       std::string *Error = nullptr);
/// @}

/// Convenience constructors.
Request makeBuildRequest(BuildRequest Build);
Response makeErrorResponse(Verb V, ServiceError Error, std::string Message);

} // namespace mutk

#endif // MUTK_SERVICE_PROTOCOL_H

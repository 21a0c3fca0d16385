//===- service/Protocol.cpp - mutkd wire protocol -------------------------===//

#include "service/Protocol.h"

#include "mp/Serialize.h"
#include "service/ServiceStats.h"
#include "service/Transport.h"

#include <cassert>

using namespace mutk;

const char *mutk::serviceErrorName(ServiceError Error) {
  switch (Error) {
  case ServiceError::None:
    return "ok";
  case ServiceError::BadFrame:
    return "bad-frame";
  case ServiceError::BadRequest:
    return "bad-request";
  case ServiceError::BadMatrix:
    return "bad-matrix";
  case ServiceError::TooLarge:
    return "too-large";
  case ServiceError::DeadlineExpired:
    return "deadline-expired";
  case ServiceError::QueueFull:
    return "queue-full";
  case ServiceError::ShuttingDown:
    return "shutting-down";
  case ServiceError::Internal:
    return "internal";
  case ServiceError::Shed:
    return "shed";
  case ServiceError::RateLimited:
    return "rate-limited";
  }
  return "unknown";
}

const char *mutk::serviceErrorAdvice(ServiceError Error) {
  switch (Error) {
  case ServiceError::QueueFull:
    return "the daemon is overloaded (queue full); retry with backoff "
           "(--retries/--backoff-ms)";
  case ServiceError::ShuttingDown:
    return "the daemon is shutting down and accepts no further work; "
           "resubmit to another instance or after a restart";
  case ServiceError::Shed:
    return "the deadline cannot be met on any tier; raise --deadline-ms "
           "or drop it entirely";
  case ServiceError::RateLimited:
    return "the tenant's request rate is capped; slow down or submit "
           "under a different --tenant";
  case ServiceError::DeadlineExpired:
    return "the deadline elapsed before a result was ready; raise "
           "--deadline-ms";
  case ServiceError::None:
  case ServiceError::BadFrame:
  case ServiceError::BadRequest:
  case ServiceError::BadMatrix:
  case ServiceError::TooLarge:
  case ServiceError::Internal:
    return "";
  }
  return "";
}

const char *mutk::qosTierName(QosTier Tier) {
  switch (Tier) {
  case QosTier::Exact:
    return "exact";
  case QosTier::Pipeline:
    return "pipeline";
  case QosTier::Heuristic:
    return "heuristic";
  }
  return "unknown";
}

namespace {

std::optional<Request> failReq(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

std::optional<Response> failResp(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

/// Request header: verb u8, protocol version u32.
constexpr std::size_t RequestHeaderBytes = 5;

/// Build-request bytes besides the matrix (or generator spec) and the
/// tenant's characters: generator u8; mode, 3-3, cap i32, polish,
/// budget u64, deadline u32, cache, incremental and priority; the
/// tenant's u32 length.
constexpr std::size_t BuildFixedBytes = 1 + 26;

/// Generator spec: species i32, seed u64.
constexpr std::size_t GeneratorSpecBytes = 12;

void writeRequestHeader(ByteWriter &W, Verb V) {
  W.writeU8(static_cast<std::uint8_t>(V));
  W.writeU32(ServiceProtocolVersion);
}

void writeBuildRequest(ByteWriter &W, const BuildRequest &B) {
  W.writeU8(static_cast<std::uint8_t>(B.Generator));
  if (B.Generator == GeneratorKind::None)
    writeMatrix(W, B.Matrix);
  else {
    W.writeI32(B.GenSpecies);
    W.writeU64(B.GenSeed);
  }
  W.writeU8(static_cast<std::uint8_t>(B.Mode));
  W.writeU8(static_cast<std::uint8_t>(B.ThreeThree));
  W.writeI32(B.MaxExactBlockSize);
  W.writeU8(B.Polish ? 1 : 0);
  W.writeU64(B.NodeBudget);
  W.writeU32(B.DeadlineMillis);
  W.writeU8(B.UseCache ? 1 : 0);
  W.writeU8(B.Incremental ? 1 : 0);
  W.writeU8(static_cast<std::uint8_t>(B.Priority));
  W.writeString(B.Tenant);
}

bool readBuildRequest(ByteReader &R, BuildRequest &B) {
  std::uint8_t Generator = 0, Mode = 0, ThreeThree = 0, Polish = 0,
               UseCache = 0, Incremental = 0;
  if (!R.readU8(Generator) ||
      Generator > static_cast<std::uint8_t>(GeneratorKind::Dna))
    return false;
  B.Generator = static_cast<GeneratorKind>(Generator);
  if (B.Generator == GeneratorKind::None) {
    if (!readMatrix(R, B.Matrix,
                    static_cast<std::uint32_t>(MaxProtocolSpecies)))
      return false;
  } else if (!R.readI32(B.GenSpecies) || !R.readU64(B.GenSeed)) {
    return false;
  }
  if (!R.readU8(Mode) || Mode > static_cast<std::uint8_t>(CondenseMode::Average))
    return false;
  B.Mode = static_cast<CondenseMode>(Mode);
  if (!R.readU8(ThreeThree) ||
      ThreeThree > static_cast<std::uint8_t>(ThreeThreeMode::AllInsertions))
    return false;
  B.ThreeThree = static_cast<ThreeThreeMode>(ThreeThree);
  if (!R.readI32(B.MaxExactBlockSize) || !R.readU8(Polish) ||
      !R.readU64(B.NodeBudget) || !R.readU32(B.DeadlineMillis) ||
      !R.readU8(UseCache) || !R.readU8(Incremental))
    return false;
  B.Polish = Polish != 0;
  B.UseCache = UseCache != 0;
  B.Incremental = Incremental != 0;
  std::uint8_t Priority = 0;
  if (!R.readU8(Priority) ||
      Priority > static_cast<std::uint8_t>(RequestPriority::High))
    return false;
  B.Priority = static_cast<RequestPriority>(Priority);
  return R.readString(B.Tenant);
}

void writeBuildResponse(ByteWriter &W, const BuildResponse &B) {
  W.writeU8(static_cast<std::uint8_t>(B.Error));
  W.writeString(B.Message);
  W.writeString(B.Newick);
  W.writeF64(B.Cost);
  W.writeU8(B.Exact ? 1 : 0);
  W.writeU8(B.CacheHit ? 1 : 0);
  W.writeU32(B.BlockCacheHits);
  W.writeU64(B.Branched);
  W.writeU32(static_cast<std::uint32_t>(B.Blocks.size()));
  for (const BlockSummary &S : B.Blocks) {
    W.writeI32(S.NumBlocks);
    W.writeF64(S.Cost);
    W.writeU8(S.Exact ? 1 : 0);
    W.writeU8(S.FromCache ? 1 : 0);
  }
  W.writeU8(B.IncrementalApplied ? 1 : 0);
  W.writeU32(B.DirtyBlocks);
  W.writeU32(B.CleanBlocks);
  W.writeI32(B.TaxaAdded);
  W.writeI32(B.TaxaRemoved);
  W.writeI32(B.EntriesChanged);
  W.writeF64(B.QueueMillis);
  W.writeF64(B.SolveMillis);
  W.writeU8(static_cast<std::uint8_t>(B.Tier));
  W.writeF64(B.PredictedMillis);
  W.writeU8(B.Coalesced ? 1 : 0);
}

bool readBuildResponse(ByteReader &R, BuildResponse &B) {
  std::uint8_t Error = 0, Exact = 0, CacheHit = 0;
  if (!R.readU8(Error) || Error > MaxServiceError)
    return false;
  B.Error = static_cast<ServiceError>(Error);
  if (!R.readString(B.Message) || !R.readString(B.Newick) ||
      !R.readF64(B.Cost) || !R.readU8(Exact) || !R.readU8(CacheHit) ||
      !R.readU32(B.BlockCacheHits) || !R.readU64(B.Branched))
    return false;
  B.Exact = Exact != 0;
  B.CacheHit = CacheHit != 0;
  std::uint32_t NumBlocks = 0;
  if (!R.readU32(NumBlocks) || NumBlocks > MaxFrameBytes / 8)
    return false;
  B.Blocks.resize(NumBlocks);
  for (BlockSummary &S : B.Blocks) {
    std::uint8_t BlockExact = 0, FromCache = 0;
    if (!R.readI32(S.NumBlocks) || !R.readF64(S.Cost) ||
        !R.readU8(BlockExact) || !R.readU8(FromCache))
      return false;
    S.Exact = BlockExact != 0;
    S.FromCache = FromCache != 0;
  }
  std::uint8_t IncrementalApplied = 0;
  if (!R.readU8(IncrementalApplied) || !R.readU32(B.DirtyBlocks) ||
      !R.readU32(B.CleanBlocks) || !R.readI32(B.TaxaAdded) ||
      !R.readI32(B.TaxaRemoved) || !R.readI32(B.EntriesChanged))
    return false;
  B.IncrementalApplied = IncrementalApplied != 0;
  if (!R.readF64(B.QueueMillis) || !R.readF64(B.SolveMillis))
    return false;
  std::uint8_t Tier = 0, Coalesced = 0;
  if (!R.readU8(Tier) ||
      Tier > static_cast<std::uint8_t>(QosTier::Heuristic) ||
      !R.readF64(B.PredictedMillis) || !R.readU8(Coalesced))
    return false;
  B.Tier = static_cast<QosTier>(Tier);
  B.Coalesced = Coalesced != 0;
  return true;
}

void writeStats(ByteWriter &W, const StatsSnapshot &S) {
  for (const ServiceCounterRow &Row : ServiceCounterRows)
    W.writeU64(S.*Row.Field);
  W.writeU64(S.QueueDepth);
  W.writeU64(S.CacheEntries);
  W.writeF64(S.P50Millis);
  W.writeF64(S.P95Millis);
}

bool readStats(ByteReader &R, StatsSnapshot &S) {
  for (const ServiceCounterRow &Row : ServiceCounterRows)
    if (!R.readU64(S.*Row.Field))
      return false;
  return R.readU64(S.QueueDepth) && R.readU64(S.CacheEntries) &&
         R.readF64(S.P50Millis) && R.readF64(S.P95Millis);
}

} // namespace

std::vector<std::uint8_t> mutk::encodeRequest(const Request &R) {
  if (R.V == Verb::Build)
    return encodeBuildRequest(R.Build);
  ByteWriter W;
  writeRequestHeader(W, R.V);
  return W.take();
}

std::vector<std::uint8_t> mutk::encodeBuildRequest(const BuildRequest &B) {
  const std::size_t Size =
      RequestHeaderBytes + BuildFixedBytes + B.Tenant.size() +
      (B.Generator == GeneratorKind::None ? matrixWireBytes(B.Matrix)
                                          : GeneratorSpecBytes);
  ByteWriter W;
  W.reserve(Size);
  writeRequestHeader(W, Verb::Build);
  writeBuildRequest(W, B);
  assert(W.bytes().size() == Size && "build request layout drifted");
  return W.take();
}

std::optional<Request>
mutk::decodeRequest(const std::vector<std::uint8_t> &Bytes,
                    std::string *Error) {
  ByteReader R(Bytes);
  std::uint8_t RawVerb = 0;
  std::uint32_t Version = 0;
  if (!R.readU8(RawVerb) || !R.readU32(Version))
    return failReq(Error, "truncated request header");
  if (Version != ServiceProtocolVersion)
    return failReq(Error, "protocol version mismatch");
  if (RawVerb < static_cast<std::uint8_t>(Verb::Build) ||
      RawVerb > static_cast<std::uint8_t>(Verb::StatsJson))
    return failReq(Error, "unknown verb");

  Request Out;
  Out.V = static_cast<Verb>(RawVerb);
  if (Out.V == Verb::Build && !readBuildRequest(R, Out.Build))
    return failReq(Error, "malformed build request");
  if (!R.atEnd())
    return failReq(Error, "trailing bytes after request");
  return Out;
}

std::vector<std::uint8_t> mutk::encodeResponse(const Response &R) {
  ByteWriter W;
  W.writeU8(static_cast<std::uint8_t>(R.V));
  W.writeU8(static_cast<std::uint8_t>(R.Error));
  W.writeString(R.Message);
  if (R.Error == ServiceError::None) {
    if (R.V == Verb::Build)
      writeBuildResponse(W, R.Build);
    else if (R.V == Verb::Stats)
      writeStats(W, R.Stats);
    else if (R.V == Verb::StatsJson)
      W.writeString(R.StatsJson);
  }
  return W.take();
}

std::optional<Response>
mutk::decodeResponse(const std::vector<std::uint8_t> &Bytes,
                     std::string *Error) {
  ByteReader R(Bytes);
  std::uint8_t RawVerb = 0, RawError = 0;
  if (!R.readU8(RawVerb) || !R.readU8(RawError))
    return failResp(Error, "truncated response header");
  if (RawVerb < static_cast<std::uint8_t>(Verb::Build) ||
      RawVerb > static_cast<std::uint8_t>(Verb::StatsJson))
    return failResp(Error, "unknown verb");
  if (RawError > MaxServiceError)
    return failResp(Error, "unknown error code");

  Response Out;
  Out.V = static_cast<Verb>(RawVerb);
  Out.Error = static_cast<ServiceError>(RawError);
  if (!R.readString(Out.Message))
    return failResp(Error, "truncated response message");
  if (Out.Error == ServiceError::None) {
    if (Out.V == Verb::Build && !readBuildResponse(R, Out.Build))
      return failResp(Error, "malformed build response");
    if (Out.V == Verb::Stats && !readStats(R, Out.Stats))
      return failResp(Error, "malformed stats response");
    if (Out.V == Verb::StatsJson && !R.readString(Out.StatsJson))
      return failResp(Error, "malformed stats-json response");
  }
  if (!R.atEnd())
    return failResp(Error, "trailing bytes after response");
  return Out;
}

Request mutk::makeBuildRequest(BuildRequest Build) {
  Request R;
  R.V = Verb::Build;
  R.Build = std::move(Build);
  return R;
}

Response mutk::makeErrorResponse(Verb V, ServiceError Error,
                                 std::string Message) {
  Response R;
  R.V = V;
  R.Error = Error;
  R.Message = std::move(Message);
  if (V == Verb::Build) {
    R.Build.Error = Error;
    R.Build.Message = R.Message;
  }
  return R;
}

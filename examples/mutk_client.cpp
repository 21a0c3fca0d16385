//===- examples/mutk_client.cpp - CLI client for mutkd --------------------===//
//
// Submits tree-construction jobs to a running mutkd over its framed
// socket protocol and prints the result (human-readable or --json,
// sharing the JSON schema with `mutk_tool --json`).
//
// Usage:
//   mutk_client --connect unix:PATH | --connect HOST:PORT  COMMAND
// Commands:
//   --matrix FILE | --generate {uniform|clustered|ultrametric|dna}
//             --species N [--seed S]     submit a Build job
//   --stats                              print service counters
//                                        (--stats --json issues the
//                                        StatsJson verb: full metrics
//                                        registry as one JSON object)
//   --ping                               liveness probe
//   --shutdown                           stop the daemon
// Build options:
//   --condense {max|min|avg}  --three-three {none|third|all}
//   --max-exact N  --budget NODES  --deadline MILLIS  --no-cache
//   --polish  --json
// QoS options (protocol v3; daemon must run with --qos for them to
// change scheduling):
//   --priority {low|normal|high}  scheduling priority
//   --deadline-ms MILLIS          alias of --deadline
//   --tenant NAME                 fair-share / rate-limit bucket
// Connection options:
//   --retries N      retry a failed connect up to N times (default 0)
//   --backoff-ms MS  initial retry delay, doubled per attempt and
//                    capped at 5000ms (default 100)
//
//===----------------------------------------------------------------------===//

#include "matrix/MatrixIO.h"
#include "service/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace mutk;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --connect unix:PATH|HOST:PORT\n"
      "       (--matrix FILE | --generate KIND --species N [--seed S]\n"
      "        | --stats [--json] | --ping | --shutdown)\n"
      "       [--condense max|min|avg] [--three-three none|third|all]\n"
      "       [--max-exact N] [--budget NODES] [--deadline MS]\n"
      "       [--no-cache] [--polish] [--json]\n"
      "       [--priority low|normal|high] [--deadline-ms MS]"
      " [--tenant NAME]\n"
      "       [--retries N] [--backoff-ms MS]\n",
      Argv0);
  return 1;
}

/// Escapes a string for embedding in a JSON literal.
std::string jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

void printBuildJson(const BuildResponse &R) {
  std::printf("{\"error\":\"%s\",", serviceErrorName(R.Error));
  if (!R.ok()) {
    std::printf("\"message\":\"%s\",\"advice\":\"%s\"}\n",
                jsonEscape(R.Message).c_str(),
                jsonEscape(serviceErrorAdvice(R.Error)).c_str());
    return;
  }
  std::printf("\"cost\":%.10g,\"exact\":%s,\"cache_hit\":%s,"
              "\"block_cache_hits\":%u,\"branched\":%llu,"
              "\"dirty_blocks\":%u,\"clean_blocks\":%u,"
              "\"tier\":\"%s\",\"predicted_ms\":%.3f,\"coalesced\":%s,"
              "\"queue_ms\":%.3f,\"solve_ms\":%.3f,"
              "\"blocks\":%zu,\"newick\":\"%s\"}\n",
              R.Cost, R.Exact ? "true" : "false",
              R.CacheHit ? "true" : "false", R.BlockCacheHits,
              static_cast<unsigned long long>(R.Branched),
              R.DirtyBlocks, R.CleanBlocks,
              qosTierName(R.Tier), R.PredictedMillis,
              R.Coalesced ? "true" : "false", R.QueueMillis, R.SolveMillis,
              R.Blocks.size(), jsonEscape(R.Newick).c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string Connect, MatrixPath, Generate;
  bool Stats = false, Ping = false, Shutdown = false, Json = false;
  int ConnectRetries = 0;
  long ConnectBackoffMillis = 100;
  constexpr long MaxBackoffMillis = 5000;
  BuildRequest Request;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--connect" && (V = next()))
      Connect = V;
    else if (Arg == "--matrix" && (V = next()))
      MatrixPath = V;
    else if (Arg == "--generate" && (V = next()))
      Generate = V;
    else if (Arg == "--species" && (V = next()))
      Request.GenSpecies = std::atoi(V);
    else if (Arg == "--seed" && (V = next()))
      Request.GenSeed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--condense" && (V = next())) {
      std::string Mode = V;
      if (Mode == "max")
        Request.Mode = CondenseMode::Maximum;
      else if (Mode == "min")
        Request.Mode = CondenseMode::Minimum;
      else if (Mode == "avg")
        Request.Mode = CondenseMode::Average;
      else
        return usage(argv[0]);
    } else if (Arg == "--three-three" && (V = next())) {
      std::string Mode = V;
      if (Mode == "none")
        Request.ThreeThree = ThreeThreeMode::None;
      else if (Mode == "third")
        Request.ThreeThree = ThreeThreeMode::ThirdSpecies;
      else if (Mode == "all")
        Request.ThreeThree = ThreeThreeMode::AllInsertions;
      else
        return usage(argv[0]);
    } else if (Arg == "--max-exact" && (V = next()))
      Request.MaxExactBlockSize = std::atoi(V);
    else if (Arg == "--budget" && (V = next()))
      Request.NodeBudget = std::strtoull(V, nullptr, 10);
    else if ((Arg == "--deadline" || Arg == "--deadline-ms") && (V = next()))
      Request.DeadlineMillis =
          static_cast<std::uint32_t>(std::strtoul(V, nullptr, 10));
    else if (Arg == "--priority" && (V = next())) {
      std::string P = V;
      if (P == "low")
        Request.Priority = RequestPriority::Low;
      else if (P == "normal")
        Request.Priority = RequestPriority::Normal;
      else if (P == "high")
        Request.Priority = RequestPriority::High;
      else
        return usage(argv[0]);
    } else if (Arg == "--tenant" && (V = next()))
      Request.Tenant = V;
    else if (Arg == "--no-cache")
      Request.UseCache = false;
    else if (Arg == "--polish")
      Request.Polish = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--ping")
      Ping = true;
    else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--json")
      Json = true;
    else if (Arg == "--retries" && (V = next()))
      ConnectRetries = std::max(0, std::atoi(V));
    else if (Arg == "--backoff-ms" && (V = next()))
      // Clamp into [1, cap] up front: values beyond the cap would only
      // be cut down after the first (absurdly long) sleep otherwise.
      ConnectBackoffMillis =
          std::min(std::max(1L, std::strtol(V, nullptr, 10)),
                   MaxBackoffMillis);
    else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n",
                   Arg.c_str());
      return usage(argv[0]);
    }
  }
  if (Connect.empty())
    return usage(argv[0]);

  ServiceClient Client;
  std::string Error;
  std::size_t Colon = std::string::npos;
  bool IsUnix = Connect.rfind("unix:", 0) == 0;
  if (!IsUnix) {
    Colon = Connect.rfind(':');
    if (Colon == std::string::npos) {
      std::fprintf(stderr, "error: --connect expects unix:PATH or "
                           "HOST:PORT\n");
      return 1;
    }
  }

  // Connect with capped exponential backoff: daemon restarts (e.g. a
  // crash-recovery bounce with --state-dir) briefly close the socket,
  // and a scripted client should ride that out instead of failing.
  bool Connected = false;
  long BackoffMillis = ConnectBackoffMillis;
  for (int Attempt = 0;; ++Attempt) {
    Connected = IsUnix
                    ? Client.connectUnix(Connect.substr(5), &Error)
                    : Client.connectTcp(Connect.substr(0, Colon),
                                        std::atoi(Connect.c_str() + Colon + 1),
                                        &Error);
    if (Connected || Attempt >= ConnectRetries)
      break;
    std::fprintf(stderr, "connect failed (%s), retry %d/%d in %ldms\n",
                 Error.c_str(), Attempt + 1, ConnectRetries, BackoffMillis);
    std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMillis));
    BackoffMillis = nextBackoffMillis(BackoffMillis, MaxBackoffMillis);
  }
  if (!Connected) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (Ping) {
    if (!Client.ping(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (Shutdown) {
    if (!Client.shutdownServer(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }
  if (Stats) {
    if (Json) {
      // The StatsJson verb answers with the whole metrics registry —
      // queue, cache, request-latency and B&B counters — merged with
      // the per-instance snapshot.
      std::optional<std::string> S = Client.statsJson(&Error);
      if (!S) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      std::printf("%s\n", S->c_str());
      return 0;
    }
    std::optional<StatsSnapshot> S = Client.stats(&Error);
    if (!S) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("accepted:     %llu\ncompleted:    %llu\nfailed:       "
                "%llu\nwhole cache:  %llu hits / %llu misses\nblock cache: "
                " %llu hits / %llu misses (%llu remote)\n"
                "deadline:     %llu expired\n"
                "rejected:     %llu\n"
                "qos:          %llu shed, %llu rate-limited, %llu coalesced\n"
                "tiers:        %llu exact / %llu pipeline / %llu heuristic\n"
                "queue depth:  %llu\ncache size:   "
                "%llu\nlatency:      p50 %.2fms p95 %.2fms\n",
                static_cast<unsigned long long>(S->Accepted),
                static_cast<unsigned long long>(S->Completed),
                static_cast<unsigned long long>(S->Failed),
                static_cast<unsigned long long>(S->WholeHits),
                static_cast<unsigned long long>(S->WholeMisses),
                static_cast<unsigned long long>(S->BlockHits),
                static_cast<unsigned long long>(S->BlockMisses),
                static_cast<unsigned long long>(S->BlockRemoteHits),
                static_cast<unsigned long long>(S->DeadlineExpired),
                static_cast<unsigned long long>(S->Rejected),
                static_cast<unsigned long long>(S->Shed),
                static_cast<unsigned long long>(S->RateLimited),
                static_cast<unsigned long long>(S->Coalesced),
                static_cast<unsigned long long>(S->TierExact),
                static_cast<unsigned long long>(S->TierPipeline),
                static_cast<unsigned long long>(S->TierHeuristic),
                static_cast<unsigned long long>(S->QueueDepth),
                static_cast<unsigned long long>(S->CacheEntries),
                S->P50Millis, S->P95Millis);
    return 0;
  }

  // Build job: inline matrix or server-side generator.
  if (!MatrixPath.empty()) {
    std::string IoError;
    auto Loaded = readMatrixFile(MatrixPath, &IoError);
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", IoError.c_str());
      return 1;
    }
    Request.Matrix = std::move(*Loaded);
    Request.Generator = GeneratorKind::None;
  } else if (Generate == "uniform")
    Request.Generator = GeneratorKind::Uniform;
  else if (Generate == "clustered")
    Request.Generator = GeneratorKind::Clustered;
  else if (Generate == "ultrametric")
    Request.Generator = GeneratorKind::Ultrametric;
  else if (Generate == "dna")
    Request.Generator = GeneratorKind::Dna;
  else
    return usage(argv[0]);

  std::optional<BuildResponse> Resp = Client.build(Request, &Error);
  if (!Resp) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Json) {
    printBuildJson(*Resp);
    return Resp->ok() ? 0 : 1;
  }
  if (!Resp->ok()) {
    // Errors carry their own advice line: QueueFull means overload
    // (retry with backoff), ShuttingDown means a dying daemon (go
    // elsewhere), Shed/RateLimited are QoS decisions the caller can
    // change. Keeping them distinct here is what makes the status codes
    // actionable from a shell script.
    std::fprintf(stderr, "error [%s]: %s\n", serviceErrorName(Resp->Error),
                 Resp->Message.c_str());
    const char *Advice = serviceErrorAdvice(Resp->Error);
    if (Advice[0] != '\0')
      std::fprintf(stderr, "hint: %s\n", Advice);
    return 1;
  }
  std::printf("cost:     %.4f%s\n", Resp->Cost,
              Resp->Exact ? "  (all blocks exact)" : "");
  std::printf("tier:     %s%s%s\n", qosTierName(Resp->Tier),
              Resp->Coalesced ? ", coalesced onto an identical in-flight job"
                              : "",
              Resp->PredictedMillis > 0.0 ? "" : " (no prediction)");
  if (Resp->PredictedMillis > 0.0)
    std::printf("predict:  %.3fms\n", Resp->PredictedMillis);
  std::printf("cache:    %s, %u block hit(s)\n",
              Resp->CacheHit ? "whole-matrix hit" : "miss",
              Resp->BlockCacheHits);
  std::printf("time:     %.3fms queued + %.3fms solve, branched %llu\n",
              Resp->QueueMillis, Resp->SolveMillis,
              static_cast<unsigned long long>(Resp->Branched));
  std::printf("blocks:   %zu\n", Resp->Blocks.size());
  std::printf("newick:   %s\n", Resp->Newick.c_str());
  return 0;
}

//===- service/Client.h - mutkd client library ------------------*- C++ -*-===//
///
/// \file
/// Blocking client for the `mutkd` wire protocol: connect over a Unix
/// or TCP socket, then issue `build`/`stats`/`ping`/`shutdownServer`
/// calls that each send one frame and wait for the answering frame.
/// One client drives one connection and is not thread-safe; spawn one
/// client per thread for closed-loop load generation.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_CLIENT_H
#define MUTK_SERVICE_CLIENT_H

#include "service/Protocol.h"

#include <optional>
#include <string>

namespace mutk {

/// One step of capped exponential backoff: doubles \p CurrentMillis,
/// saturating at \p CapMillis. Written to never overflow: doubling only
/// happens below `CapMillis / 2`, so `CurrentMillis * 2 <= CapMillis`
/// always holds when evaluated — a naive `min(Current * 2, Cap)` wraps
/// to a negative delay once `Current` exceeds `LONG_MAX / 2` (a huge
/// user-supplied `--backoff-ms` gets there on the first retry).
constexpr long nextBackoffMillis(long CurrentMillis, long CapMillis) {
  if (CurrentMillis >= CapMillis / 2)
    return CapMillis;
  return CurrentMillis < 1 ? 1 : CurrentMillis * 2;
}

/// Synchronous framed-protocol client.
class ServiceClient {
public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient &) = delete;
  ServiceClient &operator=(const ServiceClient &) = delete;

  bool connectUnix(const std::string &Path, std::string *Error = nullptr);
  bool connectTcp(const std::string &Host, int Port,
                  std::string *Error = nullptr);
  void disconnect();
  bool connected() const { return Fd >= 0; }

  /// Sends a Build request; nullopt on transport failure (the response
  /// object itself carries service-level errors).
  std::optional<BuildResponse> build(const BuildRequest &Request,
                                     std::string *Error = nullptr);

  std::optional<StatsSnapshot> stats(std::string *Error = nullptr);

  /// Full metrics-registry dump (the `StatsJson` verb): one JSON string
  /// with queue, cache, request-latency and B&B counters. Schema in
  /// `docs/observability.md`.
  std::optional<std::string> statsJson(std::string *Error = nullptr);

  /// Liveness probe.
  bool ping(std::string *Error = nullptr);

  /// Asks the server to stop accepting and shut down.
  bool shutdownServer(std::string *Error = nullptr);

private:
  /// Sends one encoded request frame and decodes the answering frame.
  std::optional<Response> roundTrip(const std::vector<std::uint8_t> &Payload,
                                    std::string *Error);
  /// Round trip for the body-less verbs.
  std::optional<Response> roundTrip(Verb V, std::string *Error);

  int Fd = -1;
};

} // namespace mutk

#endif // MUTK_SERVICE_CLIENT_H

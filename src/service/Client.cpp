//===- service/Client.cpp - mutkd client library --------------------------===//

#include "service/Client.h"

#include "service/Transport.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace mutk;

namespace {

void fillError(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What;
}

} // namespace

ServiceClient::~ServiceClient() { disconnect(); }

void ServiceClient::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool ServiceClient::connectUnix(const std::string &Path, std::string *Error) {
  disconnect();
  Fd = connectUnixSocket(Path, Error);
  return Fd >= 0;
}

bool ServiceClient::connectTcp(const std::string &Host, int Port,
                               std::string *Error) {
  disconnect();
  Fd = connectTcpSocket(Host, Port, 0, Error);
  return Fd >= 0;
}

std::optional<Response>
ServiceClient::roundTrip(const std::vector<std::uint8_t> &Payload,
                         std::string *Error) {
  if (Fd < 0) {
    fillError(Error, "not connected");
    return std::nullopt;
  }
  if (!writeFrame(Fd, Payload)) {
    // EPIPE here means the daemon went away between requests (writes
    // use MSG_NOSIGNAL, so the hangup surfaces as errno, not SIGPIPE).
    fillError(Error, std::string("send: ") + std::strerror(errno));
    return std::nullopt;
  }
  std::vector<std::uint8_t> Answer;
  if (FrameError E = readFrame(Fd, Answer); E != FrameError::None) {
    fillError(Error, std::string("connection closed while awaiting "
                                 "response: ") +
                         frameErrorName(E));
    return std::nullopt;
  }
  std::string DecodeError;
  std::optional<Response> Resp = decodeResponse(Answer, &DecodeError);
  if (!Resp)
    fillError(Error, "bad response: " + DecodeError);
  return Resp;
}

std::optional<Response> ServiceClient::roundTrip(Verb V, std::string *Error) {
  Request R;
  R.V = V;
  return roundTrip(encodeRequest(R), Error);
}

std::optional<BuildResponse> ServiceClient::build(const BuildRequest &Request,
                                                  std::string *Error) {
  std::optional<Response> Resp = roundTrip(encodeBuildRequest(Request), Error);
  if (!Resp)
    return std::nullopt;
  if (!Resp->ok()) {
    // Error responses carry no build body (whether the failure was
    // protocol-level, e.g. BadFrame, or service-level, e.g. BadRequest),
    // so the outer code must be copied in — returning Resp->Build here
    // would silently report a default-constructed success.
    BuildResponse Out;
    Out.Error = Resp->Error;
    Out.Message = Resp->Message;
    return Out;
  }
  return std::move(Resp->Build);
}

std::optional<StatsSnapshot> ServiceClient::stats(std::string *Error) {
  std::optional<Response> Resp = roundTrip(Verb::Stats, Error);
  if (!Resp)
    return std::nullopt;
  if (!Resp->ok()) {
    fillError(Error, Resp->Message);
    return std::nullopt;
  }
  return Resp->Stats;
}

std::optional<std::string> ServiceClient::statsJson(std::string *Error) {
  std::optional<Response> Resp = roundTrip(Verb::StatsJson, Error);
  if (!Resp)
    return std::nullopt;
  if (!Resp->ok()) {
    fillError(Error, Resp->Message);
    return std::nullopt;
  }
  return Resp->StatsJson;
}

bool ServiceClient::ping(std::string *Error) {
  std::optional<Response> Resp = roundTrip(Verb::Ping, Error);
  return Resp && Resp->ok();
}

bool ServiceClient::shutdownServer(std::string *Error) {
  std::optional<Response> Resp = roundTrip(Verb::Shutdown, Error);
  return Resp && Resp->ok();
}

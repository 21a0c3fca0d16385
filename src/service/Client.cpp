//===- service/Client.cpp - mutkd client library --------------------------===//

#include "service/Client.h"

#include "service/Server.h" // readFrame/writeFrame

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mutk;

namespace {

void fillError(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What;
}

void fillErrno(std::string *Error, const char *What) {
  fillError(Error, std::string(What) + ": " + std::strerror(errno));
}

/// ::connect with EINTR handling. A blocking connect interrupted by a
/// signal keeps establishing the connection in the background; calling
/// connect again is unspecified (EALREADY/EISCONN), so the interrupted
/// attempt must be finished by polling for writability and reading the
/// final status from SO_ERROR.
bool connectFd(int Fd, const sockaddr *Addr, socklen_t Len) {
  if (::connect(Fd, Addr, Len) == 0)
    return true;
  if (errno != EINTR)
    return false;
  pollfd P{};
  P.fd = Fd;
  P.events = POLLOUT;
  while (::poll(&P, 1, -1) < 0)
    if (errno != EINTR)
      return false;
  int Status = 0;
  socklen_t StatusLen = sizeof(Status);
  if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Status, &StatusLen) < 0)
    return false;
  if (Status != 0) {
    errno = Status;
    return false;
  }
  return true;
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
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path)) {
    fillError(Error, "unix socket path too long");
    return false;
  }
  int NewFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (NewFd < 0) {
    fillErrno(Error, "socket");
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (!connectFd(NewFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr))) {
    fillErrno(Error, "connect");
    ::close(NewFd);
    return false;
  }
  Fd = NewFd;
  return true;
}

bool ServiceClient::connectTcp(const std::string &Host, int Port,
                               std::string *Error) {
  disconnect();
  int NewFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (NewFd < 0) {
    fillErrno(Error, "socket");
    return false;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    fillError(Error, "invalid address '" + Host + "' (numeric IPv4)");
    ::close(NewFd);
    return false;
  }
  if (!connectFd(NewFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr))) {
    fillErrno(Error, "connect");
    ::close(NewFd);
    return false;
  }
  Fd = NewFd;
  return true;
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
    fillErrno(Error, "send");
    return std::nullopt;
  }
  std::vector<std::uint8_t> Answer;
  if (!readFrame(Fd, Answer)) {
    fillError(Error, "connection closed while awaiting response");
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

//===- service/Server.cpp - Socket frontend for TreeService ---------------===//

#include "service/Server.h"

#include "obs/Instruments.h"
#include "obs/Log.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mutk;

namespace {

bool readAll(int Fd, void *Buffer, std::size_t Count) {
  auto *Bytes = static_cast<std::uint8_t *>(Buffer);
  while (Count > 0) {
    ssize_t Got = ::read(Fd, Bytes, Count);
    if (Got == 0)
      return false; // orderly EOF
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Bytes += Got;
    Count -= static_cast<std::size_t>(Got);
  }
  return true;
}

bool writeAll(int Fd, const void *Buffer, std::size_t Count) {
  const auto *Bytes = static_cast<const std::uint8_t *>(Buffer);
  while (Count > 0) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not as a
    // process-killing SIGPIPE (neither daemon nor client installs
    // handlers).
    ssize_t Put = ::send(Fd, Bytes, Count, MSG_NOSIGNAL);
    if (Put < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Bytes += Put;
    Count -= static_cast<std::size_t>(Put);
  }
  return true;
}

void fillError(std::string *Error, const char *What) {
  if (Error)
    *Error = std::string(What) + ": " + std::strerror(errno);
}

} // namespace

bool mutk::readFrame(int Fd, std::vector<std::uint8_t> &Payload) {
  std::uint8_t Header[4];
  if (!readAll(Fd, Header, sizeof(Header)))
    return false;
  std::uint32_t Length = 0;
  for (int I = 0; I < 4; ++I)
    Length |= static_cast<std::uint32_t>(Header[I]) << (8 * I);
  if (Length > MaxFrameBytes)
    return false;
  Payload.resize(Length);
  return Length == 0 || readAll(Fd, Payload.data(), Length);
}

bool mutk::writeFrame(int Fd, const std::vector<std::uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  std::uint8_t Header[4];
  std::uint32_t Length = static_cast<std::uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Header[I] = static_cast<std::uint8_t>(Length >> (8 * I));
  return writeAll(Fd, Header, sizeof(Header)) &&
         (Payload.empty() || writeAll(Fd, Payload.data(), Payload.size()));
}

SocketServer::SocketServer(TreeService &Service) : Service(Service) {}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "unix socket path too long";
    return false;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillError(Error, "socket");
    return false;
  }
  ::unlink(Path.c_str()); // stale socket from a previous run
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    fillError(Error, "bind/listen");
    ::close(Fd);
    return false;
  }
  ListenFd = Fd;
  UnixPath = Path;
  return true;
}

bool SocketServer::listenTcp(const std::string &Host, int Port,
                             std::string *Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillError(Error, "socket");
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "invalid address '" + Host + "' (numeric IPv4 expected)";
    ::close(Fd);
    return false;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    fillError(Error, "bind/listen");
    ::close(Fd);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  ListenFd = Fd;
  return true;
}

void SocketServer::start() {
  if (ListenFd < 0 || Running.exchange(true))
    return;
  Acceptor = std::thread([this] { acceptLoop(); });
}

void SocketServer::acceptLoop() {
  while (Running.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd.load(std::memory_order_acquire), nullptr,
                      nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listener closed by stop()
    }
    MutexLock Lock(Mu);
    if (!Running.load(std::memory_order_acquire)) {
      ::close(Fd);
      break;
    }
    LiveFds.push_back(Fd);
    obs::ServerInstruments &I = obs::serverInstruments();
    I.ConnectionsAccepted.inc();
    I.ConnectionsActive.add(1);
    obs::log(obs::LogLevel::Debug, "server", "connection accepted")
        .kv("fd", Fd)
        .kv("active", LiveFds.size());
    Connections.emplace_back([this, Fd] { serveConnection(Fd); });
  }
}

void SocketServer::serveConnection(int Fd) {
  obs::ServerInstruments &I = obs::serverInstruments();
  std::vector<std::uint8_t> Payload;
  while (Running.load(std::memory_order_acquire) && readFrame(Fd, Payload)) {
    I.FramesRead.inc();
    std::string DecodeError;
    std::optional<Request> Req = decodeRequest(Payload, &DecodeError);
    if (!Req) {
      I.ParseErrors.inc();
      obs::log(obs::LogLevel::Warn, "server", "undecodable request frame")
          .kv("fd", Fd)
          .kv("error", DecodeError)
          .kv("bytes", Payload.size());
    }
    const bool Shutdown = Req && Req->V == Verb::Shutdown;
    Response Resp =
        Req ? Service.handle(std::move(*Req))
            : makeErrorResponse(Verb::Ping, ServiceError::BadFrame,
                                DecodeError);
    if (!writeFrame(Fd, encodeResponse(Resp))) {
      // A peer that hung up before reading its response raises EPIPE
      // (writes use MSG_NOSIGNAL) — that is a normal close, not an
      // error; anything else on the write path deserves a warning.
      if (errno == EPIPE || errno == ECONNRESET)
        obs::log(obs::LogLevel::Debug, "server", "peer closed mid-write")
            .kv("fd", Fd);
      else
        obs::log(obs::LogLevel::Warn, "server", "response write failed")
            .kv("fd", Fd)
            .kv("error", std::strerror(errno));
      break;
    }
    if (Shutdown) {
      obs::log(obs::LogLevel::Info, "server", "shutdown requested")
          .kv("fd", Fd);
      requestShutdown();
      break;
    }
  }
  I.ConnectionsActive.sub(1);
  obs::log(obs::LogLevel::Debug, "server", "connection closed").kv("fd", Fd);
  MutexLock Lock(Mu);
  LiveFds.erase(std::remove(LiveFds.begin(), LiveFds.end(), Fd),
                LiveFds.end());
  ::close(Fd);
}

void SocketServer::requestShutdown() {
  MutexLock Lock(Mu);
  ShutdownRequested = true;
  ShutdownCv.notify_all();
}

void SocketServer::waitForShutdown() {
  MutexLock Lock(Mu);
  while (!ShutdownRequested)
    ShutdownCv.wait(Lock);
}

void SocketServer::stop() {
  MutexLock StopLock(StopMu);
  if (!Running.exchange(false)) {
    // Never started (or already stopped): still release the listener.
    int Fd = ListenFd.exchange(-1);
    if (Fd >= 0)
      ::close(Fd);
  } else {
    // Closing the listener unblocks accept(); shutdown() covers the
    // accept-in-progress race on Linux.
    int Fd = ListenFd.exchange(-1);
    if (Fd >= 0) {
      ::shutdown(Fd, SHUT_RDWR);
      ::close(Fd);
    }
    if (Acceptor.joinable())
      Acceptor.join();
  }
  std::vector<std::thread> Live;
  {
    MutexLock Lock(Mu);
    // Wake connection threads blocked in readFrame; they close their
    // own fds on exit (under Mu, so these fds cannot be recycled yet).
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RDWR);
    Live.swap(Connections);
    ShutdownRequested = true;
    ShutdownCv.notify_all();
  }
  for (std::thread &T : Live)
    T.join();
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}

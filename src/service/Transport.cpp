//===- service/Transport.cpp - Framed socket transport --------------------===//

#include "service/Transport.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mutk;

namespace {

void fillErrno(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What + ": " + std::strerror(errno);
}

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Reads exactly \p Size bytes: `Eof` when the peer closed before the
/// first byte, `Truncated` on any other shortfall (including a recv
/// timeout).
FrameError readExactly(int Fd, std::uint8_t *Data, std::size_t Size) {
  for (std::size_t Done = 0; Done < Size;) {
    ssize_t Got = ::recv(Fd, Data + Done, Size - Done, 0);
    if (Got > 0) {
      Done += static_cast<std::size_t>(Got);
      continue;
    }
    if (Got < 0 && errno == EINTR)
      continue;
    return Got == 0 && Done == 0 ? FrameError::Eof : FrameError::Truncated;
  }
  return FrameError::None;
}

bool unixAddress(const std::string &Path, sockaddr_un &Addr,
                 std::string *Error) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "unix socket path too long";
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// Opens a socket of \p Family and connects it to \p Addr without
/// blocking, waiting for the handshake for at most \p TimeoutSeconds
/// (<= 0: no limit; `poll` is retried on EINTR). \returns the fd, in
/// blocking mode again, or -1 with errno set.
int openConnection(int Family, const sockaddr *Addr, socklen_t Len,
                   double TimeoutSeconds) {
  int Fd = ::socket(Family, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (Fd < 0)
    return -1;
  int Status = 0;
  if (::connect(Fd, Addr, Len) != 0) {
    Status = errno;
    if (Status == EINPROGRESS) {
      pollfd P{Fd, POLLOUT, 0};
      const int WaitMillis =
          TimeoutSeconds > 0 ? static_cast<int>(TimeoutSeconds * 1000.0) : -1;
      int Ready = 0;
      while ((Ready = ::poll(&P, 1, WaitMillis)) < 0 && errno == EINTR) {
      }
      socklen_t StatusLen = sizeof(Status);
      if (Ready < 0)
        Status = errno;
      else if (Ready == 0)
        Status = ETIMEDOUT;
      else if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Status, &StatusLen) != 0)
        Status = errno;
    }
  }
  if (Status == 0 &&
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) & ~O_NONBLOCK) != 0)
    Status = errno;
  if (Status != 0) {
    ::close(Fd);
    errno = Status;
    return -1;
  }
  return Fd;
}

/// Opens a socket of \p Family listening on \p Addr. \returns the fd, or
/// -1 with \p Error filled.
int openListener(int Family, const sockaddr *Addr, socklen_t Len,
                 const std::string &Where, std::string *Error) {
  int Fd = ::socket(Family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    fillErrno(Error, "socket");
    return -1;
  }
  int One = 1;
  if (Family == AF_INET)
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, Addr, Len) != 0 || ::listen(Fd, 64) != 0) {
    fillErrno(Error, "bind " + Where);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

const char *mutk::frameErrorName(FrameError Error) {
  switch (Error) {
  case FrameError::None:
    return "none";
  case FrameError::Eof:
    return "eof";
  case FrameError::Truncated:
    return "truncated";
  case FrameError::Oversized:
    return "oversized";
  case FrameError::BadVerb:
    return "bad_verb";
  }
  return "?";
}

FrameError mutk::readFrame(int Fd, std::vector<std::uint8_t> &Payload) {
  std::uint8_t Prefix[4];
  if (FrameError E = readExactly(Fd, Prefix, sizeof(Prefix));
      E != FrameError::None)
    return E;
  std::uint32_t Length = 0;
  for (int I = 0; I < 4; ++I)
    Length |= static_cast<std::uint32_t>(Prefix[I]) << (8 * I);
  // Never trust the peer's length: validate before allocating.
  if (Length > MaxFrameBytes)
    return FrameError::Oversized;
  Payload.resize(Length);
  FrameError E = readExactly(Fd, Payload.data(), Length);
  return E == FrameError::Eof ? FrameError::Truncated : E;
}

bool mutk::writeFrame(int Fd, const std::vector<std::uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  const auto Length = static_cast<std::uint32_t>(Payload.size());
  std::uint8_t Prefix[4];
  for (int I = 0; I < 4; ++I)
    Prefix[I] = static_cast<std::uint8_t>(Length >> (8 * I));
  iovec Parts[2] = {{Prefix, sizeof(Prefix)},
                    {const_cast<std::uint8_t *>(Payload.data()),
                     Payload.size()}};
  msghdr Msg{};
  Msg.msg_iov = Parts;
  Msg.msg_iovlen = 2;
  std::size_t Left = sizeof(Prefix) + Payload.size();
  while (Left > 0) {
    ssize_t Put = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (Put < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Left -= static_cast<std::size_t>(Put);
    // Partial write: skip what the kernel took and send the rest.
    for (auto Sent = static_cast<std::size_t>(Put); Sent > 0;) {
      iovec &Front = Msg.msg_iov[0];
      std::size_t Step = std::min(Sent, Front.iov_len);
      Front.iov_base = static_cast<std::uint8_t *>(Front.iov_base) + Step;
      Front.iov_len -= Step;
      Sent -= Step;
      if (Front.iov_len == 0) {
        ++Msg.msg_iov;
        --Msg.msg_iovlen;
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Listening
//===----------------------------------------------------------------------===//

SocketListener::~SocketListener() { stop(); }

bool SocketListener::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr{};
  if (!unixAddress(Path, Addr, Error))
    return false;
  ::unlink(Path.c_str()); // stale socket from a previous run
  int Fd = openListener(AF_UNIX, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr), Path, Error);
  if (Fd < 0)
    return false;
  ListenFd.store(Fd, std::memory_order_release);
  UnixPath = Path;
  return true;
}

bool SocketListener::listenTcp(const std::string &Host, int Port,
                               std::string *Error) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "invalid address '" + Host + "' (numeric IPv4 expected)";
    return false;
  }
  int Fd = openListener(AF_INET, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr), Host + ":" + std::to_string(Port), Error);
  if (Fd < 0)
    return false;
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  ListenFd.store(Fd, std::memory_order_release);
  Tcp = true;
  return true;
}

void SocketListener::start(Handler NewServe) {
  MutexLock StopLock(StopMu);
  MutexLock Lock(Mu);
  if (ListenFd.load(std::memory_order_acquire) < 0 || Accepting)
    return;
  Serve = std::move(NewServe);
  Accepting = true;
  Acceptor = std::thread([this] { acceptLoop(); });
}

void SocketListener::acceptLoop() {
  for (;;) {
    int Fd = ::accept4(ListenFd.load(std::memory_order_acquire), nullptr,
                       nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener closed by stop()
    }
    if (Tcp)
      setNoDelay(Fd);
    std::vector<std::thread> Done;
    {
      MutexLock Lock(Mu);
      if (!Accepting) {
        ::close(Fd);
        return;
      }
      for (std::thread::id Id : Finished) {
        auto It = std::find_if(
            Connections.begin(), Connections.end(),
            [Id](const std::thread &T) { return T.get_id() == Id; });
        assert(It != Connections.end() && "finished thread not registered");
        Done.push_back(std::move(*It));
        Connections.erase(It);
      }
      Finished.clear();
      LiveFds.push_back(Fd);
      Connections.emplace_back([this, Fd] { serve(Fd); });
    }
    // Each of these threads has only its return left; join it outside
    // `listener.state`.
    for (std::thread &T : Done)
      T.join();
  }
}

void SocketListener::serve(int Fd) {
  Serve(Fd);
  MutexLock Lock(Mu);
  LiveFds.erase(std::remove(LiveFds.begin(), LiveFds.end(), Fd),
                LiveFds.end());
  ::close(Fd);
  Finished.push_back(std::this_thread::get_id());
}

void SocketListener::stop() {
  MutexLock StopLock(StopMu);
  {
    MutexLock Lock(Mu);
    Accepting = false;
  }
  // Closing the listener unblocks accept(); shutdown() covers the
  // accept-in-progress race on Linux. A listener that never started is
  // still released.
  if (int Fd = ListenFd.exchange(-1); Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::thread> Live;
  {
    MutexLock Lock(Mu);
    // Wake handlers blocked in a read; `serve` closes each fd when its
    // handler returns (under Mu, so none of these can be recycled yet).
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RDWR);
    Live.swap(Connections);
  }
  for (std::thread &T : Live)
    T.join();
  {
    // Every thread that could report itself finished is joined.
    MutexLock Lock(Mu);
    Finished.clear();
  }
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}

//===----------------------------------------------------------------------===//
// Connecting
//===----------------------------------------------------------------------===//

int mutk::connectUnixSocket(const std::string &Path, std::string *Error) {
  sockaddr_un Addr{};
  if (!unixAddress(Path, Addr, Error))
    return -1;
  int Fd = openConnection(AF_UNIX, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr), 0);
  if (Fd < 0)
    fillErrno(Error, "connect " + Path);
  return Fd;
}

int mutk::connectTcpSocket(const std::string &Host, int Port,
                           double TimeoutSeconds, std::string *Error) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_NUMERICSERV;
  addrinfo *Results = nullptr;
  const std::string PortText = std::to_string(Port);
  if (int Rc = ::getaddrinfo(Host.c_str(), PortText.c_str(), &Hints, &Results);
      Rc != 0) {
    if (Error)
      *Error = "resolve " + Host + ": " + ::gai_strerror(Rc);
    return -1;
  }
  int Fd = -1;
  for (addrinfo *A = Results; A && Fd < 0; A = A->ai_next)
    Fd = openConnection(A->ai_family, A->ai_addr, A->ai_addrlen,
                        TimeoutSeconds);
  ::freeaddrinfo(Results);
  if (Fd < 0)
    fillErrno(Error, "connect " + Host + ":" + PortText);
  else
    setNoDelay(Fd);
  return Fd;
}

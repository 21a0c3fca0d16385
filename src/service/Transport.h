//===- service/Transport.h - Framed socket transport ------------*- C++ -*-===//
///
/// \file
/// The socket layer of both `mutkd` ports: the client port
/// (`service/Server.h`, `service/Client.h`) and the cluster port with
/// its B&B sessions (`dist/`). It does three jobs, once each:
///
///  * **Frames.** A frame is a little-endian `u32` payload length, then
///    the payload. `readFrame` checks the length against `MaxFrameBytes`
///    before it allocates, so a hostile prefix cannot OOM the reader, and
///    says why a read failed. `writeFrame` sends prefix and payload in one
///    gather write.
///  * **Listening.** `SocketListener` accepts on a Unix path or a TCP
///    address and serves each connection on a thread of its own.
///  * **Connecting.** `connectUnixSocket` and `connectTcpSocket`.
///
/// Every TCP socket, accepted or connected, has `TCP_NODELAY` set: a
/// request/response protocol must not wait for Nagle's algorithm to
/// release a frame while the peer delays its ACK.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_TRANSPORT_H
#define MUTK_SERVICE_TRANSPORT_H

#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace mutk {

/// Upper bound on a frame payload; larger frames are rejected before
/// allocation so a hostile length prefix cannot OOM the reader.
inline constexpr std::uint32_t MaxFrameBytes = 64u << 20;

/// Why a frame could not be read (or, for a codec layered on the frame
/// payload, decoded).
enum class FrameError : std::uint8_t {
  None = 0,
  /// Clean connection end on a frame boundary (0 bytes of a prefix).
  Eof = 1,
  /// Connection died or timed out mid-frame, or a payload shorter than
  /// its codec's fixed prelude.
  Truncated = 2,
  /// Length prefix exceeds `MaxFrameBytes`; nothing was allocated.
  Oversized = 3,
  /// The payload's leading verb byte is unknown to its codec.
  BadVerb = 4,
};

/// Stable lower-case name for a `FrameError` (logs, tests).
const char *frameErrorName(FrameError Error);

/// Blocking read of one frame from a connected socket into \p Payload.
FrameError readFrame(int Fd, std::vector<std::uint8_t> &Payload);

/// Blocking write of one frame: the prefix and \p Payload leave in one
/// `sendmsg` call (looped only on a partial write or EINTR), without
/// copying the payload. `MSG_NOSIGNAL`: a peer that hung up surfaces as
/// EPIPE in errno, not as a SIGPIPE. \returns false on an oversized
/// payload or any socket error.
bool writeFrame(int Fd, const std::vector<std::uint8_t> &Payload);

/// Accepts connections on one Unix-domain or TCP socket and runs a
/// handler for each on a thread of its own. Keeps a registry of live
/// connections so `stop()` never waits for an idle client. Each accept
/// joins the connection threads that have finished since the last one,
/// so a long-lived listener holds threads only for its live connections
/// and the ones that ended after the latest accept.
class SocketListener {
public:
  /// Serves one accepted connection and returns when done with it; the
  /// listener closes \p Fd afterwards.
  using Handler = std::function<void(int Fd)>;

  SocketListener() = default;
  ~SocketListener();

  SocketListener(const SocketListener &) = delete;
  SocketListener &operator=(const SocketListener &) = delete;

  /// Binds a Unix-domain socket at \p Path (unlinks a stale file first;
  /// `stop()` unlinks it again).
  bool listenUnix(const std::string &Path, std::string *Error = nullptr);

  /// Binds a TCP socket on the numeric IPv4 address \p Host. \p Port 0
  /// asks the kernel for an ephemeral port; read it back with `port()`.
  bool listenTcp(const std::string &Host, int Port,
                 std::string *Error = nullptr);

  /// Bound TCP port (-1 before a successful `listenTcp`).
  int port() const { return BoundPort; }

  /// Starts the accept thread; each accepted connection runs \p Serve.
  /// Call after one of the `listen*` calls succeeded.
  void start(Handler Serve);

  /// Stops accepting, closes the listener, shuts down every live
  /// connection (so blocked reads return) and joins all threads.
  /// Idempotent and safe to call from several threads; the destructor
  /// calls it.
  void stop();

  /// Connection threads not joined yet, finished or not.
  std::size_t connectionThreads() {
    MutexLock Lock(Mu);
    return Connections.size();
  }

private:
  void acceptLoop();
  void serve(int Fd);

  /// Atomic: the acceptor thread reads it concurrently with `stop()`
  /// closing the listener and writing -1.
  std::atomic<int> ListenFd{-1};
  bool Tcp = false;
  int BoundPort = -1;
  std::string UnixPath;
  Handler Serve;
  /// Serializes whole `start()` and `stop()` runs. Ordered before `Mu`.
  Mutex StopMu{"listener.stop"};
  Mutex Mu{"listener.state"};
  bool Accepting MUTK_GUARDED_BY(Mu) = false;
  /// Fds of live connections; entries are removed and closed under `Mu`
  /// so `stop()` never shuts down a recycled descriptor.
  std::vector<int> LiveFds MUTK_GUARDED_BY(Mu);
  std::vector<std::thread> Connections MUTK_GUARDED_BY(Mu);
  /// Connection threads whose handler has returned; the next accept
  /// joins them.
  std::vector<std::thread::id> Finished MUTK_GUARDED_BY(Mu);
  std::thread Acceptor;
};

/// Connects to the Unix-domain socket at \p Path. \returns the fd, or -1
/// with \p Error filled.
int connectUnixSocket(const std::string &Path, std::string *Error = nullptr);

/// Connects to \p Host (a name or a numeric address) on \p Port, trying
/// each resolved address for at most \p TimeoutSeconds (<= 0: as long
/// as the kernel tries). \returns the fd, with `TCP_NODELAY` set, or -1
/// with \p Error filled.
int connectTcpSocket(const std::string &Host, int Port,
                     double TimeoutSeconds = 0,
                     std::string *Error = nullptr);

} // namespace mutk

#endif // MUTK_SERVICE_TRANSPORT_H

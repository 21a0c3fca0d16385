//===- service/Server.h - Socket frontend for TreeService -------*- C++ -*-===//
///
/// \file
/// The client port of `mutkd`: listens on a Unix-domain or TCP socket
/// (`service/Transport.h`), reads frames, dispatches decoded requests to
/// a `TreeService`, and writes framed responses back. One thread per
/// connection (connections are expected to be few and long-lived —
/// clients pipeline requests over one socket); the worker pool behind
/// the service provides the actual solve concurrency.
///
/// A `Shutdown` verb is acknowledged on the wire first, then stops the
/// accept loop and wakes `waitForShutdown`, which `mutkd` uses as its
/// run-until-told-otherwise loop.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_SERVER_H
#define MUTK_SERVICE_SERVER_H

#include "service/Service.h"
#include "service/Transport.h"
#include "support/Mutex.h"

#include <string>

namespace mutk {

/// Framed-socket server over a TreeService.
class SocketServer {
public:
  explicit SocketServer(TreeService &Service);
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Binds a Unix-domain socket at \p Path (unlinks a stale file first).
  bool listenUnix(const std::string &Path, std::string *Error = nullptr) {
    return Listener.listenUnix(Path, Error);
  }

  /// Binds a TCP socket on \p Host. \p Port 0 asks the kernel for an
  /// ephemeral port; read it back with `port()`.
  bool listenTcp(const std::string &Host, int Port,
                 std::string *Error = nullptr) {
    return Listener.listenTcp(Host, Port, Error);
  }

  /// Bound TCP port (-1 before a successful `listenTcp`).
  int port() const { return Listener.port(); }

  /// Starts the accept loop in a background thread. Call after one of
  /// the `listen*` calls succeeded.
  void start();

  /// Blocks until a client sends `Shutdown` or `stop()` is called.
  void waitForShutdown();

  /// Stops accepting, closes the listener and every live connection,
  /// and joins all threads. Idempotent and safe to call from several
  /// threads; the destructor calls it.
  void stop();

private:
  void serveConnection(int Fd);
  void requestShutdown();

  TreeService &Service;
  Mutex Mu{"server.state"};
  CondVar ShutdownCv;
  bool ShutdownRequested MUTK_GUARDED_BY(Mu) = false;
  /// Last: destroyed first, so no connection thread outlives the state
  /// above.
  SocketListener Listener;
};

} // namespace mutk

#endif // MUTK_SERVICE_SERVER_H

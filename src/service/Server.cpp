//===- service/Server.cpp - Socket frontend for TreeService ---------------===//

#include "service/Server.h"

#include "obs/Instruments.h"
#include "obs/Log.h"

#include <cerrno>
#include <cstring>

using namespace mutk;

SocketServer::SocketServer(TreeService &Service) : Service(Service) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  Listener.start([this](int Fd) { serveConnection(Fd); });
}

void SocketServer::serveConnection(int Fd) {
  obs::ServerInstruments &I = obs::serverInstruments();
  I.ConnectionsAccepted.inc();
  I.ConnectionsActive.add(1);
  obs::log(obs::LogLevel::Debug, "server", "connection accepted")
      .kv("fd", Fd)
      .kv("active", I.ConnectionsActive.value());
  std::vector<std::uint8_t> Payload;
  FrameError Read = FrameError::None;
  while ((Read = readFrame(Fd, Payload)) == FrameError::None) {
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
  // `read` names why the last read failed ("none" after a write failure
  // or a Shutdown).
  obs::log(obs::LogLevel::Debug, "server", "connection closed")
      .kv("fd", Fd)
      .kv("read", frameErrorName(Read));
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
  Listener.stop();
  requestShutdown();
}

//===- bench/ledger/Daemon.h - A real mutkd under the ledger ----*- C++ -*-===//
///
/// \file
/// Spawns `mutkd` as a child process on a Unix socket and tears it down
/// again, on every path: the `Shutdown` verb first, then a bounded wait,
/// then SIGKILL, and the socket file is removed either way. The child is
/// also tied to the ledger's lifetime (`PR_SET_PDEATHSIG`), so a ledger
/// killed by a timeout takes its daemon with it. Also reads the child's
/// CPU time and peak RSS from `/proc`, and counters from `StatsJson`.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_LEDGER_DAEMON_H
#define MUTK_BENCH_LEDGER_DAEMON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace ledger {

class Daemon {
public:
  struct Options {
    std::string Binary;
    /// Socket path as the daemon and the clients will both see it (may be
    /// relative: the daemon inherits the working directory).
    std::string Socket;
    /// The daemon's stderr (its structured log) goes here.
    std::string LogPath;
    /// Flags after `--unix SOCKET`.
    std::vector<std::string> Args;
  };

  /// Starts the daemon and returns once a `Ping` succeeds, or nullptr
  /// with \p Error set (the child is reaped before returning).
  static std::unique_ptr<Daemon> spawn(const Options &O, std::string *Error);

  /// Tears down if still running.
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// `Shutdown` verb, reap with a timeout, SIGKILL fallback, unlink the
  /// socket. \returns true when the daemon exited 0 by itself.
  bool teardown(std::string *Error = nullptr);

  /// The `build=` field of the daemon's `listening` record.
  const std::string &flavor() const { return Flavor; }

  /// utime + stime of the whole process, in milliseconds.
  std::optional<double> cpuMillis() const;
  /// `VmHWM` (peak resident set), in MiB.
  std::optional<double> peakRssMb() const;

private:
  Daemon() = default;

  Options Opts;
  pid_t Pid = -1;
  bool Reaped = false;
  std::string Flavor;
};

/// The number after `"Key":` in a flat JSON text (the `StatsJson` verb's
/// output); nullopt when the key is absent.
std::optional<double> jsonNumber(const std::string &Json,
                                 const std::string &Key);

/// True while this process has any child, running or unreaped.
bool childProcessesRemain();

} // namespace ledger

#endif // MUTK_BENCH_LEDGER_DAEMON_H

//===- examples/mutkd.cpp - Tree-construction daemon ----------------------===//
//
// The long-lived service binary: a TreeService worker pool behind a
// Unix or TCP socket. Clients (examples/mutk_client.cpp or anything
// speaking the framed protocol of docs/service.md) submit matrices or
// generator specs and receive Newick trees; repeated or relabeled
// queries are answered from the result cache without re-running
// branch-and-bound.
//
// Usage:
//   mutkd --unix PATH | --port N [--host A.B.C.D]
//         [--workers N] [--queue N] [--cache N] [--max-species N]
//         [--block-solver seq|threaded|cluster]
//         [--block-concurrency N] [--threads-per-block N]
//         [--qos [--qos-tenant-rate R] [--qos-tenant-burst B]
//          [--qos-degraded-max-exact N] [--qos-fit-margin F]
//          [--qos-starvation-ms MS] [--qos-no-coalesce]]
//         [--stats-dump PATH [--stats-interval SEC]]
//         [--state-dir DIR]
//         [--cluster-id N --cluster-peers host:port,host:port,...
//          [--cluster-port N] [--cluster-heartbeat SEC]
//          [--cluster-dead-after SEC] [--cluster-no-steal]]
//
// --qos enables the cost-predictive QoS layer (docs/qos.md): requests
// are routed to an exact, degraded-pipeline or heuristic tier by
// predicted cost vs their deadline, hopeless requests are shed up
// front, per-tenant token buckets bound admission rates, the ready
// queue serves priority/EDF order with per-tenant fair sharing, and
// identical in-flight requests coalesce onto one solve.
//
// With --cluster-id/--cluster-peers the daemon also joins a mutkd
// cluster (docs/distributed.md): the peers heartbeat each other over a
// second listener (the port named in the seed list, separate from the
// client --port), shard the result cache by consistent hashing, and
// steal queued jobs from each other when idle.
//
// The daemon runs until a client sends the Shutdown verb (or SIGINT /
// SIGTERM arrives), then drains in-flight jobs and exits 0. Startup,
// shutdown and per-connection events are structured log records on
// stderr (key=value, levels via MUTK_LOG — see docs/observability.md);
// --stats-dump atomically rewrites a Prometheus-style text file with
// every registry metric each interval (default 10s) and once on exit.
// --state-dir makes the daemon crash-safe: solved results persist in a
// snapshot + WAL and are served as cache hits after a restart, accepted
// jobs are journaled and re-run if the process dies mid-solve, and long
// block searches checkpoint so a restart resumes instead of restarting
// them (formats and recovery semantics in docs/persistence.md).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "dist/Cluster.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "persist/Files.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

using namespace mutk;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --unix PATH | --port N [--host IPV4]\n"
               "       [--workers N] [--queue N] [--cache N]"
               " [--max-species N]\n"
               "       [--block-solver seq|threaded|cluster]\n"
               "       [--block-concurrency N] [--threads-per-block N]\n"
               "       [--qos [--qos-tenant-rate R] [--qos-tenant-burst B]\n"
               "        [--qos-degraded-max-exact N] [--qos-fit-margin F]\n"
               "        [--qos-starvation-ms MS] [--qos-no-coalesce]]\n"
               "       [--stats-dump PATH [--stats-interval SEC]]"
               " [--state-dir DIR]\n"
               "       [--cluster-id N --cluster-peers HOST:PORT,...]\n"
               "       [--cluster-port N] [--cluster-heartbeat SEC]"
               " [--cluster-dead-after SEC] [--cluster-no-steal]\n",
               Argv0);
  return 1;
}

/// Writes the full registry in Prometheus text exposition to \p Path,
/// atomically (temp file + rename) so scrapers never read a torn file.
void dumpStats(const std::string &Path) {
  std::string Temp = Path + ".tmp";
  {
    std::ofstream Out(Temp, std::ios::trunc);
    if (!Out) {
      obs::log(obs::LogLevel::Warn, "mutkd", "stats dump failed")
          .kv("path", Temp);
      return;
    }
    Out << obs::MetricsRegistry::global().renderPrometheus();
  }
  if (std::rename(Temp.c_str(), Path.c_str()) != 0)
    obs::log(obs::LogLevel::Warn, "mutkd", "stats dump rename failed")
        .kv("from", Temp)
        .kv("to", Path);
}

/// Periodic stats writer; interruptible sleep so shutdown never waits a
/// full interval.
class StatsDumper {
public:
  StatsDumper(std::string Path, int IntervalSeconds)
      : Path(std::move(Path)), IntervalSeconds(IntervalSeconds),
        Worker([this] { run(); }) {}

  ~StatsDumper() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    Cv.notify_all();
    Worker.join();
    dumpStats(Path); // final totals, post-drain
  }

private:
  void run() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Stopping) {
      Lock.unlock();
      dumpStats(Path);
      Lock.lock();
      Cv.wait_for(Lock, std::chrono::seconds(IntervalSeconds),
                  [this] { return Stopping; });
    }
  }

  std::string Path;
  int IntervalSeconds;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
  std::thread Worker;
};

} // namespace

int main(int argc, char **argv) {
  std::string UnixPath, Host = "127.0.0.1";
  std::string StatsDumpPath;
  int StatsIntervalSeconds = 10;
  int Port = -1;
  ServiceOptions Options;
  dist::ClusterOptions Cluster;
  std::string ClusterPeersText;
  int ClusterId = -1;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--unix" && (V = next()))
      UnixPath = V;
    else if (Arg == "--port" && (V = next()))
      Port = std::atoi(V);
    else if (Arg == "--host" && (V = next()))
      Host = V;
    else if (Arg == "--workers" && (V = next()))
      Options.NumWorkers = std::atoi(V);
    else if (Arg == "--queue" && (V = next()))
      Options.QueueCapacity = static_cast<std::size_t>(std::atoll(V));
    else if (Arg == "--cache" && (V = next()))
      Options.CacheCapacity = static_cast<std::size_t>(std::atoll(V));
    else if (Arg == "--max-species" && (V = next()))
      Options.MaxSpecies = std::atoi(V);
    else if (Arg == "--block-solver" && (V = next())) {
      if (std::strcmp(V, "seq") == 0)
        Options.Solver = BlockSolver::Sequential;
      else if (std::strcmp(V, "threaded") == 0)
        Options.Solver = BlockSolver::Threaded;
      else if (std::strcmp(V, "cluster") == 0)
        Options.Solver = BlockSolver::SimulatedCluster;
      else {
        std::fprintf(stderr, "unknown --block-solver '%s'\n", V);
        return usage(argv[0]);
      }
    } else if (Arg == "--block-concurrency" && (V = next()))
      Options.BlockConcurrency = std::max(0, std::atoi(V));
    else if (Arg == "--threads-per-block" && (V = next()))
      Options.ThreadsPerBlock = std::max(0, std::atoi(V));
    else if (Arg == "--qos")
      Options.Qos.Enabled = true;
    else if (Arg == "--qos-tenant-rate" && (V = next()))
      Options.Qos.TenantRatePerSec = std::max(0.0, std::atof(V));
    else if (Arg == "--qos-tenant-burst" && (V = next()))
      Options.Qos.TenantBurst = std::max(1.0, std::atof(V));
    else if (Arg == "--qos-degraded-max-exact" && (V = next()))
      Options.Qos.DegradedMaxExactBlockSize = std::max(1, std::atoi(V));
    else if (Arg == "--qos-fit-margin" && (V = next()))
      Options.Qos.FitMargin = std::max(1.0, std::atof(V));
    else if (Arg == "--qos-starvation-ms" && (V = next()))
      Options.QosStarvationMillis = std::max(0.0, std::atof(V));
    else if (Arg == "--qos-no-coalesce")
      Options.QosCoalesce = false;
    else if (Arg == "--stats-dump" && (V = next()))
      StatsDumpPath = V;
    else if (Arg == "--stats-interval" && (V = next()))
      StatsIntervalSeconds = std::max(1, std::atoi(V));
    else if (Arg == "--state-dir" && (V = next()))
      Options.StateDir = V;
    else if (Arg == "--cluster-id" && (V = next()))
      ClusterId = std::atoi(V);
    else if (Arg == "--cluster-peers" && (V = next()))
      ClusterPeersText = V;
    else if (Arg == "--cluster-port" && (V = next()))
      Cluster.ListenPort = std::atoi(V);
    else if (Arg == "--cluster-heartbeat" && (V = next()))
      Cluster.HeartbeatSeconds = std::max(0.01, std::atof(V));
    else if (Arg == "--cluster-dead-after" && (V = next()))
      Cluster.DeadAfterSeconds = std::max(0.1, std::atof(V));
    else if (Arg == "--cluster-no-steal")
      Cluster.StealJobs = false;
    else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n",
                   Arg.c_str());
      return usage(argv[0]);
    }
  }
  if (UnixPath.empty() && Port < 0)
    return usage(argv[0]);
  bool ClusterMode = ClusterId >= 0 || !ClusterPeersText.empty();
  if (ClusterMode) {
    if (ClusterId < 0 || ClusterPeersText.empty()) {
      std::fprintf(stderr,
                   "--cluster-id and --cluster-peers go together\n");
      return usage(argv[0]);
    }
    auto Peers = dist::parsePeerList(ClusterPeersText);
    if (!Peers) {
      std::fprintf(stderr, "malformed --cluster-peers '%s'\n",
                   ClusterPeersText.c_str());
      return usage(argv[0]);
    }
    if (ClusterId >= static_cast<int>(Peers->size())) {
      std::fprintf(stderr,
                   "--cluster-id %d out of range for %zu peers\n",
                   ClusterId, Peers->size());
      return usage(argv[0]);
    }
    Cluster.SelfId = ClusterId;
    Cluster.Peers = std::move(*Peers);
  }

  // Block SIGINT/SIGTERM before any thread exists: every thread the
  // service spawns inherits this mask, so a process-directed signal can
  // only be consumed by the dedicated sigwait thread below. Masking
  // after the pools start would leave a window where a signal lands on
  // a worker and kills the process with the default disposition.
  sigset_t Signals;
  sigemptyset(&Signals);
  sigaddset(&Signals, SIGINT);
  sigaddset(&Signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Signals, nullptr);

  auto StartTime = std::chrono::steady_clock::now();
  TreeService Service(Options);
  SocketServer Server(Service);
  std::string Error;
  std::string Transport, Addr;
  if (!UnixPath.empty()) {
    if (!Server.listenUnix(UnixPath, &Error)) {
      obs::log(obs::LogLevel::Error, "mutkd", "listen failed")
          .kv("transport", "unix")
          .kv("addr", UnixPath)
          .kv("error", Error);
      return 1;
    }
    Transport = "unix";
    Addr = UnixPath;
  } else {
    if (!Server.listenTcp(Host, Port, &Error)) {
      obs::log(obs::LogLevel::Error, "mutkd", "listen failed")
          .kv("transport", "tcp")
          .kv("addr", Host + ":" + std::to_string(Port))
          .kv("error", Error);
      return 1;
    }
    Transport = "tcp";
    Addr = Host + ":" + std::to_string(Server.port());
  }
  // The cluster node starts after the service exists (its steal and
  // cache hooks submit into the worker pool) and stops before the
  // service drains, so re-enqueued lent jobs still find live workers.
  std::unique_ptr<dist::ClusterNode> Node;
  if (ClusterMode) {
    Node = std::make_unique<dist::ClusterNode>(Service, Cluster);
    if (!Node->start(&Error)) {
      obs::log(obs::LogLevel::Error, "mutkd", "cluster start failed")
          .kv("self", Cluster.SelfId)
          .kv("error", Error);
      return 1;
    }
    obs::log(obs::LogLevel::Info, "mutkd", "cluster joined")
        .kv("self", Cluster.SelfId)
        .kv("peers", Cluster.Peers.size())
        .kv("port", Node->port())
        .kv("steal", Cluster.StealJobs ? "on" : "off");
  }

  obs::log(obs::LogLevel::Info, "mutkd", "listening")
      .kv("transport", Transport)
      .kv("addr", Addr)
      .kv("workers", Options.NumWorkers)
      .kv("queue_capacity", Options.QueueCapacity)
      .kv("cache_capacity", Options.CacheCapacity)
      .kv("max_species", Options.MaxSpecies)
      .kv("block_concurrency", Options.BlockConcurrency)
      .kv("threads_per_block", Options.ThreadsPerBlock)
      .kv("qos", Options.Qos.Enabled ? "on" : "off")
      .kv("build", persist::buildFlavor())
      .kv("stats_dump",
          StatsDumpPath.empty() ? std::string("off") : StatsDumpPath)
      .kv("state_dir",
          Options.StateDir.empty() ? std::string("off") : Options.StateDir);

  // Route the blocked SIGINT/SIGTERM through a dedicated sigwait
  // thread: handlers cannot safely stop a server, a blocked thread can.
  // The thread is detached — if shutdown arrives by protocol verb
  // instead, it is still parked in sigwait at exit, which is harmless.
  std::thread([&Server, Signals]() mutable {
    int Sig = 0;
    sigwait(&Signals, &Sig);
    Server.stop();
  }).detach();

  Server.start();
  {
    // Scoped so the dumper stops (and writes its final snapshot) after
    // the service drained but before the process reports shutdown.
    std::unique_ptr<StatsDumper> Dumper;
    if (!StatsDumpPath.empty())
      Dumper = std::make_unique<StatsDumper>(StatsDumpPath,
                                             StatsIntervalSeconds);
    Server.waitForShutdown();
    Server.stop();
    if (Node)
      Node->stop();
    Service.stop();
  }

  StatsSnapshot S = Service.stats();
  double UptimeSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - StartTime)
                             .count();
  obs::LogLine Record = obs::log(obs::LogLevel::Info, "mutkd", "shutdown");
  Record.kv("uptime_s", UptimeSeconds);
  for (const ServiceCounterRow &Row : ServiceCounterRows)
    Record.kv(Row.Key, S.*Row.Field);
  Record.kv("p50_ms", S.P50Millis).kv("p95_ms", S.P95Millis);
  return 0;
}

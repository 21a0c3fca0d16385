//===- bench/ledger/Run.cpp - One ledger run of one workload --------------===//

#include "Run.h"

#include "Compare.h"
#include "Daemon.h"
#include "Inputs.h"
#include "Replay.h"
#include "Stats.h"
#include "Trace.h"

#include "service/Client.h"
#include "tree/Newick.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sys/vfs.h>
#include <thread>
#include <unistd.h>

using namespace ledger;
using namespace mutk;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Load shape: two mutkd workers and two closed-loop client connections
/// keep a 4-core host busy without oversubscribing it.
constexpr int DaemonWorkers = 2;
constexpr int Clients = 2;
/// Every measured phase has at least this many requests, so p99 always
/// has ten samples beyond it.
constexpr std::size_t MinRequests = 1000;
/// Closed-loop traffic before the measured phase, so the first seconds'
/// page faults and cold caches (up to 40% slower on a 4-vCPU VM) are not
/// measured.
constexpr auto WarmupLength = std::chrono::seconds(2);
/// overlap-durable's warm-up compositions come from an index range the
/// measured phase never reaches, so measured requests stay unseen.
constexpr std::uint64_t WarmupIndexBase = std::uint64_t(1) << 40;
/// Daemon start-ups per run; `setup_s` is their median.
constexpr int SetupRepeats = 5;
/// overlap-durable's traced pass covers this many requests.
constexpr std::size_t OverlapReplayRequests = 2000;
constexpr int InputThreads = 4;

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better;
  double Bound;
};

// The end-to-end metrics: the JSON line's `metrics` without tracing, with
// the bounds --compare judges by (setup_s: never tighter than 0.05 s, see
// Compare.cpp). BENCHMARK.json lists the same names, units and
// directions. Its bounds for the time metrics are 25%, not 10%: it gates
// sets of runs taken apart in time, between which the host's CPU speed
// drifts by more than 10% (README.md, "Noise and bounds").
const MetricDef EndToEnd[] = {
    {"throughput_rps", "1/s", "higher", 0.10},
    {"latency_p50_ms", "ms", "lower", 0.10},
    {"latency_p99_ms", "ms", "lower", 0.10},
    {"cpu_ms_per_req", "ms", "lower", 0.10},
    {"rss_peak_mb", "MB", "lower", 0.10},
    {"setup_s", "s", "lower", 0.10},
};

// The per-layer metrics: the JSON line's `metrics` with --trace 1, and
// BENCHMARK.json's `per_layer`. The ledger also records the per-span
// times of every layer (README.md lists them); they are left out here
// because most are structurally zero on some workload.
const MetricDef PerLayer[] = {
    {"service.queue_ms_p50", "ms", "lower", 0},
    {"service.solve_ms_p50", "ms", "lower", 0},
    {"service.transport_ms_p50", "ms", "lower", 0},
    {"service.cache.whole_hit_ratio", "ratio", "higher", 0},
    {"service.cache.block_hit_ratio", "ratio", "higher", 0},
    {"bnb.nodes_branched_per_req", "count", "lower", 0},
    {"persist.wal_bytes_per_req", "B", "lower", 0},
    {"service.wire.request_kb", "KB", "lower", 0},
    {"service.wire.encode_request_us", "us", "lower", 0},
    {"service.wire.decode_request_us", "us", "lower", 0},
    {"service.wire.encode_response_us", "us", "lower", 0},
    {"tree.newick_us", "us", "lower", 0},
    {"trace.request_ms_p50", "ms", "lower", 0},
    {"service.self_share", "%", "lower", 0},
    {"matrix.self_share", "%", "lower", 0},
    {"graph.self_share", "%", "lower", 0},
    {"compact.self_share", "%", "lower", 0},
    {"bnb.self_share", "%", "lower", 0},
    {"heur.self_share", "%", "lower", 0},
    {"persist.self_share", "%", "lower", 0},
    {"tree.self_share", "%", "lower", 0},
    {"bnb.nodes_per_s", "1/s", "higher", 0},
    {"bnb.bound_evals_per_node", "ratio", "lower", 0},
    {"bnb.branched_per_generated", "ratio", "higher", 0},
    {"heur.fallback_blocks", "count", "lower", 0},
    {"compact.exact_block_ratio", "ratio", "higher", 0},
    {"compact.max_block", "count", "lower", 0},
    {"trace.overhead_pct", "%", "lower", 0},
};

// Span name -> per-request time metric recorded in the ledger.
struct SpanMetric {
  const char *Span;
  const char *Metric;
  bool Micros;
};
const SpanMetric SpanMetrics[] = {
    {"service.wire.encode_request", "service.wire.encode_request_us", true},
    {"service.wire.decode_request", "service.wire.decode_request_us", true},
    {"service.wire.encode_response", "service.wire.encode_response_us", true},
    {"matrix.fingerprint", "matrix.fingerprint_us", true},
    {"service.cache.lookup", "service.cache.lookup_us", true},
    {"service.cache.replay", "service.cache.replay_us", true},
    {"service.cache.store", "service.cache.store_us", true},
    {"service.cache.block_lookup", "service.cache.block_lookup_us", true},
    {"service.cache.block_store", "service.cache.block_store_us", true},
    {"tree.newick", "tree.newick_us", true},
    {"persist.cache_append", "persist.cache_append_us", true},
    {"persist.journal_append", "persist.journal_append_us", true},
    {"persist.compact", "persist.compact_ms", false},
    {"compact.pipeline", "compact.pipeline_ms", false},
    {"graph.compact_sets", "graph.compact_sets_ms", false},
    {"graph.hierarchy", "graph.hierarchy_ms", false},
    {"matrix.condense", "matrix.condense_ms", false},
    {"bnb.solve", "bnb.solve_ms", false},
    {"heur.upgmm", "heur.upgmm_ms", false},
};

const char *const Layers[] = {"service", "matrix", "graph", "compact",
                              "bnb",     "heur",   "persist", "tree"};

/// Everything one run measured, in report order.
class Ledger {
public:
  void add(const std::string &Name, const std::string &Unit,
           const std::string &Better, double Value, double Bound = 0.0,
           bool Exact = false) {
    Rows.push_back({"", "", Name, Unit, Better, Bound, Exact, Value});
  }
  void add(const MetricDef &D, double Value) {
    add(D.Name, D.Unit, D.Better, Value, D.Bound);
  }
  const LedgerRow *find(const std::string &Name) const {
    for (const LedgerRow &R : Rows)
      if (R.Metric == Name)
        return &R;
    return nullptr;
  }
  std::vector<LedgerRow> Rows;
};

struct Sample {
  std::uint64_t Index = 0;
  /// False for warm-up traffic: verified, but not in the metrics.
  bool Measured = true;
  double LatencyMs = 0.0;
  /// A reply arrived (false: the connection failed).
  bool Replied = false;
  BuildResponse Resp;
};

/// Hands out request indices until the phase is long enough: at least
/// the minimum duration and request count, and only at the end of a
/// whole pass over the inputs, so every input is sent equally often.
class Dispenser {
public:
  Dispenser(std::size_t Pass, Clock::time_point End, std::size_t Min)
      : Pass(std::max<std::size_t>(1, Pass)), End(End), Min(Min) {}

  std::optional<std::uint64_t> take() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopped)
      return std::nullopt;
    if (Next % Pass == 0 && Next >= Min && Clock::now() >= End) {
      Stopped = true;
      return std::nullopt;
    }
    return Next++;
  }
  void stop() {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopped = true;
  }

private:
  std::mutex Mu;
  const std::size_t Pass;
  const Clock::time_point End;
  const std::size_t Min;
  std::uint64_t Next = 0;
  bool Stopped = false;
};

double seconds(Clock::time_point Since) {
  return std::chrono::duration<double>(Clock::now() - Since).count();
}

std::string fsTypeOf(const std::string &Path) {
  struct statfs S {};
  if (::statfs(Path.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0x01021994:
    return "tmpfs";
  case 0xEF53:
    return "ext4";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x794c7630:
    return "overlay";
  default: {
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%lx",
                  static_cast<unsigned long>(S.f_type));
    return Hex;
  }
  }
}

std::string jsonNumberText(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// The counters a run reads from `StatsJson` before and after the
/// measured phase.
struct DaemonCounters {
  double WholeHits = 0, WholeMisses = 0, BlockHits = 0, BlockMisses = 0;
  double Nodes = 0, WalBytes = 0;
};

std::optional<DaemonCounters> readCounters(const std::string &Socket) {
  ServiceClient C;
  if (!C.connectUnix(Socket))
    return std::nullopt;
  std::optional<std::string> Json = C.statsJson();
  if (!Json)
    return std::nullopt;
  DaemonCounters Out;
  auto get = [&](const char *Key, double &Into) {
    std::optional<double> V = jsonNumber(*Json, Key);
    Into = V.value_or(0.0);
    return V.has_value();
  };
  bool Ok = get("whole_hits", Out.WholeHits) &&
            get("whole_misses", Out.WholeMisses) &&
            get("block_hits", Out.BlockHits) &&
            get("block_misses", Out.BlockMisses);
  // Registry counters appear once first incremented.
  get("mutk_bnb_nodes_expanded_total", Out.Nodes);
  get("mutk_persist_wal_append_bytes_total", Out.WalBytes);
  if (!Ok)
    return std::nullopt;
  return Out;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

class Runner {
public:
  Runner(const RunConfig &Config, const WorkloadSpec &W)
      : Config(Config), W(W) {}
  int run();

private:
  bool prepare();
  bool setUp();
  bool measure();
  void verify();
  void replay();
  void report(int Exit);

  std::vector<std::string> daemonArgs(const std::string &StateDir) const;
  using Connections = std::array<ServiceClient, Clients>;
  bool drive(Connections &Conns, bool Measured, Clock::duration Length,
             std::size_t Min);
  std::uint64_t passLength() const {
    return W.Kind == WorkloadKind::OverlapDurable ? 1 : Inputs.Cycle.size();
  }
  void failure(const std::string &What) {
    if (Failures.size() < 8)
      Failures.push_back(What);
  }

  const RunConfig &Config;
  const WorkloadSpec &W;
  std::string RunDir;
  std::string Socket;
  InputSet Inputs;
  std::vector<BuildRequest> CycleRequests;
  std::unique_ptr<Daemon> D;
  double SetupSeconds = 0.0;
  std::vector<Sample> Samples;
  double PhaseSeconds = 0.0;
  std::optional<DaemonCounters> Before, After;
  double CpuMs = 0.0;
  double PeakRssMb = 0.0;
  std::string Flavor;
  std::uint64_t Failed = 0;
  bool RunChecksOk = true;
  std::vector<std::string> Failures;
  Ledger Out;
  std::vector<Span> Spans;
};

std::vector<std::string> Runner::daemonArgs(const std::string &StateDir) const {
  std::vector<std::string> Args = {"--workers", std::to_string(DaemonWorkers),
                                   "--cache", std::to_string(W.CacheEntries)};
  if (W.Durable) {
    Args.push_back("--state-dir");
    Args.push_back(StateDir);
  }
  return Args;
}

bool Runner::prepare() {
  char Stamp[32];
  std::time_t Now = std::time(nullptr);
  std::strftime(Stamp, sizeof(Stamp), "%Y%m%dT%H%M%S", std::gmtime(&Now));
  fs::path Dir = fs::path(Config.OutDir) /
                 (std::string(W.Name) + "-s" + std::to_string(Config.Seed) +
                  "-" + Stamp + "-" + std::to_string(::getpid()));
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    std::cerr << "mutk_ledger: cannot create " << Dir << ": " << Ec.message()
              << "\n";
    return false;
  }
  RunDir = Dir.string();
  // Unix socket paths are limited to ~100 bytes; the daemon shares our
  // working directory, so a relative path keeps deep checkouts working.
  fs::path Rel = fs::relative(Dir / "d.sock", fs::current_path(), Ec);
  Socket = Ec || Rel.empty() ? (Dir / "d.sock").string() : Rel.string();
  if (Socket.size() >= 100) {
    std::cerr << "mutk_ledger: socket path too long: " << Socket << "\n";
    return false;
  }

  Inputs = makeInputs(W, Config.Seed, InputThreads);
  for (const Input &In : Inputs.Cycle) {
    BuildRequest Q;
    Q.Matrix = In.M;
    Q.UseCache = W.UseCache;
    CycleRequests.push_back(std::move(Q));
  }
  return true;
}

bool Runner::setUp() {
  std::vector<double> Times;
  for (int K = 0; K < SetupRepeats; ++K) {
    // Each start-up gets a fresh daemon and a fresh state dir; the last
    // one serves the measured phase.
    std::string StateDir = RunDir + "/state-" + std::to_string(K);
    if (D) {
      std::string Error;
      if (!D->teardown(&Error)) {
        std::cerr << "mutk_ledger: " << Error << "\n";
        return false;
      }
      D.reset();
      std::error_code Ignored;
      fs::remove_all(RunDir + "/state-" + std::to_string(K - 1), Ignored);
    }
    Daemon::Options O;
    O.Binary = MUTK_LEDGER_MUTKD;
    O.Socket = Socket;
    O.LogPath = RunDir + "/mutkd.log";
    O.Args = daemonArgs(StateDir);
    Clock::time_point Start = Clock::now();
    std::string Error;
    D = Daemon::spawn(O, &Error);
    if (!D) {
      std::cerr << "mutk_ledger: " << Error << "\n";
      return false;
    }
    if (D->flavor() != "release") {
      std::cerr << "mutk_ledger: mutkd build flavor is '" << D->flavor()
                << "'; the ledger only measures release builds\n";
      return false;
    }
    ServiceClient C;
    if (!C.connectUnix(Socket, &Error)) {
      std::cerr << "mutk_ledger: " << Error << "\n";
      return false;
    }
    for (const Input &In : Inputs.Prime) {
      BuildRequest Q;
      Q.Matrix = In.M;
      Q.UseCache = W.UseCache;
      std::optional<BuildResponse> R = C.build(Q, &Error);
      if (!R || !R->ok() || R->Cost != In.Golden) {
        std::cerr << "mutk_ledger: priming request failed or answered a "
                     "wrong cost\n";
        return false;
      }
    }
    Times.push_back(seconds(Start));
  }
  Flavor = D->flavor();
  SetupSeconds = percentile(Times, 50.0);
  return true;
}

/// One closed-loop phase: each connection sends its next request as soon
/// as the previous answer arrived. \returns false if a connection failed.
bool Runner::drive(Connections &Conns, bool Measured, Clock::duration Length,
                   std::size_t Min) {
  const bool Fresh = CycleRequests.empty();
  const std::uint64_t Base = Fresh && !Measured ? WarmupIndexBase : 0;
  Dispenser Next(passLength(), Clock::now() + Length, Min);
  std::array<std::vector<Sample>, Clients> PerClient;
  std::vector<std::thread> Threads;
  for (int T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      ServiceClient &C = Conns[static_cast<std::size_t>(T)];
      std::vector<Sample> &Mine = PerClient[static_cast<std::size_t>(T)];
      BuildRequest Composed;
      Composed.UseCache = W.UseCache;
      while (std::optional<std::uint64_t> I = Next.take()) {
        Sample S;
        S.Index = Base + *I;
        S.Measured = Measured;
        const BuildRequest *Q = &Composed;
        if (Fresh)
          Composed.Matrix = composition(Config.Seed, S.Index);
        else
          Q = &CycleRequests[S.Index % CycleRequests.size()];
        Clock::time_point T0 = Clock::now();
        std::optional<BuildResponse> R = C.build(*Q);
        S.LatencyMs =
            std::chrono::duration<double, std::milli>(Clock::now() - T0)
                .count();
        S.Replied = R.has_value();
        if (R)
          S.Resp = std::move(*R);
        Mine.push_back(std::move(S));
        if (!R) {
          Next.stop();
          break;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  bool AllReplied = true;
  for (std::vector<Sample> &Part : PerClient)
    for (Sample &S : Part) {
      AllReplied = AllReplied && S.Replied;
      Samples.push_back(std::move(S));
    }
  return AllReplied;
}

bool Runner::measure() {
  Connections Conns;
  for (ServiceClient &C : Conns) {
    std::string Error;
    if (!C.connectUnix(Socket, &Error)) {
      std::cerr << "mutk_ledger: " << Error << "\n";
      return false;
    }
  }
  if (drive(Conns, /*Measured=*/false, WarmupLength, 0)) {
    Before = readCounters(Socket);
    std::optional<double> Cpu0 = D->cpuMillis();
    Clock::time_point Start = Clock::now();
    drive(Conns, /*Measured=*/true, std::chrono::seconds(Config.Seconds),
          MinRequests);
    PhaseSeconds = seconds(Start);
    std::optional<double> Cpu1 = D->cpuMillis();
    After = readCounters(Socket);
    PeakRssMb = D->peakRssMb().value_or(0.0);
    CpuMs = Cpu0 && Cpu1 ? *Cpu1 - *Cpu0 : 0.0;
  }
  std::sort(Samples.begin(), Samples.end(),
            [](const Sample &A, const Sample &B) {
              return std::pair(!A.Measured, A.Index) <
                     std::pair(!B.Measured, B.Index);
            });

  std::string Error;
  if (!D->teardown(&Error)) {
    failure("daemon teardown: " + Error);
    RunChecksOk = false;
  }
  D.reset();
  if (!Before || !After) {
    failure("StatsJson counters unavailable");
    RunChecksOk = false;
  }
  return true;
}

void Runner::verify() {
  std::vector<double> OverlapGolden;
  if (W.Kind == WorkloadKind::OverlapDurable) {
    std::vector<std::uint64_t> Indices;
    for (const Sample &S : Samples)
      Indices.push_back(S.Index);
    OverlapGolden = compositionGoldens(Config.Seed, Indices, InputThreads);
  }
  double ExpectedNodes = 0.0;
  // A cycled input's answer repeats byte for byte; each distinct Newick
  // string is parsed once.
  std::vector<std::string> Parsed(Inputs.Cycle.size());
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    const Input *In =
        Inputs.Cycle.empty() ? nullptr
                             : &Inputs.Cycle[S.Index % Inputs.Cycle.size()];
    std::string *Seen = In ? &Parsed[S.Index % Parsed.size()] : nullptr;
    double Golden = In ? In->Golden : OverlapGolden[I];
    int Species = In ? In->M.size() : 40;
    std::string Why;
    if (!S.Replied)
      Why = "no reply";
    else if (!S.Resp.ok())
      Why = std::string("error ") + serviceErrorName(S.Resp.Error);
    else if (S.Resp.Cost != Golden)
      Why = "cost " + jsonNumberText(S.Resp.Cost) + " != golden " +
            jsonNumberText(Golden);
    else if (W.Kind == WorkloadKind::WarmReplay && !S.Resp.CacheHit)
      Why = "warm request missed the whole-matrix cache";
    else if (!W.UseCache && S.Resp.Branched != In->Branched)
      Why = "branched " + std::to_string(S.Resp.Branched) + " != golden " +
            std::to_string(In->Branched);
    else if (!Seen || *Seen != S.Resp.Newick) {
      std::optional<PhyloTree> T = parseNewick(S.Resp.Newick);
      if (!T || T->numLeaves() != Species)
        Why = "Newick does not parse to " + std::to_string(Species) +
              " leaves";
      else if (Seen)
        *Seen = S.Resp.Newick;
    }
    if (In && !W.UseCache && S.Measured)
      ExpectedNodes += static_cast<double>(In->Branched);
    if (!Why.empty()) {
      ++Failed;
      failure("request " + std::to_string(S.Index) + ": " + Why);
    }
  }
  // Cache off, the daemon's branch-and-bound work is fully determined by
  // the inputs: its node counter must move by exactly the golden solves'
  // nodes (for cold-exact: the replay's count times the passes).
  if (!W.UseCache && Before && After &&
      After->Nodes - Before->Nodes != ExpectedNodes) {
    RunChecksOk = false;
    failure("daemon branched " + jsonNumberText(After->Nodes - Before->Nodes) +
            " nodes, golden solves " + jsonNumberText(ExpectedNodes));
  }
}

void Runner::replay() {
  std::vector<DistanceMatrix> Prime;
  for (const Input &In : Inputs.Prime)
    Prime.push_back(In.M);
  std::size_t Count = Inputs.Cycle.empty() ? OverlapReplayRequests
                                           : Inputs.Cycle.size();
  auto Request = [&](std::size_t I) {
    return Inputs.Cycle.empty() ? composition(Config.Seed, I)
                                : Inputs.Cycle[I].M;
  };
  ReplayOptions O;
  O.UseCache = W.UseCache;
  O.CacheEntries = W.CacheEntries;
  O.Durable = W.Durable;
  O.StateDir = RunDir + "/replay-plain";
  ReplayResult Plain = replayPass(Prime, Count, Request, O);
  O.Traced = true;
  O.StateDir = RunDir + "/replay-traced";
  ReplayResult Traced = replayPass(Prime, Count, Request, O);

  const ReplayCounts &C = Traced.Counts;
  const ReplayCounts &P = Plain.Counts;
  if (!Traced.Error.empty() || !Plain.Error.empty()) {
    RunChecksOk = false;
    failure("replay: " + (Traced.Error.empty() ? Plain.Error : Traced.Error));
  }
  if (C.Branched != P.Branched || C.Blocks != P.Blocks ||
      C.WholeHits != P.WholeHits) {
    RunChecksOk = false;
    failure("traced and plain replay passes did different work");
  }
  if (!W.UseCache) {
    std::uint64_t Golden = 0;
    for (const Input &In : Inputs.Cycle)
      Golden += In.Branched;
    if (C.Branched != Golden) {
      RunChecksOk = false;
      failure("replay branched " + std::to_string(C.Branched) +
              " nodes, golden solves " + std::to_string(Golden));
    }
  }

  TraceSummary Sum = summarize(Traced.Spans);
  for (const SpanMetric &M : SpanMetrics) {
    auto It = Sum.Names.find(M.Span);
    double Ms = It == Sum.Names.end() ? 0.0 : It->second.PerRequestP50Ms;
    Out.add(M.Metric, M.Micros ? "us" : "ms", "lower", M.Micros ? Ms * 1e3 : Ms);
  }
  // The pipeline span's self time is what no replayed step accounts for.
  std::vector<std::int64_t> Self = selfTimesNs(Traced.Spans);
  std::map<std::uint32_t, double> Residual;
  for (std::size_t I = 0; I < Traced.Spans.size(); ++I)
    if (std::string(Traced.Spans[I].Name) == "compact.pipeline")
      Residual[Traced.Spans[I].TraceId] += static_cast<double>(Self[I]) / 1e6;
  std::vector<double> ResidualMs;
  for (const auto &[Trace, Ms] : Residual)
    ResidualMs.push_back(Ms);
  Out.add("compact.residual_ms", "ms", "lower", percentile(ResidualMs, 50.0));
  std::vector<double> RequestMs;
  for (const Span &S : Traced.Spans)
    if (S.Parent == 0)
      RequestMs.push_back(static_cast<double>(S.durationNs()) / 1e6);
  Out.add("trace.request_ms_p50", "ms", "lower", percentile(RequestMs, 50.0));
  for (const char *L : Layers) {
    auto It = Sum.Layers.find(L);
    LayerSummary Layer = It == Sum.Layers.end() ? LayerSummary() : It->second;
    std::string Name = L;
    Out.add(Name + ".self_share", "%", "lower", Layer.SharePct);
    Out.add(Name + ".self_ms", "ms", "lower", Layer.SelfMs);
    Out.add(Name + ".total_ms", "ms", "lower", Layer.TotalMs);
    Out.add(Name + ".calls", "count", "lower",
            static_cast<double>(Layer.Calls), 0.0, /*Exact=*/true);
  }
  auto Solve = Sum.Names.find("bnb.solve");
  double SolveSeconds =
      Solve == Sum.Names.end() ? 0.0 : Solve->second.TotalMs / 1e3;
  Out.add("bnb.nodes_per_s", "1/s", "higher",
          ratio(static_cast<double>(C.Branched), SolveSeconds));
  Out.add("service.wire.request_kb", "KB", "lower",
          ratio(static_cast<double>(C.RequestBytes), 1024.0 * C.Requests));
  Out.add("trace.overhead_pct", "%", "lower",
          100.0 * ratio(Traced.RequestMs - Plain.RequestMs, Plain.RequestMs));

  // Deterministic counts: identical on every run of this seed.
  auto exact = [&](const char *Name, const char *Unit, const char *Better,
                   double V) { Out.add(Name, Unit, Better, V, 0.0, true); };
  exact("replay.requests", "count", "lower", static_cast<double>(C.Requests));
  exact("replay.whole_hits", "count", "higher",
        static_cast<double>(C.WholeHits));
  exact("replay.blocks", "count", "lower", static_cast<double>(C.Blocks));
  exact("replay.cached_blocks", "count", "higher",
        static_cast<double>(C.CachedBlocks));
  exact("replay.branched", "count", "lower", static_cast<double>(C.Branched));
  exact("replay.generated", "count", "lower", static_cast<double>(C.Generated));
  exact("replay.bound_evals", "count", "lower",
        static_cast<double>(C.BoundEvals));
  exact("replay.request_bytes", "B", "lower",
        static_cast<double>(C.RequestBytes));
  exact("bnb.bound_evals_per_node", "ratio", "lower",
        ratio(static_cast<double>(C.BoundEvals),
              static_cast<double>(C.Branched)));
  exact("bnb.branched_per_generated", "ratio", "higher",
        ratio(static_cast<double>(C.Branched),
              static_cast<double>(C.Generated)));
  exact("heur.fallback_blocks", "count", "lower",
        static_cast<double>(C.FallbackBlocks));
  exact("compact.exact_block_ratio", "ratio", "higher",
        ratio(static_cast<double>(C.ExactBlocks),
              static_cast<double>(C.Blocks)));
  exact("compact.max_block", "count", "lower", static_cast<double>(C.MaxBlock));
  Spans = std::move(Traced.Spans);
}

void Runner::report(int Exit) {
  // The ledger files: flat rows for --compare, a JSON mirror with the
  // run's metadata, and the spans of the traced pass.
  std::string Compiler =
#if defined(__clang__)
      "clang " __clang_version__;
#elif defined(__GNUC__)
      "gcc " __VERSION__;
#else
      "unknown";
#endif
  std::string Meta = "# nproc=" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     " compiler=" + Compiler + " flavor=" + Flavor +
                     " workload=" + W.Name + " seed=" +
                     std::to_string(Config.Seed) + " seconds=" +
                     std::to_string(Config.Seconds) + " trace=" +
                     (Config.Trace ? "1" : "0") + " state_fs=" +
                     fsTypeOf(RunDir) + " exit=" + std::to_string(Exit);
  {
    std::ofstream Tsv(RunDir + "/ledger.tsv");
    Tsv << Meta << "\n";
    for (LedgerRow R : Out.Rows) {
      R.Run = Config.Label;
      R.Workload = W.Name;
      writeLedgerRow(Tsv, R);
    }
  }
  {
    std::ofstream Json(RunDir + "/ledger.json");
    Json << "{\"meta\":\"" << Meta.substr(2) << "\",\"failures\":[";
    for (std::size_t I = 0; I < Failures.size(); ++I) {
      std::string Text;
      for (char Ch : Failures[I])
        Text += Ch == '"' || Ch == '\\' ? '\'' : Ch;
      Json << (I ? "," : "") << '"' << Text << '"';
    }
    Json << "],\"metrics\":[";
    for (std::size_t I = 0; I < Out.Rows.size(); ++I) {
      const LedgerRow &R = Out.Rows[I];
      Json << (I ? "," : "") << "{\"name\":\"" << R.Metric << "\",\"unit\":\""
           << R.Unit << "\",\"better\":\"" << R.Better
           << "\",\"bound\":" << jsonNumberText(R.Bound) << ",\"kind\":\""
           << (R.Exact ? "exact" : "timed")
           << "\",\"value\":" << jsonNumberText(R.Value) << "}";
    }
    Json << "]}\n";
  }
  if (!Spans.empty()) {
    std::ofstream SpansOut(RunDir + "/spans.tsv");
    writeSpansTsv(SpansOut, Spans);
  }

  const LedgerRow *Measured = Out.find("requests");
  std::printf("mutk_ledger %s seed=%llu: %.0f measured requests in %.2f s, "
              "%llu of %zu failed; ledger in %s\n",
              W.Name, static_cast<unsigned long long>(Config.Seed),
              Measured ? Measured->Value : 0.0, PhaseSeconds,
              static_cast<unsigned long long>(Failed), Samples.size(),
              RunDir.c_str());
  for (const std::string &F : Failures)
    std::printf("  FAILED %s\n", F.c_str());
  for (const LedgerRow &R : Out.Rows)
    std::printf("  %-34s %14.6g %-5s%s\n", R.Metric.c_str(), R.Value,
                R.Unit.c_str(), R.Exact ? " (exact)" : "");

  std::string Line = "{\"correct\": ";
  Line += Failed == 0 && RunChecksOk ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Samples.size());
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  auto emit = [&](const MetricDef &D) {
    const LedgerRow *R = Out.find(D.Name);
    Line += First ? "" : ", ";
    First = false;
    Line += "\"" + std::string(D.Name) + "\": {\"value\": " +
            jsonNumberText(R ? R->Value : 0.0) + ", \"unit\": \"" + D.Unit +
            "\"}";
  };
  if (Config.Trace)
    for (const MetricDef &D : PerLayer)
      emit(D);
  else
    for (const MetricDef &D : EndToEnd)
      emit(D);
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

int Runner::run() {
  if (!prepare())
    return 2;
  if (!setUp() || !measure())
    return 2;
  verify();

  std::vector<double> Latency, Queue, Solve, Transport;
  std::size_t Ok = 0, Measured = 0;
  for (const Sample &S : Samples) {
    Measured += S.Measured ? 1 : 0;
    if (!S.Measured || !S.Replied || !S.Resp.ok())
      continue;
    ++Ok;
    Latency.push_back(S.LatencyMs);
    Queue.push_back(S.Resp.QueueMillis);
    Solve.push_back(S.Resp.SolveMillis);
    Transport.push_back(S.LatencyMs - S.Resp.QueueMillis - S.Resp.SolveMillis);
  }
  if (tailPercentile(Latency.size()) < 99.0 && Failed == 0) {
    std::cerr << "mutk_ledger: " << Latency.size()
              << " samples cannot support a p99\n";
    return 2;
  }
  double N = static_cast<double>(Measured);
  Out.add(EndToEnd[0], ratio(static_cast<double>(Ok), PhaseSeconds));
  Out.add(EndToEnd[1], percentile(Latency, 50.0));
  Out.add(EndToEnd[2], percentile(Latency, 99.0));
  Out.add(EndToEnd[3], ratio(CpuMs, N));
  Out.add(EndToEnd[4], PeakRssMb);
  Out.add(EndToEnd[5], SetupSeconds);
  Out.add("error_rate", "ratio", "lower",
          ratio(static_cast<double>(Failed),
                static_cast<double>(Samples.size())));
  Out.add("requests", "count", "higher", N);

  DaemonCounters Delta;
  if (Before && After) {
    Delta.WholeHits = After->WholeHits - Before->WholeHits;
    Delta.WholeMisses = After->WholeMisses - Before->WholeMisses;
    Delta.BlockHits = After->BlockHits - Before->BlockHits;
    Delta.BlockMisses = After->BlockMisses - Before->BlockMisses;
    Delta.Nodes = After->Nodes - Before->Nodes;
    Delta.WalBytes = After->WalBytes - Before->WalBytes;
  }
  Out.add("service.queue_ms_p50", "ms", "lower", percentile(Queue, 50.0));
  Out.add("service.solve_ms_p50", "ms", "lower", percentile(Solve, 50.0));
  Out.add("service.transport_ms_p50", "ms", "lower",
          percentile(Transport, 50.0));
  Out.add("service.cache.whole_hit_ratio", "ratio", "higher",
          ratio(Delta.WholeHits, Delta.WholeHits + Delta.WholeMisses));
  Out.add("service.cache.block_hit_ratio", "ratio", "higher",
          ratio(Delta.BlockHits, Delta.BlockHits + Delta.BlockMisses));
  Out.add("bnb.nodes_branched_per_req", "count", "lower",
          ratio(Delta.Nodes, N));
  Out.add("persist.wal_bytes_per_req", "B", "lower", ratio(Delta.WalBytes, N));

  if (Config.Trace)
    replay();

  std::error_code Ignored;
  for (const fs::directory_entry &E : fs::directory_iterator(RunDir, Ignored))
    if (E.path().filename().string().rfind("state-", 0) == 0)
      fs::remove_all(E.path(), Ignored);

  int Exit = Failed == 0 && RunChecksOk ? 0 : 1;
  report(Exit);
  return Exit;
}

} // namespace

int ledger::runWorkload(const RunConfig &Config) {
  const WorkloadSpec *W = findWorkload(Config.Workload);
  if (!W) {
    std::cerr << "mutk_ledger: unknown workload '" << Config.Workload
              << "'; one of:";
    for (const WorkloadSpec &S : workloads())
      std::cerr << " " << S.Name;
    std::cerr << "\n";
    return 2;
  }
  Runner R(Config, *W);
  return R.run();
}

//===- bench/ext_bnb_hotloop.cpp - B&B hot-loop identity & throughput -----===//
//
// Extension study: the branch-and-bound hot loop after the 3-3 pruning
// fix. Every engine (sequential DFS, best-first, threaded, message
// passing over 4 slave ranks, simulated 16-node cluster) is run in
// {None, ThirdSpecies} mode on tie-free structured workloads — the
// regime where `ThirdSpecies` is proven cost-preserving
// (tests/bnb_test.cpp) — and the run *aborts* unless
//
//   * every engine x mode returns the exact same double cost as the
//     sequential/None baseline (the 3-3 filter and the bound-cache
//     reorder must be pure prunings, never answer changes), and
//   * every ThirdSpecies row actually engages the filter
//     (`PrunedByThreeThree > 0`) — the regression this bench exists to
//     pin down was the filter silently never running on benchmarked
//     paths.
//
// The table reports branched nodes per second per engine (the hot-loop
// throughput the arena + cached-bound work targets) and the node
// reduction ThirdSpecies buys. Besides the console table the run writes
// `BENCH_hotloop.json` following the BENCH_*.json convention in
// docs/benchmarking.md; the embedded registry snapshot must show
// `mutk_bnb_pruned_threethree_total > 0`.
//
// MUTK_BENCH_SMOKE=1 shrinks the workload set to a seconds-long CI
// smoke run (smaller matrices, single repetition); the identity and
// engagement gates still apply.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bnb/BestFirstBnb.h"
#include "bnb/SequentialBnb.h"
#include "mp/MpBnb.h"
#include "obs/Metrics.h"
#include "parallel/ThreadedBnb.h"
#include "sim/ClusterSim.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace mutk;

namespace {

constexpr int ThreadedWorkers = 4;
constexpr int MpSlaveRanks = 4;
constexpr int ClusterNodes = 16;

struct WorkloadSpec {
  const char *Name;
  DistanceMatrix Matrix;
};

struct ResultRow {
  std::string Workload;
  int Species = 0;
  const char *Engine = "";
  const char *Mode = "";
  double Millis = 0.0;
  std::uint64_t Branched = 0;
  double NodesPerSec = 0.0;
  std::uint64_t PrunedThreeThree = 0;
  double Cost = 0.0;
  bool CostOk = true;
};

/// One timed solve; returns the stats of the last repetition (identical
/// across repetitions for every engine but the threaded and
/// message-passing ones, whose counters follow the schedule) and the
/// median wall clock.
struct EngineOutcome {
  double Cost = 0.0;
  BnbStats Stats;
  double Millis = 0.0;
};

EngineOutcome runEngine(const char *Engine, const DistanceMatrix &M,
                        const BnbOptions &Options, int Reps) {
  EngineOutcome Out;
  std::vector<double> Times;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    if (std::string(Engine) == "sequential") {
      MutResult R = solveMutSequential(M, Options);
      Out.Cost = R.Cost;
      Out.Stats = R.Stats;
    } else if (std::string(Engine) == "bestfirst") {
      BestFirstResult R = solveMutBestFirst(M, Options);
      Out.Cost = R.Cost;
      Out.Stats = R.Stats;
    } else if (std::string(Engine) == "threaded") {
      ParallelMutResult R = solveMutThreaded(M, ThreadedWorkers, Options);
      Out.Cost = R.Cost;
      Out.Stats = R.Stats;
    } else if (std::string(Engine) == "mp") {
      MpMutResult R = solveMutMessagePassing(M, MpSlaveRanks, Options);
      Out.Cost = R.Cost;
      Out.Stats = R.Stats;
    } else {
      ClusterSpec Spec;
      Spec.NumNodes = ClusterNodes;
      ClusterSimResult R = simulateClusterBnb(M, Spec, Options);
      Out.Cost = R.Cost;
      Out.Stats = R.Stats;
    }
    Times.push_back(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
  }
  Out.Millis = bench::median(Times);
  return Out;
}

/// BENCH_*.json convention: {"bench":NAME,"rows":[...],"registry":{...}}.
void writeJson(const std::vector<ResultRow> &Rows) {
  std::ofstream Out("BENCH_hotloop.json", std::ios::trunc);
  if (!Out) {
    std::printf("  !! could not write BENCH_hotloop.json\n");
    return;
  }
  Out << "{\"bench\":\"ext_bnb_hotloop\",\"rows\":[";
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const ResultRow &R = Rows[I];
    if (I > 0)
      Out << ",";
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"workload\":\"%s\",\"species\":%d,\"engine\":\"%s\","
                  "\"mode\":\"%s\",\"millis\":%.3f,\"branched\":%llu,"
                  "\"nodes_per_sec\":%.0f,\"pruned_threethree\":%llu,"
                  "\"cost\":%.10g,\"cost_ok\":%s}",
                  R.Workload.c_str(), R.Species, R.Engine, R.Mode, R.Millis,
                  static_cast<unsigned long long>(R.Branched), R.NodesPerSec,
                  static_cast<unsigned long long>(R.PrunedThreeThree), R.Cost,
                  R.CostOk ? "true" : "false");
    Out << Buf;
  }
  Out << "],\"registry\":"
      << mutk::obs::MetricsRegistry::global().renderJson() << "}\n";
  std::printf("  wrote BENCH_hotloop.json (%zu rows)\n", Rows.size());
}

void printTable() {
  const bool Smoke = std::getenv("MUTK_BENCH_SMOKE") != nullptr;
  bench::banner(
      "Extension: B&B hot-loop cost identity and throughput",
      "Every engine x {None, ThirdSpecies} must return the exact same "
      "double cost on tie-free structured data, and every ThirdSpecies "
      "row must engage the 3-3 filter (both asserted — the run aborts "
      "otherwise). nodes/s is branched BBT nodes per second.");

  std::vector<WorkloadSpec> Workloads;
  if (Smoke) {
    Workloads.push_back({"hmdna", bench::hmdnaWorkload(14, 7)});
    Workloads.push_back({"harddna", bench::hardDnaWorkload(14, 7)});
  } else {
    Workloads.push_back({"hmdna", bench::hmdnaWorkload(20, 7)});
    Workloads.push_back(
        {"clustered", scaledToMax(plantedClusterMetric(20, 5), 100.0)});
    Workloads.push_back({"harddna", bench::hardDnaWorkload(18, 7)});
    Workloads.push_back({"harddna", bench::hardDnaWorkload(20, 7)});
  }
  const int Reps = Smoke ? 1 : 3;
  const char *Engines[] = {"sequential", "bestfirst", "threaded", "mp",
                           "cluster"};
  const char *Modes[] = {"none", "third"};

  std::printf("%-10s %4s %-10s %-6s %10s %10s %12s %8s %8s\n", "workload",
              "n", "engine", "mode", "median ms", "branched", "nodes/s",
              "pr33", "cost ok");

  std::vector<ResultRow> Rows;
  bool Failed = false;
  for (const WorkloadSpec &W : Workloads) {
    double BaselineCost = 0.0;
    bool HaveBaseline = false;
    for (const char *Engine : Engines) {
      for (const char *Mode : Modes) {
        BnbOptions Options = bench::cappedBnb();
        Options.ThreeThree = std::string(Mode) == "third"
                                 ? ThreeThreeMode::ThirdSpecies
                                 : ThreeThreeMode::None;
        EngineOutcome Out = runEngine(Engine, W.Matrix, Options, Reps);
        if (!HaveBaseline) {
          // Sequential/None is the reference answer for this workload.
          BaselineCost = Out.Cost;
          HaveBaseline = true;
        }
        // Exact double equality: the modes and engines explore in a
        // different order but must land on the same tree cost, down to
        // the last bit.
        bool CostOk = Out.Cost == BaselineCost;
        if (!CostOk) {
          std::printf("  !! cost identity broken: %s/%s/%s %.17g vs "
                      "baseline %.17g\n",
                      W.Name, Engine, Mode, Out.Cost, BaselineCost);
          Failed = true;
        }
        if (Options.ThreeThree == ThreeThreeMode::ThirdSpecies &&
            Out.Stats.PrunedByThreeThree == 0) {
          std::printf("  !! 3-3 filter never engaged: %s/%s/%s\n", W.Name,
                      Engine, Mode);
          Failed = true;
        }
        double NodesPerSec =
            Out.Millis > 0.0
                ? static_cast<double>(Out.Stats.Branched) * 1000.0 / Out.Millis
                : 0.0;
        std::printf("%-10s %4d %-10s %-6s %10.2f %10llu %12.0f %8llu %8s\n",
                    W.Name, W.Matrix.size(), Engine, Mode, Out.Millis,
                    static_cast<unsigned long long>(Out.Stats.Branched),
                    NodesPerSec,
                    static_cast<unsigned long long>(
                        Out.Stats.PrunedByThreeThree),
                    CostOk ? "yes" : "NO");
        ResultRow Row;
        Row.Workload = W.Name;
        Row.Species = W.Matrix.size();
        Row.Engine = Engine;
        Row.Mode = Mode;
        Row.Millis = Out.Millis;
        Row.Branched = Out.Stats.Branched;
        Row.NodesPerSec = NodesPerSec;
        Row.PrunedThreeThree = Out.Stats.PrunedByThreeThree;
        Row.Cost = Out.Cost;
        Row.CostOk = CostOk;
        Rows.push_back(std::move(Row));
      }
    }
  }
  writeJson(Rows);
  if (Failed) {
    std::printf("  !! hot-loop gates failed\n");
    std::exit(1);
  }
}

void BM_HotloopSequentialNone(benchmark::State &State) {
  DistanceMatrix M = bench::hardDnaWorkload(18, 7);
  BnbOptions Options = bench::cappedBnb();
  Options.ThreeThree = ThreeThreeMode::None;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveMutSequential(M, Options).Cost);
}

void BM_HotloopSequentialThird(benchmark::State &State) {
  DistanceMatrix M = bench::hardDnaWorkload(18, 7);
  BnbOptions Options = bench::cappedBnb();
  Options.ThreeThree = ThreeThreeMode::ThirdSpecies;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveMutSequential(M, Options).Cost);
}

BENCHMARK(BM_HotloopSequentialNone)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HotloopSequentialThird)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

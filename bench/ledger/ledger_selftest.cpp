//===- bench/ledger/ledger_selftest.cpp - Checks of the ledger's own math -===//
//
// The ledger's numbers are only as good as its arithmetic and its
// process hygiene: self time over nested and overlapping spans, the
// tail-percentile rule, the --compare verdicts, and a short round trip
// against a real mutkd that must leave no process and no socket behind.
//
//===----------------------------------------------------------------------===//

#include "Compare.h"
#include "Daemon.h"
#include "Inputs.h"
#include "Stats.h"
#include "Trace.h"

#include "service/Client.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

using namespace ledger;

namespace {

Span span(std::uint32_t Id, std::uint32_t Parent, const char *Name,
          std::int64_t Start, std::int64_t End, bool Replay = false) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = End;
  S.Replay = Replay;
  return S;
}

TEST(LedgerTrace, SelfTimeOfNestedAndOverlappingSpans) {
  std::vector<Span> Spans = {
      span(1, 0, "request", 0, 100),
      // Two overlapping children cover [10, 60): 50, not 30 + 30.
      span(2, 1, "compact.pipeline", 10, 40),
      span(3, 1, "service.cache.store", 30, 60),
      // A child running past its parent only covers the shared part.
      span(4, 1, "tree.newick", 90, 120),
      span(5, 2, "service.cache.block_lookup", 15, 20),
      // Replayed after the request: charged to the parent in full.
      span(6, 2, "bnb.solve", 200, 212, /*Replay=*/true),
  };
  std::vector<std::int64_t> Self = selfTimesNs(Spans);
  EXPECT_EQ(Self[0], 100 - 50 - 10);
  EXPECT_EQ(Self[1], 30 - 5 - 12);
  EXPECT_EQ(Self[2], 30);
  EXPECT_EQ(Self[3], 30);
  EXPECT_EQ(Self[4], 5);
  EXPECT_EQ(Self[5], 12);

  // A replayed step slower than the whole parent clamps at zero.
  std::vector<Span> Slow = {span(1, 0, "request", 0, 10),
                            span(2, 1, "compact.pipeline", 0, 10),
                            span(3, 2, "graph.compact_sets", 20, 35, true)};
  EXPECT_EQ(selfTimesNs(Slow)[1], 0);
}

TEST(LedgerTrace, LayerSharesAddUpToRequestTime) {
  std::vector<Span> Spans = {
      span(1, 0, "request", 0, 1000000),
      span(2, 1, "service.wire.decode_request", 0, 100000),
      span(3, 1, "compact.pipeline", 100000, 900000),
      span(4, 3, "graph.compact_sets", 2000000, 2300000, true),
      span(5, 3, "bnb.solve", 2300000, 2700000, true),
  };
  TraceSummary S = summarize(Spans);
  EXPECT_EQ(S.Requests, 1u);
  EXPECT_DOUBLE_EQ(S.RequestMs, 1.0);
  EXPECT_DOUBLE_EQ(S.Layers["compact"].SelfMs, 0.1);
  EXPECT_DOUBLE_EQ(S.Layers["graph"].SharePct, 30.0);
  EXPECT_DOUBLE_EQ(S.Layers["bnb"].SharePct, 40.0);
  double Total = 0.0;
  for (const auto &[Layer, L] : S.Layers)
    Total += L.SharePct;
  EXPECT_NEAR(Total, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(S.Names["compact.pipeline"].PerRequestP50Ms, 0.8);
}

TEST(LedgerStats, TailPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(10000), 99.9);
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(999), 95.0);
  EXPECT_EQ(tailPercentile(200), 95.0);
  EXPECT_EQ(tailPercentile(199), 90.0);
  EXPECT_EQ(tailPercentile(100), 90.0);
  EXPECT_EQ(tailPercentile(99), 0.0);
}

TEST(LedgerStats, QuartilesMatchPythonStatistics) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles Q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(Q.Q1, 2.75);
  EXPECT_DOUBLE_EQ(Q.Median, 5.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 8.25);
  Q = quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(Q.Q1, 1.25);
  EXPECT_DOUBLE_EQ(Q.Median, 2.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 3.75);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 99.0), 1.99);
}

std::vector<LedgerRow> rows(const char *Metric, const char *Better,
                            double Bound, bool Exact,
                            std::vector<double> Values) {
  std::vector<LedgerRow> Out;
  for (double V : Values)
    Out.push_back({"run", "w", Metric, "1/s", Better, Bound, Exact, V});
  return Out;
}

VerdictKind verdict(std::vector<LedgerRow> Base, std::vector<LedgerRow> New) {
  std::vector<Verdict> V = compareLedgers(Base, New);
  EXPECT_EQ(V.size(), 1u);
  return V.empty() ? VerdictKind::Missing : V[0].Kind;
}

TEST(LedgerCompare, Verdicts) {
  auto Steady = rows("rps", "higher", 0.1, false, {100, 101, 99, 100, 100});
  EXPECT_EQ(verdict(Steady, rows("rps", "higher", 0.1, false,
                                 {95, 96, 94, 95, 95})),
            VerdictKind::Ok);
  EXPECT_EQ(verdict(Steady, rows("rps", "higher", 0.1, false,
                                 {80, 81, 79, 80, 80})),
            VerdictKind::Regressed);
  // Lower-is-better: a 20% rise regresses, a 20% drop is fine.
  auto Lat = rows("ms", "lower", 0.1, false, {10, 10, 10, 10});
  EXPECT_EQ(verdict(Lat, rows("ms", "lower", 0.1, false, {12, 12, 12})),
            VerdictKind::Regressed);
  EXPECT_EQ(verdict(Lat, rows("ms", "lower", 0.1, false, {8, 8, 8})),
            VerdictKind::Ok);
  // A base whose own quartile spread exceeds the bound cannot judge...
  auto Noisy = rows("rps", "higher", 0.1, false, {60, 140, 80, 120, 100});
  EXPECT_EQ(verdict(Noisy, rows("rps", "higher", 0.1, false, {70, 71, 72})),
            VerdictKind::Unresolved);
  // ...unless every new run beats every base run.
  EXPECT_EQ(verdict(Noisy, rows("rps", "higher", 0.1, false, {150, 160})),
            VerdictKind::Improved);
  // Exact counts must repeat bit for bit, within and across the sets.
  auto Count = rows("nodes", "lower", 0, true, {42, 42, 42});
  EXPECT_EQ(verdict(Count, rows("nodes", "lower", 0, true, {42, 42})),
            VerdictKind::Ok);
  EXPECT_EQ(verdict(Count, rows("nodes", "lower", 0, true, {42, 43})),
            VerdictKind::Drift);
  EXPECT_EQ(verdict(rows("nodes", "lower", 0, true, {1, 2}), Count),
            VerdictKind::Drift);
  EXPECT_EQ(verdict(rows("share", "lower", 0, false, {1, 2}),
                    rows("share", "lower", 0, false, {9, 9})),
            VerdictKind::Info);

  std::vector<Verdict> V =
      compareLedgers(Steady, rows("rps", "higher", 0.1, false, {50}));
  EXPECT_TRUE(anyFailure(V));

  // A new set without the base's exact rows (untraced runs, a skipped
  // workload) fails instead of skipping the drift check...
  std::vector<LedgerRow> Traced = Steady;
  for (const LedgerRow &R : Count)
    Traced.push_back(R);
  V = compareLedgers(Traced, Steady);
  ASSERT_EQ(V.size(), 2u);
  EXPECT_EQ(V[0].Kind, VerdictKind::Missing);
  EXPECT_EQ(V[0].Metric, "nodes");
  EXPECT_TRUE(anyFailure(V));
  // ...while a metric only the new set has is reported, not judged.
  V = compareLedgers(Steady, Traced);
  EXPECT_EQ(V[0].Kind, VerdictKind::Info);
  EXPECT_FALSE(anyFailure(V));
}

TEST(LedgerCompare, SetupTimeHasAnAbsoluteFloor) {
  // 10% of a 20 ms set-up is 2 ms; the floor allows 50 ms.
  auto Base = rows("setup_s", "lower", 0.1, false, {0.020, 0.021, 0.020});
  EXPECT_EQ(verdict(Base, rows("setup_s", "lower", 0.1, false,
                               {0.060, 0.061, 0.060})),
            VerdictKind::Ok);
  EXPECT_EQ(verdict(Base, rows("setup_s", "lower", 0.1, false,
                               {0.080, 0.081, 0.080})),
            VerdictKind::Regressed);
  // Above 0.5 s the share is the larger bound.
  auto Slow = rows("setup_s", "lower", 0.1, false, {2.0, 2.0, 2.0});
  EXPECT_EQ(verdict(Slow, rows("setup_s", "lower", 0.1, false, {2.3, 2.3})),
            VerdictKind::Regressed);
}

TEST(LedgerCompare, TsvRoundTrip) {
  std::stringstream SS;
  SS << "# nproc=4 flavor=release\n";
  LedgerRow R{"base", "cold-exact", "latency_p99_ms", "ms", "lower", 0.1,
              false, 12.345678901234567};
  writeLedgerRow(SS, R);
  std::string Error;
  std::optional<std::vector<LedgerRow>> Back = readLedger(SS, &Error);
  ASSERT_TRUE(Back) << Error;
  ASSERT_EQ(Back->size(), 1u);
  EXPECT_EQ((*Back)[0].Value, R.Value);
  EXPECT_EQ((*Back)[0].Run, "base");
  std::stringstream Bad("run\tw\tm\tms\tsideways\t0.1\ttimed\t1\n");
  EXPECT_FALSE(readLedger(Bad, &Error));
}

TEST(LedgerDaemon, RoundTripLeavesNothingBehind) {
  namespace fs = std::filesystem;
  const fs::path Dir = "ledger_selftest.d";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  Daemon::Options O;
  O.Binary = MUTK_LEDGER_MUTKD;
  O.Socket = (Dir / "d.sock").string();
  O.LogPath = (Dir / "mutkd.log").string();
  O.Args = {"--workers", "2"};

  std::string Error;
  std::unique_ptr<Daemon> D = Daemon::spawn(O, &Error);
  ASSERT_TRUE(D) << Error;
  EXPECT_FALSE(D->flavor().empty());
  mutk::ServiceClient C;
  ASSERT_TRUE(C.connectUnix(O.Socket, &Error)) << Error;
  for (int I = 0; I < 50; ++I) {
    mutk::BuildRequest Q;
    Q.Matrix = hardModule(8, static_cast<std::uint64_t>(I));
    Q.UseCache = I % 2 == 0;
    std::optional<mutk::BuildResponse> R = C.build(Q, &Error);
    ASSERT_TRUE(R && R->ok()) << Error;
    EXPECT_EQ(R->Cost, mutk::buildCompactSetTree(Q.Matrix, daemonPipeline()).Cost);
  }
  EXPECT_TRUE(D->cpuMillis().has_value());
  EXPECT_GT(D->peakRssMb().value_or(0.0), 0.0);
  C.disconnect();
  EXPECT_TRUE(D->teardown(&Error)) << Error;
  EXPECT_FALSE(childProcessesRemain());
  EXPECT_FALSE(fs::exists(O.Socket));

  // The error path: dropping a live daemon still stops and reaps it.
  D = Daemon::spawn(O, &Error);
  ASSERT_TRUE(D) << Error;
  D.reset();
  EXPECT_FALSE(childProcessesRemain());
  EXPECT_FALSE(fs::exists(O.Socket));
  fs::remove_all(Dir);
}

} // namespace

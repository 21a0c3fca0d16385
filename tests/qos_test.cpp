//===- tests/qos_test.cpp - Cost-predictive QoS layer tests ---------------===//
//
// Covers `src/qos` bottom-up — the cost model (monotonicity property,
// memoization, online calibration), admission control (token buckets,
// tier routing), the priority/EDF ready queue (FIFO degradation,
// rank order, tenant fairness, starvation hatch, close/drain) and the
// coalescer — then the QoS-enabled TreeService end to end: exact-tier
// byte-identity with the non-QoS path, heuristic-tier routing, load
// shedding, the overload-vs-shutdown rejection split, and a coalesced
// fan-out storm across a concurrent shutdown (TSan-labeled).
//
//===----------------------------------------------------------------------===//

#include "matrix/Fingerprint.h"
#include "qos/Admission.h"
#include "qos/Coalescer.h"
#include "qos/CostModel.h"
#include "qos/Scheduler.h"
#include "service/Service.h"
#include "service/ServiceStats.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace mutk;
using namespace mutk::qos;

namespace {

/// Deterministic splitmix-style generator (tests must not depend on
/// libstdc++'s distribution implementations).
struct Rng {
  std::uint64_t State;
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    std::uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  double unit() {
    return static_cast<double>(next() >> 11) /
           static_cast<double>(1ull << 53);
  }
};

/// A valid metric with distances in [Lo, Hi] (triangle inequality holds
/// whenever Hi <= 2 * Lo).
DistanceMatrix bandMatrix(int N, double Lo, double Hi, std::uint64_t Seed) {
  Rng R(Seed);
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, Lo + (Hi - Lo) * R.unit());
  return M;
}

/// Near-equidistant metric: the top condensed block stays large and B&B
/// prunes poorly, so its predicted exact cost is enormous.
DistanceMatrix narrowBandMatrix(int N, std::uint64_t Seed) {
  return bandMatrix(N, 99.0, 100.0, Seed);
}

/// \p M with its species relabeled by a deterministic permutation
/// (reversal) — same canonical fingerprint, different byte layout.
DistanceMatrix relabeled(const DistanceMatrix &M) {
  int N = M.size();
  DistanceMatrix Out(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Out.set(N - 1 - I, N - 1 - J, M.at(I, J));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// CostModel
//===----------------------------------------------------------------------===//

// The admission contract: adding taxa or widening any block never
// lowers the predicted cost, so a shed decision cannot flip to "admit"
// when the input grows. Checked as a randomized property over profiles
// and caps, including the cap-crossing point where an exact block
// switches to the in-pipeline heuristic estimate.
TEST(QosCostModel, PredictionIsMonotoneInSpeciesAndBlockSizes) {
  CostModel Model;
  Rng R(17);
  for (int Trial = 0; Trial < 500; ++Trial) {
    DifficultyProfile P;
    P.Species = 4 + static_cast<int>(R.below(40));
    P.Spread = 1.0 + 9.0 * R.unit();
    int Blocks = 1 + static_cast<int>(R.below(6));
    int Acc = 0;
    for (int B = 0; B < Blocks; ++B) {
      int Size = 2 + static_cast<int>(R.below(18));
      P.BlockSizes.push_back(Size);
      Acc = std::max(Acc, Size);
    }
    P.MaxBlock = Acc;
    int Cap = 1 + static_cast<int>(R.below(24));
    double Base = Model.predictNodes(P, Cap);

    // More taxa, same decomposition.
    DifficultyProfile MoreTaxa = P;
    MoreTaxa.Species += 1 + static_cast<int>(R.below(8));
    EXPECT_GE(Model.predictNodes(MoreTaxa, Cap), Base)
        << "species " << P.Species << " -> " << MoreTaxa.Species;

    // Widen one block (and the species count it implies). Every block
    // is exercised over the trials, including the one crossing `Cap`.
    DifficultyProfile Wider = P;
    std::size_t Which = R.below(Wider.BlockSizes.size());
    Wider.BlockSizes[Which] += 1;
    Wider.Species += 1;
    Wider.MaxBlock = std::max(Wider.MaxBlock, Wider.BlockSizes[Which]);
    EXPECT_GE(Model.predictNodes(Wider, Cap), Base)
        << "block " << P.BlockSizes[Which] << " -> "
        << Wider.BlockSizes[Which] << " under cap " << Cap;
  }
}

TEST(QosCostModel, ProfileComputesDecompositionFeatures) {
  // Two tight clusters far apart: compact sets exist, so the largest
  // condensed block is strictly smaller than the species count.
  DistanceMatrix M(8);
  for (int I = 0; I < 8; ++I)
    for (int J = I + 1; J < 8; ++J) {
      bool Same = (I < 4) == (J < 4);
      M.set(I, J, Same ? 1.0 + 0.01 * (I + J) : 10.0);
    }
  DifficultyProfile P = CostModel::computeProfile(M);
  EXPECT_EQ(P.Species, 8);
  EXPECT_GT(P.MaxBlock, 0);
  EXPECT_LT(P.MaxBlock, 8);
  EXPECT_GT(P.Spread, 5.0);
  EXPECT_FALSE(P.BlockSizes.empty());

  // Near-equidistant: only forced minimum pairs condense, so the top
  // block stays close to the full species count and the spread is ~1.
  DifficultyProfile Flat =
      CostModel::computeProfile(narrowBandMatrix(10, 3));
  EXPECT_GE(Flat.MaxBlock, 7);
  EXPECT_LT(Flat.Spread, 1.1);
}

// Satellite: the dry-run decomposition is memoized by the
// relabeling-invariant fingerprint — resubmissions and relabelings of
// one matrix pay for exactly one decomposition.
TEST(QosCostModel, DryRunProfileIsMemoizedAcrossRelabelings) {
  CostModel Model;
  DistanceMatrix M = bandMatrix(12, 5.0, 9.0, 21);
  DifficultyProfile First = Model.profileFor(M);
  EXPECT_EQ(Model.dryRuns(), 1u);
  EXPECT_EQ(Model.memoHits(), 0u);

  for (int I = 0; I < 3; ++I)
    (void)Model.profileFor(M);
  DifficultyProfile Renamed = Model.profileFor(relabeled(M));
  EXPECT_EQ(Model.dryRuns(), 1u) << "memoized matrix was re-decomposed";
  EXPECT_EQ(Model.memoHits(), 4u);
  EXPECT_EQ(Renamed.Species, First.Species);
  EXPECT_EQ(Renamed.MaxBlock, First.MaxBlock);

  // A genuinely different matrix still pays its own dry run.
  (void)Model.profileFor(bandMatrix(12, 5.0, 9.0, 22));
  EXPECT_EQ(Model.dryRuns(), 2u);
}

// The service's warm-cache probe has already canonicalized the matrix
// and passes that key, so the memo must work through it: a relabeling
// hits through its own passed key, and a passed key is used as given
// rather than recomputed.
TEST(QosCostModel, PassedProbeKeyReachesTheMemo) {
  CostModel Model;
  DistanceMatrix M = bandMatrix(12, 5.0, 9.0, 31);
  DistanceMatrix Renamed = relabeled(M);
  (void)Model.profileFor(M, canonicalForm(M).Key);
  (void)Model.profileFor(Renamed, canonicalForm(Renamed).Key);
  EXPECT_EQ(Model.dryRuns(), 1u);
  EXPECT_EQ(Model.memoHits(), 1u);

  // Without a key the model computes the same one itself.
  (void)Model.profileFor(Renamed);
  EXPECT_EQ(Model.memoHits(), 2u);

  // A different matrix passed under M's key is answered from M's entry.
  (void)Model.profileFor(bandMatrix(12, 5.0, 9.0, 32), canonicalForm(M).Key);
  EXPECT_EQ(Model.dryRuns(), 1u);
  EXPECT_EQ(Model.memoHits(), 3u);
}

TEST(QosCostModel, MemoEvictsLeastRecentlyUsed) {
  CostModelOptions Options;
  Options.MemoCapacity = 2;
  CostModel Model(Options);
  DistanceMatrix A = bandMatrix(8, 5.0, 9.0, 1);
  DistanceMatrix B = bandMatrix(8, 5.0, 9.0, 2);
  DistanceMatrix C = bandMatrix(8, 5.0, 9.0, 3);
  (void)Model.profileFor(A);
  (void)Model.profileFor(B);
  (void)Model.profileFor(C); // evicts A
  EXPECT_EQ(Model.dryRuns(), 3u);
  (void)Model.profileFor(A); // must re-decompose
  EXPECT_EQ(Model.dryRuns(), 4u);
}

TEST(QosCostModel, CalibrationConvergesTowardObservedCost) {
  CostModel Model;
  double Initial = Model.millisPerNode();
  // 1000 nodes in 100 ms = 0.1 ms/node, far above the initial guess.
  for (int I = 0; I < 50; ++I)
    Model.observe(1000, 100.0);
  EXPECT_GT(Model.millisPerNode(), Initial);
  EXPECT_NEAR(Model.millisPerNode(), 0.1, 0.01);

  // Nonpositive samples are ignored, not folded in as zeros.
  double Before = Model.millisPerNode();
  Model.observe(0, 100.0);
  Model.observe(1000, 0.0);
  EXPECT_EQ(Model.millisPerNode(), Before);
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(QosAdmission, RoutesTiersByRemainingDeadline) {
  CostModel Model;
  AdmissionOptions Options;
  Options.Enabled = true;
  Options.DegradedMaxExactBlockSize = 8;
  AdmissionController Admission(Model, Options);

  DifficultyProfile P =
      CostModel::computeProfile(narrowBandMatrix(20, 5));
  BuildRequest Request;
  Request.MaxExactBlockSize = 20;

  double ExactMs = Model.predictMillis(P, 20);
  double DegradedMs = Model.predictMillis(P, 8);
  double HeurMs = Model.heuristicMillis(P.Species);
  ASSERT_GT(ExactMs, DegradedMs);
  ASSERT_GT(DegradedMs, HeurMs);

  // No deadline: full fidelity, whatever the predicted cost.
  Verdict V = Admission.assess(Request, P, -1.0);
  EXPECT_TRUE(V.Admit);
  EXPECT_EQ(V.Tier, QosTier::Exact);
  EXPECT_GT(V.PredictedMillis, 0.0);
  EXPECT_GT(V.PredictedNodes, 0.0);

  // Generous deadline: the exact solve fits.
  V = Admission.assess(Request, P, ExactMs * 2.0);
  EXPECT_TRUE(V.Admit);
  EXPECT_EQ(V.Tier, QosTier::Exact);

  // Between degraded and exact: route to the degraded pipeline.
  V = Admission.assess(Request, P, (DegradedMs + ExactMs) / 2.0);
  EXPECT_TRUE(V.Admit);
  EXPECT_EQ(V.Tier, QosTier::Pipeline);
  EXPECT_LT(V.PredictedMillis, ExactMs);

  // Between heuristic and degraded: a single agglomerative pass.
  V = Admission.assess(Request, P, (HeurMs + DegradedMs) / 2.0);
  EXPECT_TRUE(V.Admit);
  EXPECT_EQ(V.Tier, QosTier::Heuristic);
  EXPECT_EQ(V.PredictedNodes, 0.0) << "heuristic runs must not calibrate";

  // Below even the heuristic: shed with a structured error.
  V = Admission.assess(Request, P, HeurMs / 1e6);
  EXPECT_FALSE(V.Admit);
  EXPECT_EQ(V.Error, ServiceError::Shed);
  EXPECT_FALSE(V.Message.empty());
}

TEST(QosAdmission, TokenBucketsAreIndependentPerTenant) {
  CostModel Model;
  AdmissionOptions Options;
  Options.Enabled = true;
  // Refill is negligible over the test's lifetime: burst is the budget.
  Options.TenantRatePerSec = 1e-6;
  Options.TenantBurst = 3.0;
  AdmissionController Admission(Model, Options);

  DifficultyProfile P = CostModel::generatorProfile(6);
  BuildRequest A;
  A.Tenant = "alice";
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Admission.assess(A, P, -1.0).Admit) << "burst admit " << I;
  Verdict Drained = Admission.assess(A, P, -1.0);
  EXPECT_FALSE(Drained.Admit);
  EXPECT_EQ(Drained.Error, ServiceError::RateLimited);
  EXPECT_NE(Drained.Message.find("alice"), std::string::npos);

  // A different tenant's bucket is untouched.
  BuildRequest B;
  B.Tenant = "bob";
  EXPECT_TRUE(Admission.assess(B, P, -1.0).Admit);
}

//===----------------------------------------------------------------------===//
// ReadyQueue / ReadyPolicy
//===----------------------------------------------------------------------===//

TEST(QosReadyQueue, UniformTicketsDegradeToExactFifo) {
  ReadyQueue<int> Q(64);
  for (int I = 0; I < 16; ++I)
    ASSERT_TRUE(Q.push(int(I)));
  for (int I = 0; I < 16; ++I) {
    std::optional<int> Got = Q.tryPop();
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, I) << "default tickets must preserve FIFO order";
  }
}

TEST(QosReadyQueue, PicksPriorityThenEarliestDeadline) {
  ReadyQueue<std::string> Q(16);
  auto Now = Ticket::Clock::now();
  auto ticket = [&](std::uint8_t Priority, int DeadlineMs) {
    Ticket Tk;
    Tk.Priority = Priority;
    if (DeadlineMs >= 0) {
      Tk.HasDeadline = true;
      Tk.Deadline = Now + std::chrono::milliseconds(DeadlineMs);
    }
    return Tk;
  };
  ASSERT_TRUE(Q.push("low", ticket(0, -1)));
  ASSERT_TRUE(Q.push("normal-late", ticket(1, 5000)));
  ASSERT_TRUE(Q.push("high-no-deadline", ticket(2, -1)));
  ASSERT_TRUE(Q.push("high-early", ticket(2, 100)));
  ASSERT_TRUE(Q.push("high-late", ticket(2, 3000)));

  std::vector<std::string> Order;
  while (std::optional<std::string> Got = Q.tryPop())
    Order.push_back(*Got);
  std::vector<std::string> Want = {"high-early", "high-late",
                                   "high-no-deadline", "normal-late",
                                   "low"};
  EXPECT_EQ(Order, Want);
}

TEST(QosReadyQueue, SharesFairlyAcrossTenants) {
  ReadyQueue<std::string> Q(16);
  auto ticket = [](const std::string &Tenant) {
    Ticket Tk;
    Tk.Tenant = Tenant;
    return Tk;
  };
  // Tenant "big" floods the queue ahead of "small"'s single entry; fair
  // sharing serves "small" second, not last.
  ASSERT_TRUE(Q.push("big-1", ticket("big")));
  ASSERT_TRUE(Q.push("big-2", ticket("big")));
  ASSERT_TRUE(Q.push("big-3", ticket("big")));
  ASSERT_TRUE(Q.push("small-1", ticket("small")));

  std::vector<std::string> Order;
  while (std::optional<std::string> Got = Q.tryPop())
    Order.push_back(*Got);
  std::vector<std::string> Want = {"big-1", "small-1", "big-2", "big-3"};
  EXPECT_EQ(Order, Want);
}

TEST(QosReadyQueue, StarvationHatchOverridesRankOrder) {
  obs::Counter Promotions;
  SchedulerOptions Options;
  Options.StarvationMillis = 1.0;
  Options.StarvationPromotions = &Promotions;
  ReadyQueue<std::string> Q(16, Options);

  Ticket Low;
  Low.Priority = 0;
  ASSERT_TRUE(Q.push("starving-low", std::move(Low)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Ticket High;
  High.Priority = 2;
  ASSERT_TRUE(Q.push("fresh-high", std::move(High)));

  std::optional<std::string> Got = Q.tryPop();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "starving-low")
      << "an over-age entry must outrank a fresh high-priority one";
  EXPECT_GE(Promotions.value(), 1u);
}

TEST(QosReadyQueue, MirrorsBoundedQueueCloseAndDrainSemantics) {
  ReadyQueue<int> Q(2);
  ASSERT_TRUE(Q.tryPush(1));
  ASSERT_TRUE(Q.tryPush(2));
  int Spill = 3;
  EXPECT_FALSE(Q.tryPush(std::move(Spill))) << "full queue must refuse";
  EXPECT_EQ(Spill, 3) << "failed push must leave the item untouched";
  EXPECT_EQ(Q.depth(), 2u);

  Q.close();
  EXPECT_TRUE(Q.closed());
  int Late = 4;
  EXPECT_FALSE(Q.push(std::move(Late)));

  // Accepted items drain after close...
  EXPECT_EQ(Q.pop().value_or(-1), 1);
  EXPECT_EQ(Q.pop().value_or(-1), 2);
  // ...then pop reports exhaustion instead of blocking.
  EXPECT_FALSE(Q.pop().has_value());

  ReadyQueue<int> D(4);
  ASSERT_TRUE(D.push(7));
  ASSERT_TRUE(D.push(8));
  std::vector<int> Drained = D.drain();
  EXPECT_EQ(Drained, (std::vector<int>{7, 8}));
  EXPECT_EQ(D.depth(), 0u);
}

// The service's bounded job queue is ReadyQueue with default tickets;
// these two cases check that contract where the tests above do not.
TEST(BoundedQueue, TryPushShedsWhenFull) {
  ReadyQueue<int> Q(2);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_FALSE(Q.tryPush(3));
  // A pop frees the slot the refused tryPush wanted.
  EXPECT_EQ(Q.pop(), std::optional<int>(1));
  EXPECT_TRUE(Q.tryPush(3));
}

TEST(BoundedQueue, FailedPushLeavesItemIntact) {
  ReadyQueue<std::string> Q(1);
  Q.close();
  std::string Item = "still here";
  EXPECT_FALSE(Q.push(std::move(Item)));
  EXPECT_EQ(Item, "still here");
  std::string Other = "me too";
  EXPECT_FALSE(Q.tryPush(std::move(Other)));
  EXPECT_EQ(Other, "me too");
}

TEST(QosReadyQueue, BlockingPushWaitsForConsumer) {
  ReadyQueue<int> Q(1);
  EXPECT_TRUE(Q.push(1));
  std::thread Consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(Q.pop(), std::optional<int>(1));
  });
  EXPECT_TRUE(Q.push(2)); // blocks until the consumer frees a slot
  Consumer.join();
  EXPECT_EQ(Q.pop(), std::optional<int>(2));
}

//===----------------------------------------------------------------------===//
// Coalescer
//===----------------------------------------------------------------------===//

TEST(QosCoalescer, ParksFollowersAndFansOutOnce) {
  Coalescer C;
  std::vector<std::uint8_t> Identity = {1, 2, 3};
  bool Tracked = false;
  Coalescer::Attach Leader = C.attach(42, Identity, &Tracked);
  EXPECT_TRUE(Leader.Leader);
  EXPECT_TRUE(Tracked);

  Coalescer::Attach F1 = C.attach(42, Identity, &Tracked);
  Coalescer::Attach F2 = C.attach(42, Identity, &Tracked);
  EXPECT_FALSE(F1.Leader);
  EXPECT_FALSE(F2.Leader);
  EXPECT_EQ(C.parkedFollowers(), 2u);

  // A key collision with different identity bytes must not join the
  // flight (and must not be tracked as a new leader either).
  std::vector<std::uint8_t> Other = {9, 9, 9};
  bool CollisionTracked = true;
  Coalescer::Attach Collision = C.attach(42, Other, &CollisionTracked);
  EXPECT_TRUE(Collision.Leader);
  EXPECT_FALSE(CollisionTracked);

  std::vector<std::promise<BuildResponse>> Parked = C.take(42);
  ASSERT_EQ(Parked.size(), 2u);
  BuildResponse Resp;
  Resp.Newick = "(a,b);";
  for (std::promise<BuildResponse> &P : Parked)
    P.set_value(Resp);
  EXPECT_EQ(F1.Follower.get().Newick, "(a,b);");
  EXPECT_EQ(F2.Follower.get().Newick, "(a,b);");
  EXPECT_EQ(C.parkedFollowers(), 0u);
  EXPECT_TRUE(C.take(42).empty()) << "a flight ends exactly once";
}

//===----------------------------------------------------------------------===//
// QoS-enabled TreeService
//===----------------------------------------------------------------------===//

// Acceptance gate: a request routed to the exact tier runs completely
// unmodified, so its answer is byte-identical to the non-QoS service's.
TEST(QosService, ExactTierIsByteIdenticalToNonQosPath) {
  DistanceMatrix M = bandMatrix(14, 50.0, 95.0, 11);

  TreeService Plain;
  BuildRequest R1;
  R1.Matrix = M;
  BuildResponse Baseline = Plain.submit(std::move(R1));
  ASSERT_TRUE(Baseline.ok()) << Baseline.Message;
  EXPECT_EQ(Baseline.Tier, QosTier::Exact);
  EXPECT_EQ(Baseline.PredictedMillis, 0.0);

  ServiceOptions Options;
  Options.Qos.Enabled = true;
  TreeService Qos(Options);
  BuildRequest R2;
  R2.Matrix = M;
  BuildResponse Routed = Qos.submit(std::move(R2));
  ASSERT_TRUE(Routed.ok()) << Routed.Message;
  EXPECT_EQ(Routed.Tier, QosTier::Exact);
  EXPECT_GT(Routed.PredictedMillis, 0.0);

  EXPECT_EQ(Routed.Newick, Baseline.Newick);
  EXPECT_EQ(Routed.Cost, Baseline.Cost);
  EXPECT_EQ(Routed.Exact, Baseline.Exact);
  EXPECT_EQ(Qos.stats().TierExact, 1u);
}

// A deadline the exact solve cannot meet — but one agglomerative pass
// can — routes to the heuristic tier and still yields a feasible tree.
TEST(QosService, HeuristicTierAnswersHopelessExactDeadlines) {
  ServiceOptions Options;
  Options.Qos.Enabled = true;
  // Degraded cap == request cap disables the pipeline middle tier, so
  // the only choice below exact is the heuristic pass.
  Options.Qos.DegradedMaxExactBlockSize = 20;
  TreeService Service(Options);

  DistanceMatrix M = narrowBandMatrix(20, 7);
  // Pick a deadline between the model's two predictions with a wide
  // real-time cushion: a freshly constructed service carries the same
  // default-calibrated model, so the admission decision is
  // deterministic while the heuristic still has milliseconds of slack
  // to actually run.
  CostModel Replica;
  DifficultyProfile P = CostModel::computeProfile(M);
  double ExactMs = Replica.predictMillis(P, 20);
  double HeurMs = Replica.heuristicMillis(P.Species);
  auto Deadline = static_cast<std::uint32_t>(
      std::max(2.0, std::min(ExactMs / 4.0, 50.0)));
  ASSERT_GT(ExactMs, static_cast<double>(Deadline));
  ASSERT_LE(HeurMs, static_cast<double>(Deadline));

  BuildRequest R;
  R.Matrix = M;
  R.MaxExactBlockSize = 20;
  R.DeadlineMillis = Deadline;
  R.UseCache = false;
  BuildResponse Resp = Service.submit(std::move(R));
  ASSERT_TRUE(Resp.ok()) << Resp.Message;
  EXPECT_EQ(Resp.Tier, QosTier::Heuristic);
  EXPECT_FALSE(Resp.Exact);
  EXPECT_GT(Resp.Cost, 0.0);
  std::optional<PhyloTree> Tree = parseNewick(Resp.Newick);
  ASSERT_TRUE(Tree.has_value());
  EXPECT_EQ(Tree->numLeaves(), 20);
  EXPECT_EQ(Service.stats().TierHeuristic, 1u);
}

TEST(QosService, ShedsWhenNotEvenTheHeuristicFits) {
  ServiceOptions Options;
  Options.Qos.Enabled = true;
  // A pessimistic fit margin stands in for a loaded machine: nothing
  // fits a 1 ms deadline.
  Options.Qos.FitMargin = 1e7;
  TreeService Service(Options);

  BuildRequest R;
  R.Matrix = narrowBandMatrix(16, 2);
  R.MaxExactBlockSize = 16;
  R.DeadlineMillis = 1;
  BuildResponse Resp = Service.submit(std::move(R));
  EXPECT_EQ(Resp.Error, ServiceError::Shed);
  EXPECT_FALSE(Resp.Message.empty());
  EXPECT_GT(Resp.PredictedMillis, 0.0);
  EXPECT_EQ(Service.stats().Shed, 1u);
  EXPECT_EQ(Service.stats().Accepted, 0u) << "a shed job was never queued";

  // The same matrix without a deadline still solves fully.
  BuildRequest Retry;
  Retry.Matrix = narrowBandMatrix(16, 2);
  Retry.MaxExactBlockSize = 16;
  EXPECT_TRUE(Service.submit(std::move(Retry)).ok());
}

TEST(QosService, RateLimitedTenantGetsItsOwnErrorCode) {
  ServiceOptions Options;
  Options.Qos.Enabled = true;
  Options.Qos.TenantRatePerSec = 1e-6;
  Options.Qos.TenantBurst = 2.0;
  Options.QosCoalesce = false; // distinct error paths, not fan-out
  TreeService Service(Options);

  for (int I = 0; I < 2; ++I) {
    BuildRequest R;
    R.Matrix = bandMatrix(8, 5.0, 9.0, static_cast<std::uint64_t>(I));
    R.Tenant = "chatty";
    ASSERT_TRUE(Service.submit(std::move(R)).ok());
  }
  BuildRequest Over;
  Over.Matrix = bandMatrix(8, 5.0, 9.0, 99);
  Over.Tenant = "chatty";
  BuildResponse Resp = Service.submit(std::move(Over));
  EXPECT_EQ(Resp.Error, ServiceError::RateLimited);
  EXPECT_GE(Service.stats().RateLimited, 1u);
}

// Regression (overload vs shutdown): the two rejection reasons carry
// distinct status codes and distinct client-facing advice — an
// overloaded server must not masquerade as one that is going away.
TEST(QosService, OverloadAndShutdownRejectionsAreDistinct) {
  ASSERT_STRNE(serviceErrorAdvice(ServiceError::QueueFull),
               serviceErrorAdvice(ServiceError::ShuttingDown));
  ASSERT_GT(std::strlen(serviceErrorAdvice(ServiceError::QueueFull)), 0u);
  ASSERT_GT(std::strlen(serviceErrorAdvice(ServiceError::ShuttingDown)), 0u);
  ASSERT_STRNE(serviceErrorAdvice(ServiceError::Shed),
               serviceErrorAdvice(ServiceError::RateLimited));

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.QueueCapacity = 1;
  Options.BlockOnFullQueue = false;
  TreeService Service(Options);

  // Pin the worker on a bounded-but-slow solve, fill the single queue
  // slot, then overflow it.
  BuildRequest Blocker;
  Blocker.Matrix = narrowBandMatrix(18, 3);
  Blocker.MaxExactBlockSize = 18;
  Blocker.NodeBudget = 400'000;
  Blocker.UseCache = false;
  std::future<BuildResponse> BlockerDone =
      Service.submitAsync(std::move(Blocker));

  // Async submissions so the queue slot stays occupied while we keep
  // pushing: a rejected submission resolves its future immediately,
  // an accepted one parks behind the pinned worker.
  std::vector<std::future<BuildResponse>> Accepted;
  bool SawQueueFull = false;
  for (int I = 0; I < 64 && !SawQueueFull; ++I) {
    BuildRequest R;
    R.Matrix = bandMatrix(10, 5.0, 9.0, static_cast<std::uint64_t>(I));
    R.UseCache = false;
    std::future<BuildResponse> F = Service.submitAsync(std::move(R));
    if (F.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      BuildResponse Resp = F.get();
      if (!Resp.ok()) {
        SawQueueFull = true;
        EXPECT_EQ(Resp.Error, ServiceError::QueueFull)
            << "overload must report QueueFull, got: " << Resp.Message;
      }
      continue;
    }
    Accepted.push_back(std::move(F));
  }
  EXPECT_TRUE(SawQueueFull) << "never filled a capacity-1 queue";
  EXPECT_TRUE(BlockerDone.get().ok());
  for (std::future<BuildResponse> &F : Accepted)
    EXPECT_TRUE(F.get().ok());

  Service.stop();
  BuildRequest Late;
  Late.Matrix = bandMatrix(10, 5.0, 9.0, 123);
  EXPECT_EQ(Service.submit(std::move(Late)).Error,
            ServiceError::ShuttingDown)
      << "post-shutdown rejection must report ShuttingDown, not overload";
}

TEST(QosService, CoalescesIdenticalInFlightRequests) {
  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Qos.Enabled = true;
  TreeService Service(Options);

  // Pin the single worker so the identical submissions below all join
  // one in-flight flight instead of being solved one by one.
  BuildRequest Blocker;
  Blocker.Matrix = narrowBandMatrix(18, 5);
  Blocker.MaxExactBlockSize = 18;
  Blocker.NodeBudget = 400'000;
  Blocker.UseCache = false;
  std::future<BuildResponse> BlockerDone =
      Service.submitAsync(std::move(Blocker));

  DistanceMatrix M = bandMatrix(12, 5.0, 9.0, 31);
  std::vector<std::future<BuildResponse>> Futures;
  for (int I = 0; I < 6; ++I) {
    BuildRequest R;
    R.Matrix = M;
    // Scheduling-only fields are normalized out of the coalescing
    // identity: different priorities still share one solve.
    R.Priority = I % 2 ? RequestPriority::High : RequestPriority::Normal;
    Futures.push_back(Service.submitAsync(std::move(R)));
  }

  EXPECT_TRUE(BlockerDone.get().ok());
  std::string Newick;
  int FannedOut = 0;
  for (std::future<BuildResponse> &F : Futures) {
    BuildResponse R = F.get();
    ASSERT_TRUE(R.ok()) << R.Message;
    if (Newick.empty())
      Newick = R.Newick;
    EXPECT_EQ(R.Newick, Newick) << "fan-out must replay one answer";
    FannedOut += R.Coalesced ? 1 : 0;
  }
  EXPECT_EQ(FannedOut, 5) << "one leader, five coalesced followers";
  EXPECT_EQ(Service.stats().Coalesced, 5u);
  // Followers never occupied a queue slot or ran a solve: the solver
  // answered the leader once (the cache saw at most that one insert).
  EXPECT_EQ(Service.stats().Completed, 2u) << "blocker + leader only";
}

// Satellite: coalesced fan-out under concurrent submit and shutdown.
// Hammered by TSan via the `tsan` label: every future must resolve —
// solved, fanned out, or failed with a shutdown/overload code — with no
// lost promises and no data races between attach, take and stop.
TEST(QosService, CoalescedFanOutSurvivesConcurrentShutdownStorm) {
  for (int Round = 0; Round < 4; ++Round) {
    ServiceOptions Options;
    Options.NumWorkers = 2;
    Options.QueueCapacity = 16;
    Options.BlockOnFullQueue = false;
    Options.Qos.Enabled = true;
    TreeService Service(Options);

    constexpr int NumThreads = 4;
    constexpr int PerThread = 24;
    std::vector<std::vector<std::future<BuildResponse>>> Futures(NumThreads);
    std::vector<std::thread> Submitters;
    Submitters.reserve(NumThreads);
    for (int T = 0; T < NumThreads; ++T)
      Submitters.emplace_back([T, Round, &Service, &Futures] {
        for (int I = 0; I < PerThread; ++I) {
          BuildRequest R;
          // A handful of distinct matrices shared across threads: most
          // submissions coalesce onto an in-flight twin.
          R.Matrix = bandMatrix(
              10, 5.0, 9.0,
              static_cast<std::uint64_t>(Round * 3 + I % 3 + 1));
          R.Priority = static_cast<RequestPriority>(I % 3);
          R.Tenant = T % 2 ? "storm-a" : "storm-b";
          Futures[T].push_back(Service.submitAsync(std::move(R)));
        }
      });

    // Stop concurrently with the submit storm on odd rounds; after it
    // on even rounds (both interleavings must hold the promise).
    if (Round % 2 == 1)
      Service.stop();
    for (std::thread &S : Submitters)
      S.join();
    if (Round % 2 == 0)
      Service.stop();

    int Answered = 0;
    for (std::vector<std::future<BuildResponse>> &PerThreadFutures : Futures)
      for (std::future<BuildResponse> &F : PerThreadFutures) {
        BuildResponse R = F.get(); // must never hang or throw
        if (!R.ok()) {
          EXPECT_TRUE(R.Error == ServiceError::ShuttingDown ||
                      R.Error == ServiceError::QueueFull)
              << "unexpected storm error: " << R.Message;
        }
        ++Answered;
      }
    EXPECT_EQ(Answered, NumThreads * PerThread);
  }
}

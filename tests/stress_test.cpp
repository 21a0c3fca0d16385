//===- tests/stress_test.cpp - Concurrency stress for the sanitizers ------===//
//
// Race-hunting workloads for `ctest -L tsan` (ThreadSanitizer preset)
// that also run under the ASan `service` label: an oversubscribed
// ThreadedBnb on tie-heavy matrices, hit/insert/evict storms on the
// sharded result cache, eviction racing lookups on a single shard,
// in-flight deadline expiry and shutdown in the loopback service, and
// producer/consumer/close races on the service's ready queue (default
// tickets: the FIFO configuration).
//
// These tests assert *functional* outcomes (every future resolves, costs
// match the sequential solver, counters add up); the sanitizers assert
// the absence of races and lock-order inversions on top. Thread counts
// deliberately exceed the core count — on a small CI box that is what
// forces preemption inside critical sections.
//
//===----------------------------------------------------------------------===//

#include "matrix/Generators.h"
#include "parallel/ThreadedBnb.h"
#include "qos/Scheduler.h"
#include "service/ResultCache.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

using namespace mutk;

namespace {

/// A metric whose distances all lie in [99, 100]: every triangle holds
/// trivially, ties abound, and the lower bound prunes poorly — the
/// adversarial workload for bound-sharing between workers.
DistanceMatrix narrowBandMatrix(int N, std::uint64_t Seed) {
  DistanceMatrix M(N);
  std::uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 1;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      double Unit = static_cast<double>(State >> 11) /
                    static_cast<double>(1ull << 53);
      M.set(I, J, 99.0 + Unit);
    }
  return M;
}

/// A small solved tree so cached values own a little heap memory (gives
/// ASan/TSan an object graph to chase through the cache).
CachedSolution makeSolution(std::uint64_t Key) {
  CachedSolution S;
  int A = S.Tree.addLeaf(0);
  int B = S.Tree.addLeaf(1);
  S.Tree.setRoot(S.Tree.addInternal(A, B, 1.0 + static_cast<double>(Key % 7)));
  S.Cost = static_cast<double>(Key);
  S.Bytes = {static_cast<std::uint8_t>(Key), static_cast<std::uint8_t>(Key >> 8)};
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadedBnb under oversubscription
//===----------------------------------------------------------------------===//

// Far more workers than cores on a tie-heavy matrix: the shared upper
// bound is updated constantly while the global pool drains and refills,
// and the termination handshake must still get every worker home.
TEST(StressThreadedBnb, OversubscribedTieHeavyMatchesSequential) {
  for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DistanceMatrix M = narrowBandMatrix(8, Seed);
    double Sequential = solveMutSequential(M).Cost;
    ParallelMutResult R = solveMutThreaded(M, 16);
    EXPECT_TRUE(R.Stats.Complete);
    EXPECT_NEAR(Sequential, R.Cost, 1e-9) << "seed " << Seed;
  }
}

// Random metrics prune well, so workers go idle and re-steal from the
// global pool repeatedly — the donate/pull path under contention.
TEST(StressThreadedBnb, RepeatedOversubscribedRandomSolves) {
  for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(12, Seed);
    double Sequential = solveMutSequential(M).Cost;
    ParallelMutResult R = solveMutThreaded(M, 12);
    EXPECT_TRUE(R.Stats.Complete);
    EXPECT_NEAR(Sequential, R.Cost, 1e-9) << "seed " << Seed;
  }
}

// Mid-flight cancellation: the node budget trips while all workers are
// busy, so the Cancelled flag must propagate through the pool wait.
TEST(StressThreadedBnb, BudgetCancellationUnderOversubscription) {
  DistanceMatrix M = narrowBandMatrix(12, 7);
  BnbOptions Options;
  Options.MaxBranchedNodes = 200;
  ParallelMutResult R = solveMutThreaded(M, 16, Options);
  EXPECT_FALSE(R.Stats.Complete);
  // Even a truncated run must answer with a feasible tree.
  EXPECT_TRUE(R.Tree.isWellFormed());
  EXPECT_TRUE(R.Tree.dominatesMatrix(M));
}

//===----------------------------------------------------------------------===//
// ShardedLruCache storms
//===----------------------------------------------------------------------===//

// Many threads hammer a tiny cache with overlapping key ranges: every
// operation mixes hits, misses, inserts and evictions across shards.
TEST(StressResultCache, HitInsertEvictStorm) {
  ShardedLruCache Cache(16, 4);
  constexpr int NumThreads = 8;
  constexpr int OpsPerThread = 2000;
  std::atomic<std::uint64_t> ObservedHits{0};

  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([T, &Cache, &ObservedHits] {
      for (int Op = 0; Op < OpsPerThread; ++Op) {
        // 32 distinct keys over a 16-entry cache: ~half the working set
        // is always one eviction away.
        std::uint64_t Key =
            static_cast<std::uint64_t>((Op * 7 + T * 13) % 32);
        CachedSolution S = makeSolution(Key);
        if (std::optional<CachedSolution> Hit = Cache.lookup(Key, S.Bytes)) {
          ObservedHits.fetch_add(1, std::memory_order_relaxed);
          EXPECT_DOUBLE_EQ(static_cast<double>(Key), Hit->Cost);
        } else {
          Cache.store(Key, std::move(S));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(ObservedHits.load(), Cache.hits());
  EXPECT_LE(Cache.size(), 16u);
  EXPECT_GT(Cache.evictions(), 0u);
}

// Eviction racing lookups on the *same shard*: one shard, capacity two,
// so nearly every store evicts what another thread is about to look up.
// (Runs under both the ASan `service` label and the TSan `tsan` label.)
TEST(StressResultCache, EvictionRacesLookupOnOneShard) {
  ShardedLruCache Cache(2, 1);
  constexpr int NumThreads = 8;
  constexpr int OpsPerThread = 1500;

  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([T, &Cache] {
      for (int Op = 0; Op < OpsPerThread; ++Op) {
        std::uint64_t Key = static_cast<std::uint64_t>((Op + T) % 6);
        CachedSolution S = makeSolution(Key);
        if (Op % 3 == 0) {
          Cache.store(Key, std::move(S));
        } else if (std::optional<CachedSolution> Hit =
                       Cache.lookup(Key, S.Bytes)) {
          // The copy must stay intact even while other threads evict
          // the entry it came from.
          EXPECT_EQ(2, Hit->Tree.numLeaves());
          EXPECT_DOUBLE_EQ(static_cast<double>(Key), Hit->Cost);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_LE(Cache.size(), 2u);
  EXPECT_EQ(Cache.hits() + Cache.misses(),
            static_cast<std::uint64_t>(NumThreads) * OpsPerThread * 2 / 3);
}

// clear() and size() racing stores: the whole-cache sweeps take every
// shard lock in sequence while writers are mid-flight.
TEST(StressResultCache, ClearAndSizeDuringStores) {
  ShardedLruCache Cache(32, 8);
  std::atomic<bool> Done{false};

  std::vector<std::thread> Writers;
  for (int T = 0; T < 4; ++T)
    Writers.emplace_back([T, &Cache] {
      for (int Op = 0; Op < 1200; ++Op) {
        std::uint64_t Key = static_cast<std::uint64_t>(T * 1000 + Op % 40);
        CachedSolution S = makeSolution(Key);
        Cache.store(Key, std::move(S));
        Cache.lookup(Key, makeSolution(Key).Bytes);
      }
    });
  std::thread Sweeper([&Cache, &Done] {
    while (!Done.load(std::memory_order_acquire)) {
      EXPECT_LE(Cache.size(), 32u);
      Cache.clear();
      std::this_thread::yield();
    }
  });
  for (std::thread &T : Writers)
    T.join();
  Done.store(true, std::memory_order_release);
  Sweeper.join();
  EXPECT_LE(Cache.size(), 32u);
}

//===----------------------------------------------------------------------===//
// Ready queue close/drain races
//===----------------------------------------------------------------------===//

// Producers, consumers, and a closer all contend on a two-slot queue;
// after close, drained + popped must equal the number of accepted items.
TEST(StressJobQueue, ProducersConsumersAndClose) {
  qos::ReadyQueue<int> Queue(2);
  std::atomic<int> Accepted{0};
  std::atomic<int> Consumed{0};

  std::vector<std::thread> Producers;
  for (int T = 0; T < 4; ++T)
    Producers.emplace_back([T, &Queue, &Accepted] {
      for (int I = 0; I < 500; ++I) {
        int Item = T * 1000 + I;
        if (I % 2 == 0 ? Queue.push(std::move(Item))
                       : Queue.tryPush(std::move(Item)))
          Accepted.fetch_add(1, std::memory_order_relaxed);
        else if (Queue.closed())
          return; // blocked pushes fail only once the queue closes
      }
    });
  std::vector<std::thread> Consumers;
  for (int T = 0; T < 4; ++T)
    Consumers.emplace_back([&Queue, &Consumed] {
      while (Queue.pop())
        Consumed.fetch_add(1, std::memory_order_relaxed);
    });

  for (std::thread &T : Producers)
    T.join();
  Queue.close();
  std::vector<int> Leftover = Queue.drain();
  for (std::thread &T : Consumers)
    T.join();

  EXPECT_EQ(Accepted.load(),
            Consumed.load() + static_cast<int>(Leftover.size()));
}

//===----------------------------------------------------------------------===//
// Loopback service: deadlines and shutdown in flight
//===----------------------------------------------------------------------===//

// Jobs whose deadlines expire while queued or mid-solve, interleaved
// with jobs that finish: every future must resolve with either a result
// or DeadlineExpired — and the deadline budget conversion must keep
// expired jobs from pinning workers.
TEST(StressService, InFlightDeadlineExpiry) {
  ServiceOptions Options;
  Options.NumWorkers = 4;
  Options.QueueCapacity = 64;
  Options.CacheCapacity = 0; // every job must really solve
  // A tiny budget-per-millisecond makes short deadlines bite mid-solve
  // instead of being absorbed by a fast exact solve.
  Options.NodesPerMilli = 50;
  TreeService Service(Options);

  std::vector<std::future<BuildResponse>> Futures;
  for (int I = 0; I < 24; ++I) {
    BuildRequest Request;
    Request.Matrix = narrowBandMatrix(10, static_cast<std::uint64_t>(I) + 1);
    Request.UseCache = false;
    // A hard node cap so even the no-deadline jobs finish promptly on a
    // matrix chosen for its poor pruning (truncated results are still
    // `ok()`; only the deadline can fail a job here).
    Request.NodeBudget = 20'000;
    // Thirds: instant expiry, tight-but-possible, and none.
    Request.DeadlineMillis = I % 3 == 0 ? 1 : (I % 3 == 1 ? 40 : 0);
    Futures.push_back(Service.submitAsync(std::move(Request)));
  }

  int Solved = 0;
  int Expired = 0;
  for (std::future<BuildResponse> &F : Futures) {
    BuildResponse Resp = F.get();
    if (Resp.ok()) {
      ++Solved;
      EXPECT_FALSE(Resp.Newick.empty());
    } else {
      EXPECT_EQ(ServiceError::DeadlineExpired, Resp.Error);
      ++Expired;
    }
  }
  EXPECT_EQ(24, Solved + Expired);
  // The no-deadline third can never expire.
  EXPECT_GE(Solved, 8);
}

// stop() racing a stream of submitters: every admitted job still gets
// an answer, every post-stop submission is rejected, nothing hangs.
TEST(StressService, ShutdownWhileSubmitting) {
  ServiceOptions Options;
  Options.NumWorkers = 3;
  Options.QueueCapacity = 8;
  Options.BlockOnFullQueue = false; // shed load instead of blocking
  TreeService Service(Options);

  std::atomic<int> Answered{0};
  std::vector<std::thread> Submitters;
  for (int T = 0; T < 4; ++T)
    Submitters.emplace_back([T, &Service, &Answered] {
      for (int I = 0; I < 40; ++I) {
        BuildRequest Request;
        Request.Generator = GeneratorKind::Uniform;
        Request.GenSpecies = 8;
        Request.GenSeed = static_cast<std::uint64_t>(T * 100 + I);
        BuildResponse Resp = Service.submit(std::move(Request));
        // Success, shed, or shutting down — but always an answer.
        EXPECT_TRUE(Resp.ok() || Resp.Error == ServiceError::QueueFull ||
                    Resp.Error == ServiceError::ShuttingDown);
        Answered.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Let the storm develop, then pull the plug under it.
  while (Answered.load(std::memory_order_acquire) < 30)
    std::this_thread::yield();
  Service.stop();
  for (std::thread &T : Submitters)
    T.join();

  EXPECT_EQ(160, Answered.load());
  // Every accepted job was answered: solved, failed, or drained at stop
  // (drained jobs are counted under Rejected).
  StatsSnapshot Stats = Service.stats();
  EXPECT_GE(Stats.Accepted, Stats.Completed + Stats.Failed);
  EXPECT_LE(Stats.Accepted - Stats.Completed - Stats.Failed,
            Stats.Rejected);
}

// Cache-enabled service hammered with a small set of repeated matrices
// from many client threads: whole-matrix hits replay concurrently with
// fresh solves and per-block stores of the same entries.
TEST(StressService, ConcurrentCacheHitsAndSolves) {
  ServiceOptions Options;
  Options.NumWorkers = 4;
  Options.CacheCapacity = 32;
  Options.CacheShards = 4;
  TreeService Service(Options);

  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (int T = 0; T < 6; ++T)
    Clients.emplace_back([T, &Service, &Failures] {
      for (int I = 0; I < 20; ++I) {
        BuildRequest Request;
        Request.Generator = GeneratorKind::Clustered;
        Request.GenSpecies = 12;
        // Only 4 distinct matrices across all clients: most requests
        // race toward the same cache lines.
        Request.GenSeed = static_cast<std::uint64_t>((T + I) % 4 + 1);
        BuildResponse Resp = Service.submit(std::move(Request));
        if (!Resp.ok())
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(0, Failures.load());
  StatsSnapshot Stats = Service.stats();
  EXPECT_GT(Stats.WholeHits, 0u);
  Service.stop();
}

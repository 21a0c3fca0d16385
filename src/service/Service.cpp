//===- service/Service.cpp - Concurrent tree-construction service ---------===//

#include "service/Service.h"

#include "heur/Upgma.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "obs/Log.h"
#include "persist/Checkpoint.h"
#include "seq/EvolutionSim.h"
#include "support/Audit.h"
#include "tree/Newick.h"

#include <algorithm>
#include <cstdio>
#include <exception>

using namespace mutk;

namespace {

/// Key-space salts: whole-matrix and per-block entries share one cache
/// but must never answer for each other.
constexpr std::uint64_t WholeKeySalt = 0x9e3779b97f4a7c15ull;

/// Incremental mode: a solved base qualifies only when `TaxaAdded +
/// TaxaRemoved` stays within this bound...
constexpr int IncrementalMaxTaxaDelta = 2;
/// ...and at most this many common-taxon distances changed.
constexpr int IncrementalMaxChangedEntries = 8;

/// Dry-run difficulty profiles the QoS cost model memoizes by canonical
/// fingerprint.
constexpr std::size_t QosProfileMemoCapacity = 256;

/// Smallest condensed block (species count) worth a remote cache
/// round-trip or a cross-ring insert. Tiny blocks are cheaper to re-solve
/// than to fetch; the floor is read off the canonical-bytes size header
/// (`canonicalSpeciesCount`).
constexpr int RemoteBlockMinSize = 3;

/// Cadence of per-block search checkpoints when a StateDir is set.
constexpr std::uint64_t CheckpointEveryNodes = 200'000;
constexpr double CheckpointEverySeconds = 5.0;

/// In-memory cache entries -> durable records (shared by early and
/// shutdown compaction).
std::vector<persist::DurableCacheRecord>
toDurableRecords(std::vector<std::pair<std::uint64_t, CachedSolution>> Entries) {
  std::vector<persist::DurableCacheRecord> Records;
  Records.reserve(Entries.size());
  for (auto &[Key, Value] : Entries)
    Records.push_back(toDurableRecord(Key, std::move(Value)));
  return Records;
}

/// Whole-matrix cache identity: the canonical matrix bytes (moved in;
/// they have room for the suffix) extended by the knobs that change the
/// merged tree (mode, polish). Exact-only entries make the remaining
/// knobs (budgets, size caps) irrelevant.
std::vector<std::uint8_t> wholeCacheBytes(std::vector<std::uint8_t> Bytes,
                                          const BuildRequest &Request) {
  Bytes.push_back(static_cast<std::uint8_t>(Request.Mode));
  Bytes.push_back(Request.Polish ? 1 : 0);
  return Bytes;
}

std::uint64_t wholeCacheKey(const CanonicalForm &Form,
                            const BuildRequest &Request) {
  std::uint64_t Key = Form.Key ^ WholeKeySalt;
  Key ^= static_cast<std::uint64_t>(Request.Mode) * 0x100000001b3ull;
  if (Request.Polish)
    Key ^= 0x2545f4914f6cdd1dull;
  return Key;
}

/// FNV-1a over an encoded request frame; the coalescing flight key
/// (collisions are identity-checked by the coalescer, never trusted).
std::uint64_t coalesceKeyOf(const std::vector<std::uint8_t> &Bytes) {
  std::uint64_t H = 1469598103934665603ull;
  for (std::uint8_t B : Bytes) {
    H ^= B;
    H *= 1099511628211ull;
  }
  return H;
}

/// The scheduling ticket a request earns: wire priority, absolute
/// deadline and fair-share tenant. Default request fields yield the
/// all-equal ticket that keeps the ready queue a plain FIFO.
qos::Ticket ticketFor(const BuildRequest &Request,
                      std::chrono::steady_clock::time_point SubmitTime) {
  qos::Ticket Tk;
  Tk.Priority = static_cast<std::uint8_t>(Request.Priority);
  Tk.Tenant = Request.Tenant;
  if (Request.DeadlineMillis > 0) {
    Tk.HasDeadline = true;
    Tk.Deadline =
        SubmitTime + std::chrono::milliseconds(Request.DeadlineMillis);
  }
  return Tk;
}

} // namespace

TreeService::TreeService(const ServiceOptions &Options)
    : Options(Options), Obs(obs::serviceInstruments()),
      QosObs(obs::qosInstruments()),
      Cost(qos::CostModelOptions{QosProfileMemoCapacity}),
      Admission(Cost, Options.Qos),
      Queue(std::max<std::size_t>(1, Options.QueueCapacity),
            qos::SchedulerOptions{Options.QosStarvationMillis,
                                  &QosObs.StarvationPromotions},
            Obs.Queue),
      Cache(std::max<std::size_t>(1, Options.CacheCapacity),
            Options.CacheShards) {
  Cache.setInstruments(&obs::cacheInstruments(),
                       obs::cacheShardInstruments(
                           std::max(1, Options.CacheShards)));
  if (Options.Incremental)
    Bases = std::make_unique<IncrementalIndex>(Options.IncrementalBases);
  if (!Options.StateDir.empty()) {
    Store = std::make_unique<persist::CacheStore>(Options.StateDir);
    Journal = std::make_unique<persist::JobJournal>(Options.StateDir);
    persist::ensureDir(Options.StateDir + "/ckpt");
    CheckpointHooks.SinkFor =
        [this](std::uint64_t Key) -> std::unique_ptr<CheckpointSink> {
      return std::make_unique<persist::FileCheckpointSink>(
          checkpointPath(Key));
    };
    CheckpointHooks.Load = [this](std::uint64_t Key) {
      return persist::loadCheckpoint(checkpointPath(Key));
    };
    CheckpointHooks.Done = [this](std::uint64_t Key) {
      persist::removeCheckpoint(checkpointPath(Key));
    };
  }
  int NumWorkers = std::max(1, Options.NumWorkers);
  Workers.reserve(static_cast<std::size_t>(NumWorkers));
  for (int I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  obs::log(obs::LogLevel::Debug, "service", "started")
      .kv("workers", NumWorkers)
      .kv("queue_capacity", std::max<std::size_t>(1, Options.QueueCapacity))
      .kv("cache_capacity", Options.CacheCapacity)
      .kv("cache_shards", std::max(1, Options.CacheShards))
      .kv("state_dir",
          Options.StateDir.empty() ? std::string("off") : Options.StateDir);
  // Workers are live before recovery re-enqueues interrupted jobs, so a
  // recovered backlog larger than the queue capacity still drains.
  recoverState();
}

std::string TreeService::checkpointPath(std::uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.ckpt",
                static_cast<unsigned long long>(Key));
  return Options.StateDir + "/ckpt/" + Name;
}

void TreeService::recoverState() {
  if (!Store)
    return;
  persist::CacheStore::LoadResult Loaded;
  {
    MutexLock Lock(PersistMu);
    Loaded = Store->load();
  }
  std::size_t BlockRecords = 0;
  for (persist::DurableCacheRecord &Rec : Loaded.Records) {
    const std::uint64_t Key = Rec.Key;
    CachedSolution Value = fromDurableRecord(std::move(Rec));
    if (Value.Block)
      ++BlockRecords;
    Cache.store(Key, std::move(Value));
  }
  obs::blockCacheInstruments().Recovered.inc(BlockRecords);
  obs::log(obs::LogLevel::Info, "service", "durable cache recovered")
      .kv("snapshot_records", Loaded.SnapshotRecords)
      .kv("wal_records", Loaded.WalRecords)
      .kv("block_records", BlockRecords)
      .kv("dropped", Loaded.DroppedRecords)
      .kv("cold_start", Loaded.ColdStart ? 1 : 0)
      .kv("wal_damaged", Loaded.WalDamaged ? 1 : 0);

  // Re-enqueue jobs that were accepted but never answered. Their
  // requesters are gone, so nobody reads the promises — the value of
  // finishing is the durable cache entry the solve will produce.
  std::vector<persist::PendingJob> Pending = Journal->load();
  std::uint64_t MaxId = 0;
  for (persist::PendingJob &P : Pending) {
    MaxId = std::max(MaxId, P.Id);
    std::optional<Request> Req = decodeRequest(P.EncodedRequest);
    if (!Req || Req->V != Verb::Build) {
      Journal->completed(P.Id);
      continue;
    }
    Job J;
    J.Request = std::move(Req->Build);
    // The original deadline was relative to a submission in a previous
    // process life; running to completion is the whole point now.
    J.Request.DeadlineMillis = 0;
    J.SubmitTime = Clock::now();
    J.JournalId = P.Id;
    obs::log(obs::LogLevel::Info, "service", "re-enqueued interrupted job")
        .kv("journal_id", P.Id);
    if (!Queue.push(std::move(J))) {
      Journal->completed(P.Id);
      continue;
    }
    Counters.Accepted.inc();
  }
  // Fresh ids must never collide with journaled ones.
  NextJobId.store(MaxId + 1, std::memory_order_relaxed);
}

std::uint64_t TreeService::storeSolution(std::uint64_t Key,
                                         CachedSolution Value) {
  if (!Store) {
    Cache.store(Key, std::move(Value));
    return 0;
  }
  persist::DurableCacheRecord Rec = toDurableRecord(Key, Value);
  MutexLock Lock(PersistMu);
  const std::uint64_t Seq = Store->write(Rec);
  Cache.store(Key, std::move(Value));
  if (Options.WalCompactBytes != 0 &&
      Store->walBytes() > Options.WalCompactBytes)
    Store->compact(toDurableRecords(Cache.entries()));
  return Seq;
}

void TreeService::journalCompleted(std::uint64_t JournalId) {
  if (!Journal || JournalId == 0)
    return;
  Journal->completed(JournalId);
}

TreeService::~TreeService() { stop(); }

void TreeService::answerSolved(Job &&J, BuildResponse Resp) {
  double TotalMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - J.SubmitTime)
          .count();
  if (Resp.ok()) {
    Counters.Completed.inc();
    Obs.RequestOkMillis.record(TotalMillis);
  } else {
    Counters.Failed.inc();
    Obs.RequestErrorMillis.record(TotalMillis);
    obs::log(obs::LogLevel::Debug, "service", "job answered with error")
        .kv("error", serviceErrorName(Resp.Error))
        .kv("total_ms", TotalMillis);
  }
  Counters.Latency.record(TotalMillis);
  resolveJob(std::move(J), std::move(Resp));
}

void TreeService::resolveJob(Job &&J, BuildResponse Resp) {
  // Answered = done, whether ok or error: either way the client got a
  // response, so a restart must not re-run it.
  journalCompleted(J.JournalId);
  if (J.CoalesceKey != 0) {
    std::vector<std::promise<BuildResponse>> Followers =
        Coalesce.take(J.CoalesceKey);
    if (!Followers.empty()) {
      QosObs.CoalesceFanout.record(static_cast<double>(Followers.size()));
      for (std::promise<BuildResponse> &P : Followers) {
        BuildResponse Copy = Resp;
        Copy.Coalesced = true;
        P.set_value(std::move(Copy));
      }
    }
  }
  J.Promise.set_value(std::move(Resp));
}

std::future<BuildResponse> TreeService::submitAsync(BuildRequest Request) {
  Job J;
  J.Request = std::move(Request);
  J.SubmitTime = Clock::now();
  std::future<BuildResponse> Future = J.Promise.get_future();

  auto reject = [&](ServiceError Error, std::string Message) {
    Counters.Rejected.inc();
    BuildResponse Resp;
    Resp.Error = Error;
    Resp.Message = std::move(Message);
    Resp.Tier = J.Tier;
    Resp.PredictedMillis = J.PredictedMillis;
    // resolveJob marks a journaled-then-rejected job answered (without
    // the completion mark a restart would re-run it) and fans the
    // rejection out to any followers already parked on this leader.
    resolveJob(std::move(J), std::move(Resp));
  };

  if (stopping()) {
    reject(ServiceError::ShuttingDown, "service is shutting down");
    return Future;
  }

  if (Options.Qos.Enabled) {
    // Warm requests — whole-matrix identity already cached — skip
    // admission entirely: answering them is O(replay) regardless of how
    // hard the matrix once was, and the advisory `peek` keeps the probe
    // from distorting cache statistics.
    bool Warm = false;
    std::optional<std::uint64_t> ProbeKey;
    bool CacheOn = Options.CacheCapacity > 0 && J.Request.UseCache;
    if (J.Request.Generator == GeneratorKind::None && CacheOn &&
        J.Request.Matrix.size() > 1) {
      CanonicalForm Form = canonicalForm(J.Request.Matrix);
      ProbeKey = Form.Key;
      Warm = Cache.peek(wholeCacheKey(Form, J.Request),
                        wholeCacheBytes(std::move(Form.Bytes), J.Request));
    }
    if (!Warm) {
      qos::DifficultyProfile Profile =
          J.Request.Generator == GeneratorKind::None
              ? Cost.profileFor(J.Request.Matrix, ProbeKey)
              : qos::CostModel::generatorProfile(J.Request.GenSpecies);
      double RemainingMillis =
          J.Request.DeadlineMillis > 0
              ? static_cast<double>(J.Request.DeadlineMillis)
              : -1.0;
      qos::Verdict V = Admission.assess(J.Request, Profile, RemainingMillis);
      if (!V.Admit) {
        if (V.Error == ServiceError::RateLimited) {
          Counters.RateLimited.inc();
        } else {
          Counters.Shed.inc();
        }
        // Echo the prediction that justified the rejection: the client
        // can tell a hopeless deadline apart from a drained bucket.
        J.PredictedMillis = V.PredictedMillis;
        reject(V.Error, std::move(V.Message));
        return Future;
      }
      J.Tier = V.Tier;
      J.PredictedMillis = V.PredictedMillis;
      J.PredictedNodes = V.PredictedNodes;
      if (V.Tier == QosTier::Pipeline) {
        // The degraded tier *is* the request with a tighter exact cap;
        // the clamp travels with the job (and with a lent copy).
        J.Request.MaxExactBlockSize =
            std::min(std::max(1, J.Request.MaxExactBlockSize),
                     std::max(1, Options.Qos.DegradedMaxExactBlockSize));
      }
    }
    switch (J.Tier) {
    case QosTier::Exact:
      Counters.TierExact.inc();
      break;
    case QosTier::Pipeline:
      Counters.TierPipeline.inc();
      break;
    case QosTier::Heuristic:
      Counters.TierHeuristic.inc();
      break;
    }

    if (Options.QosCoalesce) {
      // Flight identity: the encoded request with scheduling-only
      // fields normalized out (priority and tenant change *when* a job
      // runs, never its answer; the deadline stays — it bounds the
      // node budget and thus the tree).
      BuildRequest Norm = J.Request;
      Norm.Priority = RequestPriority::Normal;
      Norm.Tenant.clear();
      std::vector<std::uint8_t> Identity = encodeBuildRequest(Norm);
      std::uint64_t Key = coalesceKeyOf(Identity);
      bool Tracked = true;
      qos::Coalescer::Attach A = Coalesce.attach(Key, Identity, &Tracked);
      if (!A.Leader) {
        // Parked on the leader's flight: no queue slot, no journal
        // entry — the leader's resolve fans the response out.
        Counters.Coalesced.inc();
        Counters.Accepted.inc();
        return std::move(A.Follower);
      }
      if (Tracked)
        J.CoalesceKey = Key;
    }
  }

  if (Journal) {
    // Journal *before* the queue admits the job: once push returns the
    // worker may already be solving it, and `Completed(id)` must never
    // reach the journal ahead of `Submitted(id)`.
    J.JournalId = NextJobId.fetch_add(1, std::memory_order_relaxed);
    Journal->submitted(J.JournalId, encodeBuildRequest(J.Request));
  }

  // Rich tickets only under QoS: with the layer off every ticket is the
  // default all-equal one, which degrades the ready queue to exactly
  // the FIFO the service always had.
  qos::Ticket Tk;
  if (Options.Qos.Enabled)
    Tk = ticketFor(J.Request, J.SubmitTime);
  std::uint64_t JournalId = J.JournalId;
  std::uint64_t CoalesceKey = J.CoalesceKey;
  bool Admitted = Options.BlockOnFullQueue
                      ? Queue.push(std::move(J), std::move(Tk))
                      : Queue.tryPush(std::move(J), std::move(Tk));
  if (!Admitted) {
    // push/tryPush leave the job (and its promise) untouched on failure.
    J.JournalId = JournalId;
    J.CoalesceKey = CoalesceKey;
    reject(Queue.closed() ? ServiceError::ShuttingDown
                          : ServiceError::QueueFull,
           Queue.closed() ? "service is shutting down" : "job queue full");
    return Future;
  }

  Counters.Accepted.inc();
  return Future;
}

BuildResponse TreeService::submit(BuildRequest Request) {
  return submitAsync(std::move(Request)).get();
}

Response TreeService::handle(Request R) {
  Response Out;
  Out.V = R.V;
  switch (R.V) {
  case Verb::Build:
    Out.Build = submit(std::move(R.Build));
    Out.Error = Out.Build.Error;
    Out.Message = Out.Build.Message;
    break;
  case Verb::Stats:
    Out.Stats = stats();
    break;
  case Verb::StatsJson:
    Out.StatsJson = statsJson();
    break;
  case Verb::Ping:
  case Verb::Shutdown:
    break;
  }
  return Out;
}

StatsSnapshot TreeService::stats() const {
  StatsSnapshot S = Counters.snapshot();
  S.QueueDepth = Queue.depth();
  S.CacheEntries = Cache.size();
  return S;
}

std::string TreeService::statsJson() const {
  StatsSnapshot S = stats();
  auto u64 = [](std::uint64_t V) { return std::to_string(V); };
  auto f64 = [](double V) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return std::string(Buf);
  };
  std::string Out = "{\"service\":{";
  for (const ServiceCounterRow &Row : ServiceCounterRows)
    Out += "\"" + std::string(Row.Key) + "\":" + u64(S.*Row.Field) + ",";
  Out += "\"queue_depth\":" + u64(S.QueueDepth);
  Out += ",\"cache_entries\":" + u64(S.CacheEntries);
  Out += ",\"p50_ms\":" + f64(S.P50Millis);
  Out += ",\"p95_ms\":" + f64(S.P95Millis);
  Out += "}";
  std::function<std::string()> Cluster;
  {
    MutexLock Lock(ClusterStatsMu);
    Cluster = ClusterStats;
  }
  if (Cluster)
    Out += ",\"cluster\":" + Cluster();
  Out += ",\"registry\":";
  Out += obs::MetricsRegistry::global().renderJson();
  Out += "}";
  return Out;
}

void TreeService::stop() {
  MutexLock Lock(StopMu);
  if (Stopping.exchange(true, std::memory_order_acq_rel)) {
    // Already stopped (or stopping on another thread holding the lock
    // first); workers are joined below only once.
    return;
  }
  Queue.close();
  // Fail everything that never reached a worker; in-flight jobs keep
  // running and resolve their promises normally. resolveJob marks each
  // one answered in the journal and fans the rejection out to any
  // followers coalesced onto it.
  for (Job &J : Queue.drain()) {
    Counters.Rejected.inc();
    BuildResponse Resp;
    Resp.Error = ServiceError::ShuttingDown;
    Resp.Message = "service stopped before the job started";
    resolveJob(std::move(J), std::move(Resp));
  }
  // Jobs lent to peers can no longer be completed or re-enqueued; their
  // requesters get the same answer as queued jobs.
  std::unordered_map<std::uint64_t, Job> Leftover;
  {
    MutexLock LentLock(LentMu);
    Leftover.swap(Lent);
  }
  for (auto &[Token, J] : Leftover) {
    Counters.Rejected.inc();
    BuildResponse Resp;
    Resp.Error = ServiceError::ShuttingDown;
    Resp.Message = "service stopped while the job was lent to a peer";
    resolveJob(std::move(J), std::move(Resp));
  }
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  if (Store) {
    // Shutdown compaction folds the WAL into the snapshot so the next
    // start replays one file and an empty log.
    MutexLock PLock(PersistMu);
    Store->compact(toDurableRecords(Cache.entries()));
  }
  if (Journal) {
    // Every job is answered by now; this leaves an empty journal.
    Journal->compact();
  }
}

void TreeService::setClusterStats(std::function<std::string()> Fn) {
  MutexLock Lock(ClusterStatsMu);
  ClusterStats = std::move(Fn);
}

std::optional<TreeService::LentJob> TreeService::lendQueuedJob() {
  std::optional<Job> J = Queue.tryPop();
  if (!J)
    return std::nullopt;
  LentJob Out;
  Out.EncodedRequest = encodeBuildRequest(J->Request);
  MutexLock Lock(LentMu);
  Out.Token = NextLentToken++;
  Lent.emplace(Out.Token, std::move(*J));
  return Out;
}

bool TreeService::completeLentJob(std::uint64_t Token,
                                  BuildResponse Response) {
  Job J;
  {
    MutexLock Lock(LentMu);
    auto It = Lent.find(Token);
    if (It == Lent.end())
      return false;
    J = std::move(It->second);
    Lent.erase(It);
  }
  // The thief solved the (possibly tier-clamped) request but knows
  // nothing of the QoS metadata; restore the echo before fan-out.
  Response.Tier = J.Tier;
  Response.PredictedMillis = J.PredictedMillis;
  answerSolved(std::move(J), std::move(Response));
  return true;
}

bool TreeService::reenqueueLentJob(std::uint64_t Token) {
  Job J;
  {
    MutexLock Lock(LentMu);
    auto It = Lent.find(Token);
    if (It == Lent.end())
      return false;
    J = std::move(It->second);
    Lent.erase(It);
  }
  std::uint64_t JournalId = J.JournalId;
  std::uint64_t CoalesceKey = J.CoalesceKey;
  qos::Ticket Tk;
  if (Options.Qos.Enabled)
    Tk = ticketFor(J.Request, J.SubmitTime);
  if (!Queue.tryPush(std::move(J), std::move(Tk))) {
    // The requester still gets an answer — and a *truthful* one: a full
    // queue is transient overload (retry with backoff), a closed queue
    // is shutdown (resubmit elsewhere). Conflating the two used to send
    // ShuttingDown for both, steering clients away from a live node.
    J.JournalId = JournalId;
    J.CoalesceKey = CoalesceKey;
    Counters.Rejected.inc();
    bool Closing = Queue.closed();
    BuildResponse Resp;
    Resp.Error =
        Closing ? ServiceError::ShuttingDown : ServiceError::QueueFull;
    Resp.Message = Closing
                       ? "lent job returned during shutdown and could "
                         "not be re-enqueued"
                       : "lent job returned to a full queue (overload)";
    resolveJob(std::move(J), std::move(Resp));
    return false;
  }
  return true;
}

std::size_t TreeService::lentJobCount() const {
  MutexLock Lock(LentMu);
  return Lent.size();
}

std::optional<CachedSolution>
TreeService::cacheLookup(std::uint64_t Key,
                         const std::vector<std::uint8_t> &Bytes) {
  if (Options.CacheCapacity == 0)
    return std::nullopt;
  std::optional<CachedSolution> Hit = Cache.lookup(Key, Bytes);
  if (Hit)
    Hit->Bytes = Bytes; // both cluster callers forward the entry
  return Hit;
}

void TreeService::cacheStore(std::uint64_t Key, CachedSolution Value) {
  if (Options.CacheCapacity == 0)
    return;
  const std::uint64_t Seq = storeSolution(Key, std::move(Value));
  if (Store && Options.SyncWrites)
    Store->syncThrough(Seq);
}

void TreeService::workerLoop() {
  while (std::optional<Job> J = Queue.pop()) {
    Obs.QueueWaitMillis.record(std::chrono::duration<double, std::milli>(
                                   Clock::now() - J->SubmitTime)
                                   .count());
    Obs.InFlight.add(1);
    InFlightJobs.fetch_add(1, std::memory_order_relaxed);
    BuildResponse Resp;
    try {
      Resp = process(*J);
    } catch (const std::exception &E) {
      Resp.Error = ServiceError::Internal;
      Resp.Message = E.what();
      obs::log(obs::LogLevel::Warn, "service", "job failed with exception")
          .kv("error", E.what());
    } catch (...) {
      Resp.Error = ServiceError::Internal;
      Resp.Message = "unknown failure";
      obs::log(obs::LogLevel::Warn, "service",
               "job failed with unknown exception");
    }
    // The tier/prediction echo must survive the exception paths too.
    Resp.Tier = J->Tier;
    Resp.PredictedMillis = J->PredictedMillis;
    if (Store && Options.SyncWrites) {
      // Group commit: every cache record this answer can depend on (its
      // own, or another request's it hit) was written before it entered
      // the cache, so one wait for the WAL's current end covers them.
      Store->syncThrough(Store->lastSeq());
    }
    Obs.InFlight.sub(1);
    InFlightJobs.fetch_sub(1, std::memory_order_relaxed);
    if (Options.Qos.Enabled) {
      // Calibration: only genuinely-searched solves carry a meaningful
      // (nodes, millis) pair — cache replays and the heuristic tier
      // branch nothing.
      if (Resp.ok() && !Resp.CacheHit && J->Tier != QosTier::Heuristic &&
          Resp.Branched > 0)
        Cost.observe(Resp.Branched, Resp.SolveMillis);
      if (J->PredictedMillis > 0.0) {
        QosObs.PredictedMillis.record(J->PredictedMillis);
        QosObs.ActualMillis.record(Resp.SolveMillis);
      }
    }
    answerSolved(std::move(*J), std::move(Resp));
  }
}

BuildResponse TreeService::process(const Job &J) {
  const BuildRequest &Request = J.Request;
  Clock::time_point SubmitTime = J.SubmitTime;
  BuildResponse Resp;
  Resp.Tier = J.Tier;
  Resp.PredictedMillis = J.PredictedMillis;
  Clock::time_point Start = Clock::now();
  Resp.QueueMillis =
      std::chrono::duration<double, std::milli>(Start - SubmitTime).count();

  auto fail = [&](ServiceError Error, std::string Message) {
    Resp.Error = Error;
    Resp.Message = std::move(Message);
    return Resp;
  };

  // Deadline accounting: expired jobs are answered, never solved.
  bool HasDeadline = Request.DeadlineMillis > 0;
  Clock::time_point Deadline =
      SubmitTime + std::chrono::milliseconds(Request.DeadlineMillis);
  if (HasDeadline && Start >= Deadline) {
    Counters.DeadlineExpired.inc();
    return fail(ServiceError::DeadlineExpired,
                "deadline elapsed while the job was queued");
  }

  // An inline matrix is used where it lies in the job; a generated one
  // lives here.
  DistanceMatrix Generated;
  switch (Request.Generator) {
  case GeneratorKind::None:
    break;
  case GeneratorKind::Uniform:
  case GeneratorKind::Clustered:
  case GeneratorKind::Ultrametric:
  case GeneratorKind::Dna: {
    if (Request.GenSpecies < 2 || Request.GenSpecies > Options.MaxSpecies)
      return fail(ServiceError::BadRequest,
                  "generator species count out of range");
    int N = Request.GenSpecies;
    std::uint64_t Seed = Request.GenSeed;
    if (Request.Generator == GeneratorKind::Uniform)
      Generated = uniformRandomMetric(N, Seed, 1.0, 100.0);
    else if (Request.Generator == GeneratorKind::Clustered)
      Generated = scaledToMax(plantedClusterMetric(N, Seed), 100.0);
    else if (Request.Generator == GeneratorKind::Ultrametric)
      Generated = randomUltrametricMatrix(N, Seed);
    else
      Generated = hmdnaLikeMatrix(N, Seed);
    break;
  }
  }
  const DistanceMatrix &M = Request.Generator == GeneratorKind::None
                                ? Request.Matrix
                                : Generated;
  if (M.size() == 0)
    return fail(ServiceError::BadMatrix, "empty matrix");
  if (M.size() > Options.MaxSpecies)
    return fail(ServiceError::TooLarge,
                "matrix exceeds the service species cap");

  if (M.size() == 1) {
    PipelineResult Trivial = buildCompactSetTree(M);
    Resp.Newick = toNewick(Trivial.Tree);
    Resp.Cost = Trivial.Cost;
    Resp.Exact = true;
    Resp.SolveMillis = std::chrono::duration<double, std::milli>(
                           Clock::now() - Start)
                           .count();
    return Resp;
  }

  // Whole-matrix cache probe: local tier, then (when clustered) the
  // owning peer's shard.
  bool CacheOn = Options.CacheCapacity > 0 && Request.UseCache;
  CanonicalForm Form;
  std::vector<std::uint8_t> Identity;
  std::uint64_t Key = 0;
  if (CacheOn) {
    Form = canonicalForm(M);
    Identity = wholeCacheBytes(std::move(Form.Bytes), Request);
    Key = wholeCacheKey(Form, Request);
    auto replay = [&](const CachedSolution &Hit) {
      Counters.WholeHits.inc();
      PhyloTree Tree = Hit.Tree.relabeled(Form.Perm);
      Tree.setNames(M.names());
      // A replayed tree must be exactly as good as a fresh solve: same
      // leaf set, ultrametric, and (exact entries are stored only for
      // the feasibility-guaranteeing Maximum mode knobs that are part
      // of the key) dominating the request matrix. Remote entries get
      // the same scrutiny — a peer's cache is no more trusted than ours.
      MUTK_AUDIT(Tree.numLeaves() == M.size(),
                 "cache replay must cover every requested species");
      MUTK_AUDIT(Tree.hasMonotoneHeights(),
                 "cache replay must stay ultrametric after relabeling");
      MUTK_AUDIT(M.size() > MaxAuditedSpecies ||
                     Request.Mode != CondenseMode::Maximum ||
                     !Hit.Exact || Tree.dominatesMatrix(M),
                 "cache replay must dominate the request matrix");
      Resp.Newick = toNewick(Tree);
      Resp.Cost = Hit.Cost;
      Resp.Exact = Hit.Exact;
      Resp.CacheHit = true;
      Resp.SolveMillis = std::chrono::duration<double, std::milli>(
                             Clock::now() - Start)
                             .count();
      return Resp;
    };
    if (std::optional<CachedSolution> Hit = Cache.lookup(Key, Identity))
      return replay(*Hit);
    Counters.WholeMisses.inc();
    if (DistCache *Cluster = Remote.load(std::memory_order_acquire)) {
      if (std::optional<CachedSolution> Hit =
              Cluster->lookup(Key, Identity, CacheTier::Whole)) {
        // Adopt the shard's entry locally so the next probe stays here.
        Cache.store(Key, *Hit);
        return replay(*Hit);
      }
    }
  }

  // Heuristic tier: admission decided only an agglomerative pass fits
  // the deadline. One UPGMM run (complete linkage — feasible for M by
  // construction), no B&B, nothing cached (the tree is not exact) and
  // nothing fed back to calibration (it branches no nodes).
  if (J.Tier == QosTier::Heuristic) {
    PhyloTree Tree = buildLinkageTree(M, Linkage::Maximum);
    if (HasDeadline && Clock::now() > Deadline) {
      Counters.DeadlineExpired.inc();
      return fail(ServiceError::DeadlineExpired,
                  "deadline elapsed during the heuristic solve");
    }
    Resp.Newick = toNewick(Tree);
    Resp.Cost = Tree.weight();
    Resp.Exact = false;
    Resp.SolveMillis =
        std::chrono::duration<double, std::milli>(Clock::now() - Start)
            .count();
    return Resp;
  }

  // Incremental re-solve: a whole-matrix miss that is a small
  // perturbation of a remembered base still replays every clean block
  // from the block tier — the diff only *reports* the reuse, the
  // fingerprint-keyed cache *delivers* it (clean blocks condense to
  // byte-identical matrices). A failed match changes nothing: the
  // request proceeds as a from-scratch solve.
  std::optional<IncrementalIndex::Match> BaseMatch;
  if (Request.Incremental && CacheOn && Bases) {
    obs::IncrementalInstruments &Inc = obs::incrementalInstruments();
    Inc.Requests.inc();
    BaseMatch = Bases->bestBase(M, IncrementalMaxTaxaDelta,
                                IncrementalMaxChangedEntries);
    if (BaseMatch) {
      Counters.IncrementalApplied.inc();
      Inc.TaxaAdded.inc(static_cast<std::uint64_t>(BaseMatch->Delta.TaxaAdded));
      Inc.TaxaRemoved.inc(
          static_cast<std::uint64_t>(BaseMatch->Delta.TaxaRemoved));
      Inc.EntriesChanged.inc(
          static_cast<std::uint64_t>(BaseMatch->Delta.EntriesChanged));
    } else if (Bases->size() == 0) {
      Inc.NoBase.inc();
    } else {
      Inc.DeltaTooLarge.inc();
    }
  }

  PhyloTree SolvedTree;
  Resp = solveFresh(M, Request, Deadline, HasDeadline, SolvedTree);
  Resp.QueueMillis =
      std::chrono::duration<double, std::milli>(Start - SubmitTime).count();
  Resp.Tier = J.Tier;
  Resp.PredictedMillis = J.PredictedMillis;

  if (Resp.ok() && BaseMatch) {
    Resp.IncrementalApplied = true;
    Resp.TaxaAdded = BaseMatch->Delta.TaxaAdded;
    Resp.TaxaRemoved = BaseMatch->Delta.TaxaRemoved;
    Resp.EntriesChanged = BaseMatch->Delta.EntriesChanged;
    Counters.IncrementalDirty.inc(Resp.DirtyBlocks);
    Counters.IncrementalClean.inc(Resp.CleanBlocks);
  }

  if (Resp.ok() && Resp.Exact && CacheOn && Bases)
    Bases->remember(M, Form.Key);

  if (Resp.ok() && Resp.Exact && CacheOn) {
    // Store in canonical labels so any relabeling of M replays it.
    CachedSolution Entry;
    Entry.Cost = Resp.Cost;
    Entry.Exact = Resp.Exact;
    Entry.Bytes = std::move(Identity);
    Entry.Tree = SolvedTree.relabeled(Form.inversePerm());
    if (DistCache *Cluster = Remote.load(std::memory_order_acquire))
      Cluster->insert(Key, Entry, CacheTier::Whole);
    storeSolution(Key, std::move(Entry));
  }
  return Resp;
}

BuildResponse TreeService::solveFresh(const DistanceMatrix &M,
                                      const BuildRequest &Request,
                                      Clock::time_point Deadline,
                                      bool HasDeadline, PhyloTree &OutTree) {
  BuildResponse Resp;
  Clock::time_point Start = Clock::now();

  PipelineOptions Pipeline;
  Pipeline.Mode = Request.Mode;
  Pipeline.MaxExactBlockSize = std::max(1, Request.MaxExactBlockSize);
  Pipeline.PolishTopology = Request.Polish;
  Pipeline.Solver = Options.Solver;
  // Auto block concurrency shares the machine among the request
  // workers: each request gets ~hardware/NumWorkers pool threads so a
  // fully-loaded service does not oversubscribe.
  if (Options.BlockConcurrency == 0) {
    const int Hardware =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Pipeline.BlockConcurrency =
        std::max(1, Hardware / std::max(1, Options.NumWorkers));
  } else {
    Pipeline.BlockConcurrency = Options.BlockConcurrency;
  }
  Pipeline.ThreadsPerBlock = Options.ThreadsPerBlock;
  Pipeline.Bnb.ThreeThree = Request.ThreeThree;

  // Deadline -> node budget: bound every block's branch-and-bound so an
  // over-deadline job is truncated instead of pinning a worker.
  std::uint64_t Budget = Request.NodeBudget;
  if (HasDeadline) {
    double RemainingMillis = std::chrono::duration<double, std::milli>(
                                 Deadline - Start)
                                 .count();
    std::uint64_t DeadlineBudget = static_cast<std::uint64_t>(
        std::max(1.0, RemainingMillis) *
        static_cast<double>(Options.NodesPerMilli));
    Budget = Budget == 0 ? DeadlineBudget : std::min(Budget, DeadlineBudget);
  }
  Pipeline.Bnb.MaxBranchedNodes = Budget;

  // Per-block memoization hooks around the shared cache: local tier
  // first, then (when clustered and the block is worth the round-trip)
  // the owning peer's shard.
  std::uint32_t LocalBlockHits = 0;
  BlockCacheHooks Hooks;
  bool CacheOn = Options.CacheCapacity > 0 && Request.UseCache;
  if (CacheOn) {
    Hooks.Lookup = [&](std::uint64_t Key,
                       const std::vector<std::uint8_t> &Bytes)
        -> std::optional<BlockCacheEntry> {
      obs::BlockCacheInstruments &BC = obs::blockCacheInstruments();
      std::optional<CachedSolution> Hit = Cache.lookup(Key, Bytes);
      if (!Hit) {
        if (DistCache *Cluster = Remote.load(std::memory_order_acquire)) {
          if (canonicalSpeciesCount(Bytes) >= RemoteBlockMinSize) {
            BC.RemoteLookups.inc();
            Hit = Cluster->lookup(Key, Bytes, CacheTier::Block);
            if (Hit) {
              Counters.BlockRemoteHits.inc();
              // Adopt the peer's subtree so the next probe stays local.
              Cache.store(Key, *Hit);
            }
          }
        }
      }
      if (!Hit) {
        Counters.BlockMisses.inc();
        return std::nullopt;
      }
      Counters.BlockHits.inc();
      ++LocalBlockHits;
      BlockCacheEntry Entry;
      Entry.Tree = std::move(Hit->Tree);
      Entry.Cost = Hit->Cost;
      Entry.Exact = Hit->Exact;
      return Entry;
    };
    Hooks.Store = [&](std::uint64_t Key,
                      const std::vector<std::uint8_t> &Bytes,
                      const BlockCacheEntry &Entry) {
      if (!Entry.Exact)
        return; // only proven-optimal blocks are budget/knob-independent
      obs::BlockCacheInstruments &BC = obs::blockCacheInstruments();
      CachedSolution Value;
      Value.Tree = Entry.Tree;
      Value.Cost = Entry.Cost;
      Value.Exact = Entry.Exact;
      Value.Block = true;
      Value.Bytes = Bytes;
      if (DistCache *Cluster = Remote.load(std::memory_order_acquire)) {
        if (canonicalSpeciesCount(Bytes) >= RemoteBlockMinSize) {
          BC.RemoteInserts.inc();
          Cluster->insert(Key, Value, CacheTier::Block);
        }
      }
      BC.Inserts.inc();
      storeSolution(Key, std::move(Value));
    };
    Pipeline.BlockCache = &Hooks;
  }
  if (Store) {
    // Long block solves leave resumable state under <StateDir>/ckpt/;
    // a re-enqueued job after a crash picks each block up where the
    // previous process stopped.
    Pipeline.BlockCheckpoint = &CheckpointHooks;
    Pipeline.Bnb.CheckpointEveryNodes = CheckpointEveryNodes;
    Pipeline.Bnb.CheckpointEverySeconds = CheckpointEverySeconds;
  }

  PipelineResult Result = buildCompactSetTree(M, Pipeline);

  if (HasDeadline && Clock::now() > Deadline) {
    Counters.DeadlineExpired.inc();
    Resp.Error = ServiceError::DeadlineExpired;
    Resp.Message = "deadline elapsed during the solve";
    return Resp;
  }

  Resp.Newick = toNewick(Result.Tree);
  Resp.Cost = Result.Cost;
  Resp.Branched = Result.TotalStats.Branched;
  Resp.BlockCacheHits = LocalBlockHits;
  Resp.Exact = !Result.Blocks.empty();
  Resp.Blocks.reserve(Result.Blocks.size());
  for (const BlockReport &Report : Result.Blocks) {
    Resp.Exact = Resp.Exact && Report.Exact;
    BlockSummary S;
    S.NumBlocks = Report.NumBlocks;
    S.Cost = Report.Cost;
    S.Exact = Report.Exact;
    S.FromCache = Report.FromCache;
    if (Report.FromCache)
      ++Resp.CleanBlocks;
    else
      ++Resp.DirtyBlocks;
    Resp.Blocks.push_back(S);
  }
  OutTree = std::move(Result.Tree);
  Resp.SolveMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  return Resp;
}

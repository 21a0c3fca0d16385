//===- bench/ledger/Replay.cpp - The traced in-process pass ---------------===//

#include "Replay.h"

#include "Inputs.h"

#include "bnb/SequentialBnb.h"
#include "bnb/Topology.h"
#include "graph/Hierarchy.h"
#include "heur/Upgma.h"
#include "matrix/Fingerprint.h"
#include "persist/CacheStore.h"
#include "persist/JobJournal.h"
#include "service/Protocol.h"
#include "service/ResultCache.h"
#include "service/Service.h"
#include "tree/Newick.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

using namespace ledger;
using namespace mutk;

namespace {

/// Whole-matrix cache identity, as `TreeService` derives it (its helpers
/// are private to Service.cpp): canonical bytes plus the knobs that
/// change the tree, under a salted key.
std::vector<std::uint8_t> wholeBytes(const CanonicalForm &Form,
                                     const BuildRequest &Q) {
  std::vector<std::uint8_t> Bytes = Form.Bytes;
  Bytes.push_back(static_cast<std::uint8_t>(Q.Mode));
  Bytes.push_back(Q.Polish ? 1 : 0);
  return Bytes;
}

std::uint64_t wholeKey(const CanonicalForm &Form, const BuildRequest &Q) {
  std::uint64_t Key = Form.Key ^ 0x9e3779b97f4a7c15ull;
  Key ^= static_cast<std::uint64_t>(Q.Mode) * 0x100000001b3ull;
  if (Q.Polish)
    Key ^= 0x2545f4914f6cdd1dull;
  return Key;
}

PhyloTree relabelLeaves(const PhyloTree &Tree, const std::vector<int> &Map) {
  PhyloTree Out;
  Out.setRoot(Out.adoptSubtree(Tree, Map));
  return Out;
}

std::vector<int> inverse(const std::vector<int> &Perm) {
  std::vector<int> Inv(Perm.size());
  for (std::size_t K = 0; K < Perm.size(); ++K)
    Inv[static_cast<std::size_t>(Perm[K])] = static_cast<int>(K);
  return Inv;
}

persist::DurableCacheRecord durable(std::uint64_t Key, CachedSolution V) {
  persist::DurableCacheRecord R;
  R.Key = Key;
  R.CanonicalBytes = std::move(V.Bytes);
  R.Tree = std::move(V.Tree);
  R.Cost = V.Cost;
  R.Exact = V.Exact;
  R.Space = V.Block ? persist::CacheNamespace::Block
                    : persist::CacheNamespace::Whole;
  return R;
}

/// Hierarchy nodes in the order the pipeline reports their blocks.
void preorderInternal(const CompactHierarchy &H, int Id, std::vector<int> &Out) {
  if (H.node(Id).isSingleton())
    return;
  Out.push_back(Id);
  for (int Child : H.node(Id).Children)
    preorderInternal(H, Child, Out);
}

/// What serving one request left behind for the counts and the replay.
struct Served {
  std::optional<Request> Decoded;
  std::optional<PipelineResult> Result;
  std::uint32_t PipelineSpan = 0;
  bool Hit = false;
  std::size_t RequestBytes = 0;
};

/// One pass's state: its own result cache and durable stores, the
/// recorder and the running counts.
class Pass {
public:
  Pass(const ReplayOptions &Options, TraceRecorder &Rec)
      : Options(Options), Rec(Rec), Cache(Options.CacheEntries) {
    if (Options.Durable) {
      std::filesystem::create_directories(Options.StateDir);
      Store = std::make_unique<persist::CacheStore>(Options.StateDir);
      Journal = std::make_unique<persist::JobJournal>(Options.StateDir);
    }
  }

  /// Serves \p M as request \p TraceId; priming requests are neither
  /// recorded nor counted.
  void request(std::uint32_t TraceId, const DistanceMatrix &M, bool Priming);

  ReplayCounts Counts;
  double RequestMs = 0.0;
  std::string Error;

private:
  Served serve(TraceRecorder &R, std::uint32_t TraceId,
               const DistanceMatrix &Input);
  void persistRecord(TraceRecorder &R, std::uint32_t TraceId,
                     std::uint32_t Parent, std::uint64_t Key,
                     const CachedSolution &Value);
  void replaySteps(std::uint32_t TraceId, std::uint32_t Pipeline,
                   const DistanceMatrix &M, const PipelineResult &Result);
  void fail(const std::string &What) {
    if (Error.empty())
      Error = What;
  }

  const ReplayOptions &Options;
  TraceRecorder &Rec;
  ShardedLruCache Cache;
  std::unique_ptr<persist::CacheStore> Store;
  std::unique_ptr<persist::JobJournal> Journal;
  std::uint64_t NextJobId = 1;
};

void Pass::persistRecord(TraceRecorder &R, std::uint32_t TraceId,
                         std::uint32_t Parent, std::uint64_t Key,
                         const CachedSolution &Value) {
  if (!Store)
    return;
  {
    SpanScope S(R, TraceId, Parent, "persist.cache_append");
    Store->append(durable(Key, Value), ServiceOptions().SyncWrites);
  }
  if (Store->walBytes() <= ServiceOptions().WalCompactBytes)
    return;
  SpanScope S(R, TraceId, Parent, "persist.compact");
  std::vector<persist::DurableCacheRecord> All;
  for (auto &[K, V] : Cache.entries())
    All.push_back(durable(K, std::move(V)));
  S.setCount(All.size());
  Store->compact(All);
}

Served Pass::serve(TraceRecorder &R, std::uint32_t TraceId,
                   const DistanceMatrix &Input) {
  Served Out;
  SpanScope Root(R, TraceId, 0, "request");
  Root.setCount(static_cast<std::uint64_t>(Input.size()));
  const std::uint32_t P = Root.id();

  BuildRequest Q;
  Q.Matrix = Input;
  Q.UseCache = Options.UseCache;
  std::vector<std::uint8_t> Wire;
  {
    SpanScope S(R, TraceId, P, "service.wire.encode_request");
    Wire = encodeRequest(makeBuildRequest(Q));
    S.setCount(Wire.size());
  }
  Out.RequestBytes = Wire.size();
  {
    SpanScope S(R, TraceId, P, "service.wire.decode_request");
    Out.Decoded = decodeRequest(Wire);
  }
  if (!Out.Decoded) {
    fail("request failed to decode");
    return Out;
  }
  const DistanceMatrix &M = Out.Decoded->Build.Matrix;
  std::uint64_t JobId = NextJobId++;
  if (Journal) {
    SpanScope S(R, TraceId, P, "persist.journal_append");
    Journal->submitted(JobId, Wire);
  }

  CanonicalForm Form;
  std::optional<CachedSolution> Hit;
  if (Options.UseCache) {
    {
      SpanScope S(R, TraceId, P, "matrix.fingerprint");
      Form = canonicalForm(M);
    }
    SpanScope S(R, TraceId, P, "service.cache.lookup");
    Hit = Cache.lookup(wholeKey(Form, Q), wholeBytes(Form, Q));
  }

  PhyloTree Tree;
  double Cost = 0.0;
  bool Exact = true;
  if (Hit) {
    SpanScope S(R, TraceId, P, "service.cache.replay");
    Tree = relabelLeaves(Hit->Tree, Form.Perm);
    Tree.setNames(M.names());
    Cost = Hit->Cost;
    Exact = Hit->Exact;
    Out.Hit = true;
  } else {
    SpanScope S(R, TraceId, P, "compact.pipeline");
    const std::uint32_t PS = S.id();
    Out.PipelineSpan = PS;
    BlockCacheHooks Hooks;
    Hooks.Lookup = [&](std::uint64_t Key, const std::vector<std::uint8_t> &B)
        -> std::optional<BlockCacheEntry> {
      SpanScope L(R, TraceId, PS, "service.cache.block_lookup");
      std::optional<CachedSolution> Block = Cache.lookup(Key, B);
      if (!Block)
        return std::nullopt;
      return BlockCacheEntry{std::move(Block->Tree), Block->Cost,
                             Block->Exact};
    };
    Hooks.Store = [&](std::uint64_t Key, const std::vector<std::uint8_t> &B,
                      const BlockCacheEntry &Entry) {
      if (!Entry.Exact)
        return;
      SpanScope St(R, TraceId, PS, "service.cache.block_store");
      CachedSolution Value{Entry.Tree, Entry.Cost, true, true, B};
      persistRecord(R, TraceId, St.id(), Key, Value);
      Cache.store(Key, std::move(Value));
    };
    PipelineOptions Pipeline = daemonPipeline();
    if (Options.UseCache)
      Pipeline.BlockCache = &Hooks;
    Out.Result = buildCompactSetTree(M, Pipeline);
    S.setCount(Out.Result->TotalStats.Branched);
    Cost = Out.Result->Cost;
    Exact = !Out.Result->Blocks.empty();
    for (const BlockReport &B : Out.Result->Blocks)
      Exact = Exact && B.Exact;
    Tree = Out.Result->Tree;
  }

  std::string Newick;
  {
    SpanScope S(R, TraceId, P, "tree.newick");
    Newick = toNewick(Tree);
    S.setCount(Newick.size());
  }
  if (Out.Result && Exact && Options.UseCache) {
    SpanScope S(R, TraceId, P, "service.cache.store");
    CachedSolution Entry;
    Entry.Cost = Cost;
    Entry.Exact = true;
    Entry.Bytes = wholeBytes(Form, Q);
    Entry.Tree = relabelLeaves(Tree, inverse(Form.Perm));
    persistRecord(R, TraceId, S.id(), wholeKey(Form, Q), Entry);
    Cache.store(wholeKey(Form, Q), std::move(Entry));
  }
  if (Journal) {
    SpanScope S(R, TraceId, P, "persist.journal_append");
    Journal->completed(JobId);
  }
  SpanScope S(R, TraceId, P, "service.wire.encode_response");
  Response Resp;
  Resp.V = Verb::Build;
  Resp.Build.Newick = std::move(Newick);
  Resp.Build.Cost = Cost;
  Resp.Build.Exact = Exact;
  Resp.Build.CacheHit = Out.Hit;
  S.setCount(encodeResponse(Resp).size());
  return Out;
}

void Pass::replaySteps(std::uint32_t TraceId, std::uint32_t Pipeline,
                       const DistanceMatrix &M, const PipelineResult &Result) {
  const PipelineOptions Defaults = daemonPipeline();
  std::vector<CompactSet> Sets;
  {
    SpanScope S(Rec, TraceId, Pipeline, "graph.compact_sets", true);
    Sets = findCompactSets(M);
    S.setCount(Sets.size());
  }
  std::optional<CompactHierarchy> H;
  {
    SpanScope S(Rec, TraceId, Pipeline, "graph.hierarchy", true);
    H.emplace(M.size(), Sets);
    S.setCount(static_cast<std::uint64_t>(H->numNodes()));
  }
  std::vector<int> Order;
  preorderInternal(*H, H->rootId(), Order);
  if (Order.size() != Result.Blocks.size()) {
    fail("replayed hierarchy has a different block count");
    return;
  }
  for (std::size_t I = 0; I < Order.size(); ++I) {
    const BlockReport &Report = Result.Blocks[I];
    DistanceMatrix C;
    {
      SpanScope S(Rec, TraceId, Pipeline, "matrix.condense", true);
      C = condense(M, H->partitionAt(Order[I]), Defaults.Mode);
      S.setCount(static_cast<std::uint64_t>(C.size()));
    }
    if (Report.HierarchyNode != Order[I] || Report.NumBlocks != C.size()) {
      fail("replayed block order differs from the pipeline's");
      return;
    }
    if (Options.UseCache && C.size() >= 2) {
      SpanScope S(Rec, TraceId, Pipeline, "matrix.fingerprint", true);
      canonicalForm(C);
    }
    if (Report.FromCache)
      continue;
    double Cost = 0.0;
    std::uint64_t Branched = 0;
    if (C.size() <= Defaults.MaxExactBlockSize && C.size() <= MaxBnbSpecies) {
      SpanScope S(Rec, TraceId, Pipeline, "bnb.solve", true);
      MutResult Solved = solveMutSequential(C, Defaults.Bnb);
      Cost = Solved.Cost;
      Branched = Solved.Stats.Branched;
      S.setCount(Branched);
    } else {
      SpanScope S(Rec, TraceId, Pipeline, "heur.upgmm", true);
      Cost = upgmm(C).weight();
      S.setCount(static_cast<std::uint64_t>(C.size()));
    }
    if (Cost != Report.Cost || Branched != Report.Branched)
      fail("replayed block " + std::to_string(I) + " of request " +
           std::to_string(TraceId) + " disagrees with its BlockReport");
  }
}

void Pass::request(std::uint32_t TraceId, const DistanceMatrix &M,
                   bool Priming) {
  TraceRecorder Off(false);
  auto Start = std::chrono::steady_clock::now();
  Served S = serve(Priming ? Off : Rec, TraceId, M);
  if (Priming)
    return;
  RequestMs += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  ++Counts.Requests;
  Counts.RequestBytes += S.RequestBytes;
  if (S.Hit)
    ++Counts.WholeHits;
  if (!S.Result)
    return;
  const PipelineResult &R = *S.Result;
  for (const BlockReport &B : R.Blocks) {
    ++Counts.Blocks;
    Counts.ExactBlocks += B.Exact ? 1 : 0;
    Counts.CachedBlocks += B.FromCache ? 1 : 0;
    Counts.FallbackBlocks += B.Exact ? 0 : 1;
    Counts.MaxBlock =
        std::max<std::uint64_t>(Counts.MaxBlock,
                                static_cast<std::uint64_t>(B.NumBlocks));
  }
  Counts.Branched += R.TotalStats.Branched;
  Counts.Generated += R.TotalStats.Generated;
  Counts.BoundEvals += R.TotalStats.BoundEvals;
  if (Rec.enabled())
    replaySteps(TraceId, S.PipelineSpan, S.Decoded->Build.Matrix, R);
}

} // namespace

ReplayResult
ledger::replayPass(const std::vector<DistanceMatrix> &Prime, std::size_t Count,
                   const std::function<DistanceMatrix(std::size_t)> &Request,
                   const ReplayOptions &Options) {
  TraceRecorder Rec(Options.Traced);
  ReplayResult Out;
  {
    Pass P(Options, Rec);
    for (const DistanceMatrix &M : Prime)
      P.request(0, M, /*Priming=*/true);
    for (std::size_t I = 0; I < Count; ++I)
      P.request(static_cast<std::uint32_t>(I), Request(I), /*Priming=*/false);
    Out.Counts = P.Counts;
    Out.RequestMs = P.RequestMs;
    Out.Error = P.Error;
  }
  Out.Spans = Rec.spans();
  if (Options.Durable) {
    std::error_code Ignored;
    std::filesystem::remove_all(Options.StateDir, Ignored);
  }
  return Out;
}

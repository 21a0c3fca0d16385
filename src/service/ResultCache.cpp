//===- service/ResultCache.cpp - Sharded LRU solution cache ---------------===//

#include "service/ResultCache.h"

#include "support/Audit.h"

#include <algorithm>

using namespace mutk;

persist::DurableCacheRecord mutk::toDurableRecord(std::uint64_t Key,
                                                  CachedSolution Value) {
  persist::DurableCacheRecord Rec;
  Rec.Key = Key;
  Rec.CanonicalBytes = std::move(Value.Bytes);
  Rec.Tree = std::move(Value.Tree);
  Rec.Cost = Value.Cost;
  Rec.Exact = Value.Exact;
  Rec.Space = Value.Block ? persist::CacheNamespace::Block
                          : persist::CacheNamespace::Whole;
  return Rec;
}

CachedSolution mutk::fromDurableRecord(persist::DurableCacheRecord Rec) {
  CachedSolution Value;
  Value.Tree = std::move(Rec.Tree);
  Value.Cost = Rec.Cost;
  Value.Exact = Rec.Exact;
  Value.Block = Rec.Space == persist::CacheNamespace::Block;
  Value.Bytes = std::move(Rec.CanonicalBytes);
  return Value;
}

#if MUTK_AUDIT_ENABLED
bool ShardedLruCache::shardConsistent(const Shard &S) const {
  if (S.Index.size() != S.Lru.size() || S.Lru.size() > CapacityPerShard)
    return false;
  for (auto It = S.Lru.begin(); It != S.Lru.end(); ++It) {
    auto Found = S.Index.find(It->first);
    if (Found == S.Index.end() || Found->second != It)
      return false;
  }
  return true;
}
#endif

ShardedLruCache::ShardedLruCache(std::size_t Capacity, int NumShards) {
  NumShards = std::max(1, NumShards);
  Shards.reserve(static_cast<std::size_t>(NumShards));
  for (int I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  CapacityPerShard =
      std::max<std::size_t>(1, Capacity / static_cast<std::size_t>(NumShards));
}

void ShardedLruCache::setInstruments(
    const obs::CacheInstruments *Aggregate,
    std::vector<obs::CacheShardInstruments> PerShard) {
  if (Aggregate)
    AggregateTwins = {&Aggregate->Hits, &Aggregate->Misses,
                      &Aggregate->Evictions};
  for (std::size_t I = 0; I < std::min(PerShard.size(), Shards.size()); ++I)
    Shards[I]->Twins = {PerShard[I].Hits, PerShard[I].Misses,
                        PerShard[I].Evictions};
}

void ShardedLruCache::count(const Shard &S, Event E) {
  Counts[E].fetch_add(1, std::memory_order_relaxed);
  for (obs::Counter *Twin : {AggregateTwins[E], S.Twins[E]})
    if (Twin)
      Twin->inc();
}

ShardedLruCache::Shard &ShardedLruCache::shardFor(std::uint64_t Key) {
  // The key is a `hashBytes` hash, mixed in every bit; fold the high
  // bits in so shard selection does not just reuse the low bits the
  // index hashes with.
  std::uint64_t Mixed = Key ^ (Key >> 32);
  return *Shards[static_cast<std::size_t>(Mixed % Shards.size())];
}

std::optional<CachedSolution>
ShardedLruCache::lookup(std::uint64_t Key,
                        const std::vector<std::uint8_t> &Bytes) {
  Shard &S = shardFor(Key);
  MutexLock Lock(S.Mu);
  auto It = S.Index.find(Key);
  if (It == S.Index.end() || It->second->second.Bytes != Bytes) {
    count(S, Miss);
    return std::nullopt;
  }
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  count(S, Hit);
  MUTK_AUDIT(shardConsistent(S),
             "cache shard index/LRU desynchronized after lookup");
  const CachedSolution &Entry = It->second->second;
  return CachedSolution{Entry.Tree, Entry.Cost, Entry.Exact, Entry.Block, {}};
}

bool ShardedLruCache::peek(std::uint64_t Key,
                           const std::vector<std::uint8_t> &Bytes) {
  Shard &S = shardFor(Key);
  MutexLock Lock(S.Mu);
  auto It = S.Index.find(Key);
  return It != S.Index.end() && It->second->second.Bytes == Bytes;
}

void ShardedLruCache::store(std::uint64_t Key, CachedSolution Value) {
  Shard &S = shardFor(Key);
  MutexLock Lock(S.Mu);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    // Refresh: a colliding key overwrites (last writer wins; the bytes
    // check on lookup keeps either outcome correct).
    It->second->second = std::move(Value);
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  if (S.Lru.size() >= CapacityPerShard) {
    S.Index.erase(S.Lru.back().first);
    S.Lru.pop_back();
    count(S, Eviction);
  }
  S.Lru.emplace_front(Key, std::move(Value));
  S.Index.emplace(Key, S.Lru.begin());
  MUTK_AUDIT(shardConsistent(S),
             "cache shard index/LRU desynchronized after store");
}

void ShardedLruCache::clear() {
  for (auto &S : Shards) {
    MutexLock Lock(S->Mu);
    S->Lru.clear();
    S->Index.clear();
  }
}

std::vector<std::pair<std::uint64_t, CachedSolution>>
ShardedLruCache::entries() const {
  std::vector<std::pair<std::uint64_t, CachedSolution>> Out;
  for (const auto &S : Shards) {
    MutexLock Lock(S->Mu);
    // Front = most recently used; walk backwards for LRU-first order.
    for (auto It = S->Lru.rbegin(); It != S->Lru.rend(); ++It)
      Out.push_back(*It);
  }
  return Out;
}

std::size_t ShardedLruCache::size() const {
  std::size_t Total = 0;
  for (const auto &S : Shards) {
    MutexLock Lock(S->Mu);
    Total += S->Lru.size();
  }
  return Total;
}

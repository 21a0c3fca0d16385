//===- service/ResultCache.h - Sharded LRU solution cache -------*- C++ -*-===//
///
/// \file
/// The memoization layer of the tree-construction service: a sharded LRU
/// cache from canonical matrix fingerprints (`matrix/Fingerprint.h`) to
/// solved trees in canonical leaf labels. One cache instance holds both
/// whole-matrix results and per-condensed-block subtrees (the service
/// salts the two key spaces apart), so repeated or overlapping queries
/// skip branch-and-bound entirely.
///
/// Sharding bounds lock contention: a key maps to one of `NumShards`
/// independent LRU lists, each behind its own mutex, so concurrent
/// workers rarely serialize. Hash collisions are handled by storing the
/// canonical bytes with each entry and comparing them on lookup — a
/// colliding key is a miss, never a wrong tree.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SERVICE_RESULTCACHE_H
#define MUTK_SERVICE_RESULTCACHE_H

#include "obs/Instruments.h"
#include "persist/CacheStore.h"
#include "support/Audit.h"
#include "support/Mutex.h"
#include "tree/PhyloTree.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mutk {

/// A cached solution: the tree is stored in *canonical* leaf labels (the
/// maxmin order of the matrix it solves), names stripped; `Bytes` is the
/// canonical form that produced the key, kept for collision checks.
struct CachedSolution {
  PhyloTree Tree;
  double Cost = 0.0;
  bool Exact = true;
  /// Block-tier entry (per-condensed-block subtree) rather than a
  /// whole-matrix result. The key spaces are already salted apart; this
  /// flag rides along so persistence and cluster transport can keep the
  /// namespace without reverse-engineering the key.
  bool Block = false;
  std::vector<std::uint8_t> Bytes;
};

/// \name The durable record of a cache entry (`persist/CacheStore.h`).
/// Its encoding, `persist::encodeCacheRecord`, is also the body of the
/// cluster's `CacheHit` and `CacheInsert` frames.
/// @{
persist::DurableCacheRecord toDurableRecord(std::uint64_t Key,
                                            CachedSolution Value);
/// The entry \p Rec holds; its key is `Rec.Key`.
CachedSolution fromDurableRecord(persist::DurableCacheRecord Rec);
/// @}

/// Sharded LRU map `fingerprint -> CachedSolution`, safe for concurrent
/// lookup/store from any number of threads.
class ShardedLruCache {
public:
  /// \p Capacity is the *total* entry budget, split evenly across
  /// \p NumShards (each shard holds at least one entry).
  explicit ShardedLruCache(std::size_t Capacity, int NumShards = 8);

  /// Returns a copy of the entry for \p Key whose stored bytes equal
  /// \p Bytes, refreshing its recency; nullopt (a miss) otherwise. The
  /// copy's `Bytes` are left empty: on a hit they equal \p Bytes, and a
  /// caller that forwards the entry fills them from its probe
  /// (`TreeService::cacheLookup`).
  std::optional<CachedSolution> lookup(std::uint64_t Key,
                                       const std::vector<std::uint8_t> &Bytes);

  /// Inserts or refreshes \p Value under \p Key, evicting the shard's
  /// least-recently-used entry when full.
  void store(std::uint64_t Key, CachedSolution Value);

  /// True when an entry for \p Key with exactly \p Bytes exists. Unlike
  /// `lookup` this copies nothing, refreshes no recency and counts no
  /// hit/miss — an advisory probe (the QoS layer exempts warm requests
  /// from admission control with it) that must not distort the cache's
  /// own statistics.
  bool peek(std::uint64_t Key, const std::vector<std::uint8_t> &Bytes);

  /// Drops every entry (counters are kept).
  void clear();

  /// Copies out every entry, least-recently-used first (so replaying the
  /// list through `store` reproduces the recency order). Used by the
  /// persistence layer to compact the cache into a snapshot file.
  std::vector<std::pair<std::uint64_t, CachedSolution>> entries() const;

  /// Attaches registry counters: the aggregate hit/miss/eviction trio
  /// plus one labeled trio per shard (`Shards.size()` entries expected;
  /// extras ignored). Existing totals are not replayed.
  void setInstruments(const obs::CacheInstruments *Aggregate,
                      std::vector<obs::CacheShardInstruments> PerShard);

  std::uint64_t hits() const { return Counts[Hit].load(); }
  std::uint64_t misses() const { return Counts[Miss].load(); }
  std::uint64_t evictions() const { return Counts[Eviction].load(); }
  std::size_t size() const;

private:
  /// What the cache counts: once for itself, once in the aggregate
  /// registry counter and once in its shard's labeled one.
  enum Event : std::size_t { Hit, Miss, Eviction, NumEvents };
  using EventTwins = std::array<obs::Counter *, NumEvents>;

  struct Shard {
    EventTwins Twins{};
    mutable Mutex Mu{"service.cache.shard"};
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, CachedSolution>> Lru MUTK_GUARDED_BY(Mu);
    std::unordered_map<std::uint64_t, decltype(Lru)::iterator> Index
        MUTK_GUARDED_BY(Mu);
  };

  Shard &shardFor(std::uint64_t Key);

  /// Counts \p E in every scope at once.
  void count(const Shard &S, Event E);

#if MUTK_AUDIT_ENABLED
  /// Shard structural invariants, checked under the shard lock: the
  /// index mirrors the LRU list one-to-one and capacity is respected.
  bool shardConsistent(const Shard &S) const MUTK_REQUIRES(S.Mu);
#endif

  std::vector<std::unique_ptr<Shard>> Shards;
  EventTwins AggregateTwins{};
  std::size_t CapacityPerShard;
  std::array<std::atomic<std::uint64_t>, NumEvents> Counts{};
};

} // namespace mutk

#endif // MUTK_SERVICE_RESULTCACHE_H

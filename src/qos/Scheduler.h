//===- qos/Scheduler.h - Priority/EDF ready queue ---------------*- C++ -*-===//
///
/// \file
/// The service's job queue: a bounded MPMC ready queue whose consumers
/// are handed the *best* entry rather than the oldest. Each entry
/// carries a `Ticket` (priority, deadline, tenant) and the pick order is:
///
///   1. *Starvation hatch*: any entry queued longer than
///      `StarvationMillis` is served oldest-first regardless of rank, so
///      a stream of high-priority arrivals cannot park a low-priority
///      job forever.
///   2. Priority strata, high before low.
///   3. Within a stratum, the least-served tenant first (fair sharing by
///      cumulative serve counts).
///   4. Within a tenant, earliest deadline first; deadline-free entries
///      rank behind every deadline.
///   5. Submission order (FIFO).
///
/// With uniform tickets — the QoS-off configuration — every comparison
/// ties and rule 5 degrades the queue to *exactly* a FIFO, which is what
/// keeps the non-QoS service behavior (and its tests) unchanged.
/// Close/drain semantics: `push` blocks while full and fails only once
/// closed, `pop` drains accepted items after close, and failed pushes
/// leave the item untouched in the caller (its promise still has to be
/// resolved).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_QOS_SCHEDULER_H
#define MUTK_QOS_SCHEDULER_H

#include "obs/Instruments.h"
#include "support/Audit.h"
#include "support/Mutex.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mutk::qos {

/// Scheduling metadata of one queued entry. Default-constructed tickets
/// are all equal, which makes the queue a plain FIFO.
struct Ticket {
  using Clock = std::chrono::steady_clock;

  /// Higher runs sooner (`RequestPriority` values on the wire).
  std::uint8_t Priority = 1;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
  /// Fair-share bucket; empty is the default tenant.
  std::string Tenant;

  // Filled by the queue on push.
  std::uint64_t Seq = 0;
  Clock::time_point Enqueued{};
};

/// Knobs of the ready queue's pick order.
struct SchedulerOptions {
  /// Entries waiting longer than this are served oldest-first regardless
  /// of priority/tenant rank (0 disables the hatch).
  double StarvationMillis = 5000.0;
  /// Optional counter bumped when the hatch overrides the rank order.
  obs::Counter *StarvationPromotions = nullptr;
};

/// The non-template pick/fairness core, shared by every `ReadyQueue`
/// instantiation and unit-testable without a queue. Externally
/// synchronized (the queue calls it under its own mutex).
class ReadyPolicy {
public:
  explicit ReadyPolicy(SchedulerOptions Options) : Options(Options) {}

  /// Index of the entry to serve next among \p Tickets (nonempty).
  /// Sets \p *Starved when the starvation hatch overrode the rank order.
  std::size_t pick(const std::vector<const Ticket *> &Tickets,
                   Ticket::Clock::time_point Now, bool *Starved) const;

  /// Records one serve against \p Tenant's fair-share count.
  void served(const std::string &Tenant);

private:
  /// True when \p A should be served before \p B under rules 2-5.
  bool ranksBefore(const Ticket &A, const Ticket &B) const;

  std::uint64_t servedCount(const std::string &Tenant) const;

  SchedulerOptions Options;
  /// Cumulative serves per tenant. Bounded: the map is reset when a
  /// pathological tenant churn would grow it past `MaxTenants` (fairness
  /// restarts from a clean slate, which is benign).
  static constexpr std::size_t MaxTenants = 4096;
  std::unordered_map<std::string, std::uint64_t> ServedByTenant;
};

/// Bounded MPMC ready queue with ticket-ranked pops.
template <typename T> class ReadyQueue {
public:
  explicit ReadyQueue(std::size_t Capacity, SchedulerOptions Options = {},
                      obs::QueueInstruments Instruments = {})
      : Instruments(Instruments), Options(Options), Capacity(Capacity),
        Policy(Options) {}

  ReadyQueue(const ReadyQueue &) = delete;
  ReadyQueue &operator=(const ReadyQueue &) = delete;

  /// Blocks while full. \returns false once closed — the item is then
  /// left untouched in the caller.
  bool push(T &&Item, Ticket Tk = {}) {
    MutexLock Lock(Mu);
    while (Items.size() >= Capacity && !Closed)
      NotFull.wait(Lock);
    if (Closed) {
      noteRejected();
      return false;
    }
    admit(std::move(Item), std::move(Tk));
    return true;
  }

  /// Non-blocking push. \returns false when full or closed (item left
  /// untouched, as with `push`).
  bool tryPush(T &&Item, Ticket Tk = {}) {
    MutexLock Lock(Mu);
    if (Closed || Items.size() >= Capacity) {
      noteRejected();
      return false;
    }
    admit(std::move(Item), std::move(Tk));
    return true;
  }

  /// Blocks while empty; serves the best-ranked entry. \returns nullopt
  /// once closed *and* drained.
  std::optional<T> pop() {
    MutexLock Lock(Mu);
    while (Items.empty() && !Closed)
      NotEmpty.wait(Lock);
    if (Items.empty())
      return std::nullopt;
    return take(pickIndex());
  }

  /// Non-blocking pop of the best-ranked entry (nullopt when empty,
  /// whether or not the queue is closed).
  std::optional<T> tryPop() {
    MutexLock Lock(Mu);
    if (Items.empty())
      return std::nullopt;
    return take(pickIndex());
  }

  /// Atomically removes and returns everything currently queued, in
  /// submission order.
  std::vector<T> drain() {
    MutexLock Lock(Mu);
    std::vector<T> Out;
    Out.reserve(Items.size());
    for (Entry &E : Items)
      Out.push_back(std::move(E.Item));
    if (Instruments.Depth)
      Instruments.Depth->sub(static_cast<std::int64_t>(Items.size()));
    Items.clear();
    NotFull.notify_all();
    return Out;
  }

  /// Rejects future pushes and wakes every blocked producer/consumer.
  void close() {
    MutexLock Lock(Mu);
    Closed = true;
    NotEmpty.notify_all();
    NotFull.notify_all();
  }

  bool closed() const {
    MutexLock Lock(Mu);
    return Closed;
  }

  std::size_t depth() const {
    MutexLock Lock(Mu);
    return Items.size();
  }

private:
  struct Entry {
    Ticket Tk;
    T Item;
  };

  void admit(T &&Item, Ticket &&Tk) MUTK_REQUIRES(Mu) {
    Tk.Seq = NextSeq++;
    Tk.Enqueued = Ticket::Clock::now();
    Items.push_back(Entry{std::move(Tk), std::move(Item)});
    MUTK_AUDIT(Items.size() <= Capacity,
               "ready queue exceeded its capacity");
    if (Instruments.Depth)
      Instruments.Depth->add(1);
    if (Instruments.Enqueued)
      Instruments.Enqueued->inc();
    NotEmpty.notify_one();
  }

  std::size_t pickIndex() MUTK_REQUIRES(Mu) {
    std::vector<const Ticket *> Tickets;
    Tickets.reserve(Items.size());
    for (const Entry &E : Items)
      Tickets.push_back(&E.Tk);
    bool Starved = false;
    std::size_t Index =
        Policy.pick(Tickets, Ticket::Clock::now(), &Starved);
    if (Starved && Options.StarvationPromotions)
      Options.StarvationPromotions->inc();
    return Index;
  }

  std::optional<T> take(std::size_t Index) MUTK_REQUIRES(Mu) {
    auto It = Items.begin() + static_cast<std::ptrdiff_t>(Index);
    Policy.served(It->Tk.Tenant);
    T Item = std::move(It->Item);
    Items.erase(It);
    if (Instruments.Depth)
      Instruments.Depth->sub(1);
    NotFull.notify_one();
    return Item;
  }

  void noteRejected() MUTK_REQUIRES(Mu) {
    if (Instruments.Rejected)
      Instruments.Rejected->inc();
  }

  obs::QueueInstruments Instruments;
  /// Immutable after construction (safe to read without the lock).
  SchedulerOptions Options;
  mutable Mutex Mu{"qos.sched"};
  CondVar NotFull;
  CondVar NotEmpty;
  std::deque<Entry> Items MUTK_GUARDED_BY(Mu);
  std::size_t Capacity;
  std::uint64_t NextSeq MUTK_GUARDED_BY(Mu) = 0;
  ReadyPolicy Policy MUTK_GUARDED_BY(Mu);
  bool Closed MUTK_GUARDED_BY(Mu) = false;
};

} // namespace mutk::qos

#endif // MUTK_QOS_SCHEDULER_H

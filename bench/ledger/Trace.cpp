//===- bench/ledger/Trace.cpp - In-memory span recorder -------------------===//

#include "Trace.h"

#include "Stats.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

using namespace ledger;

std::uint32_t TraceRecorder::begin(std::uint32_t TraceId, std::uint32_t Parent,
                                   const char *Name, bool Replay) {
  if (!Enabled)
    return 0;
  Span S;
  S.TraceId = TraceId;
  S.Id = static_cast<std::uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Name = Name;
  S.Replay = Replay;
  Spans.push_back(S);
  // Read the clock last so the bookkeeping above is not inside the span.
  Spans.back().StartNs = nowNs();
  return Spans.back().Id;
}

void TraceRecorder::end(std::uint32_t Id, std::uint64_t Count) {
  if (Id == 0)
    return;
  std::int64_t Now = nowNs();
  Span &S = Spans[Id - 1];
  S.EndNs = Now;
  S.Count = Count;
}

std::vector<std::int64_t> ledger::selfTimesNs(const std::vector<Span> &Spans) {
  std::unordered_map<std::uint32_t, std::size_t> Index;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Index.emplace(Spans[I].Id, I);

  std::vector<std::vector<std::size_t>> Children(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    auto It = Index.find(Spans[I].Parent);
    if (Spans[I].Parent != 0 && It != Index.end())
      Children[It->second].push_back(I);
  }

  std::vector<std::int64_t> Self(Spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> Intervals;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::int64_t Charged = 0;
    Intervals.clear();
    for (std::size_t C : Children[I]) {
      const Span &Child = Spans[C];
      if (Child.Replay) {
        Charged += Child.durationNs();
        continue;
      }
      std::int64_t Lo = std::max(Child.StartNs, S.StartNs);
      std::int64_t Hi = std::min(Child.EndNs, S.EndNs);
      if (Lo < Hi)
        Intervals.emplace_back(Lo, Hi);
    }
    // Union of the clipped child intervals: overlapping children (work
    // on two threads, or a child that outlived a sibling) count once.
    std::sort(Intervals.begin(), Intervals.end());
    std::int64_t CurLo = 0, CurHi = 0;
    bool Open = false;
    for (const auto &[Lo, Hi] : Intervals) {
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Charged += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Charged += CurHi - CurLo;
    Self[I] = std::max<std::int64_t>(0, S.durationNs() - Charged);
  }
  return Self;
}

std::string ledger::layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

TraceSummary ledger::summarize(const std::vector<Span> &Spans) {
  TraceSummary Out;
  std::vector<std::int64_t> Self = selfTimesNs(Spans);
  std::map<std::string, std::map<std::uint32_t, double>> PerRequest;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Ms = static_cast<double>(S.durationNs()) / 1e6;
    if (S.Parent == 0) {
      Out.RequestMs += Ms;
      ++Out.Requests;
    }
    NameSummary &N = Out.Names[S.Name];
    ++N.Calls;
    N.TotalMs += Ms;
    N.SelfMs += static_cast<double>(Self[I]) / 1e6;
    PerRequest[S.Name][S.TraceId] += Ms;
  }
  for (auto &[Name, N] : Out.Names) {
    std::vector<double> Values;
    for (const auto &[Trace, Ms] : PerRequest[Name])
      Values.push_back(Ms);
    N.PerRequestP50Ms = percentile(std::move(Values), 50.0);
    LayerSummary &L = Out.Layers[layerOf(Name)];
    L.Calls += N.Calls;
    L.TotalMs += N.TotalMs;
    L.SelfMs += N.SelfMs;
  }
  for (auto &[Layer, L] : Out.Layers)
    L.SharePct = Out.RequestMs > 0.0 ? 100.0 * L.SelfMs / Out.RequestMs : 0.0;
  return Out;
}

void ledger::writeSpansTsv(std::ostream &OS, const std::vector<Span> &Spans) {
  OS << "trace_id\tspan_id\tparent\tname\tstart_ns\tend_ns\treplay\tcount\n";
  for (const Span &S : Spans)
    OS << S.TraceId << '\t' << S.Id << '\t' << S.Parent << '\t' << S.Name
       << '\t' << S.StartNs << '\t' << S.EndNs << '\t' << (S.Replay ? 1 : 0)
       << '\t' << S.Count << '\n';
}

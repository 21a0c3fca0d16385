//===- qos/CostModel.h - Request difficulty predictor -----------*- C++ -*-===//
///
/// \file
/// Predicts how expensive a build request will be *before* a worker
/// commits to it, from statistics the paper's own pipeline makes cheap:
/// a dry-run compact-set decomposition (`findCompactSets` +
/// `CompactHierarchy`, O(n^2), no solver) yields the block-size
/// profile that dominates branch-and-bound cost, and the metric's
/// spread (max/min off-diagonal distance) separates well-clustered
/// matrices — where condensation splits the problem and B&B prunes well
/// — from near-equidistant ones where it cannot.
///
/// The prediction is expressed in *search nodes* and converted to wall
/// time through a cost-per-node coefficient calibrated online: every
/// completed solve feeds its observed `(branched nodes, solve millis)`
/// pair back through `observe`, and an EWMA tracks the machine's actual
/// per-node cost. Predictions are deliberately **monotone**: adding taxa
/// or widening the largest block never lowers the predicted cost (a
/// shed decision must not flip to "admit" when the input grows).
///
/// Dry-run profiles are memoized by relabeling-invariant fingerprint
/// (`matrix/Fingerprint.h`), so admission never decomposes the same
/// matrix twice — a request that proceeds to the pipeline tier reuses
/// the admission-time profile for free on resubmission.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_QOS_COSTMODEL_H
#define MUTK_QOS_COSTMODEL_H

#include "matrix/DistanceMatrix.h"
#include "obs/Instruments.h"
#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mutk::qos {

/// Cheap difficulty features of one request matrix.
struct DifficultyProfile {
  /// Taxon count.
  int Species = 0;
  /// Largest condensed block any hierarchy node induces (== Species when
  /// the matrix has no compact sets at all).
  int MaxBlock = 0;
  /// Condensed block size of every internal hierarchy node, top-down.
  std::vector<int> BlockSizes;
  /// Max/min positive off-diagonal distance (>= 1). Near 1 means
  /// near-equidistant: no compact sets and poor B&B pruning.
  double Spread = 1.0;
};

/// Tuning knobs; the defaults are deliberately conservative (predict too
/// expensive rather than too cheap — a wrong shed degrades one request,
/// a wrong admit starves many).
struct CostModelOptions {
  /// Dry-run profiles memoized by canonical fingerprint.
  std::size_t MemoCapacity = 256;
  /// Initial cost-per-node guess, overwritten by calibration. Matches
  /// `ServiceOptions::NodesPerMilli`'s view of ~20k nodes/ms.
  double InitialMillisPerNode = 5e-5;
  /// EWMA gain of the online calibration (0 disables learning).
  double CalibrationGain = 0.2;
  /// Exponential growth per species of an exact block solve: a block of
  /// size b costs ~`GrowthBase^(b-3)` nodes before hardness scaling.
  double GrowthBase = 2.4;
  /// Hardness multiplier scale: multiplies exact-block cost by
  /// `1 + HardnessGain / max(Spread - 1, 0.05)`, so near-equidistant
  /// matrices (spread -> 1, no pruning) predict much harder than
  /// well-separated ones.
  double HardnessGain = 4.0;
  /// Per-species node-equivalent of the decomposition + condensation
  /// overhead (the O(n^2) part, charged as Overhead * n^2).
  double OverheadPerPair = 0.05;
  /// Node-equivalents per species^3 of an agglomerative (UPGMM) solve,
  /// used both for oversized blocks inside the pipeline and for the
  /// heuristic tier estimate.
  double HeuristicPerCube = 0.5;
};

/// Thread-safe difficulty predictor with online latency calibration.
class CostModel {
public:
  explicit CostModel(const CostModelOptions &Options = {});

  /// Computes the dry-run profile of \p M (no memoization, no solver):
  /// compact-set detection, hierarchy construction and per-node
  /// partition sizes. O(n^2).
  static DifficultyProfile computeProfile(const DistanceMatrix &M);

  /// Memoized `computeProfile`: keyed by the relabeling-invariant
  /// canonical fingerprint, so resubmissions (and relabelings) of a
  /// matrix never pay the dry run twice. \p Key, when given, must be
  /// `fingerprint(M)`: a caller that already canonicalized \p M (the
  /// service's warm-cache probe) passes it instead of paying for a
  /// second canonical form.
  DifficultyProfile profileFor(const DistanceMatrix &M,
                               std::optional<std::uint64_t> Key = {});

  /// A profile for a server-side generated workload, where only the
  /// species count is known at admission time: one undecomposed block of
  /// `Species` taxa with a benign spread.
  static DifficultyProfile generatorProfile(int Species);

  /// Predicted search nodes of a full pipeline solve of \p Profile with
  /// per-block exact cap \p MaxExactBlockSize. Monotone in `Species` and
  /// in any block size (growing a block past the cap switches it to the
  /// heuristic estimate, floored at the cap's exact cost so the switch
  /// never *lowers* the prediction).
  double predictNodes(const DifficultyProfile &Profile,
                      int MaxExactBlockSize) const;

  /// `predictNodes` scaled by the calibrated cost-per-node coefficient.
  double predictMillis(const DifficultyProfile &Profile,
                       int MaxExactBlockSize) const;

  /// Predicted wall time of the heuristic tier (one agglomerative pass,
  /// no B&B) for \p Species taxa.
  double heuristicMillis(int Species) const;

  /// Feeds one observed solve back into the calibration: \p Branched
  /// search nodes took \p SolveMillis. Ignored when either is
  /// nonpositive.
  void observe(std::uint64_t Branched, double SolveMillis);

  /// Current calibrated coefficient (milliseconds per search node).
  double millisPerNode() const;

  /// \name Memo accounting (tested; also exported as metrics).
  /// @{
  std::uint64_t dryRuns() const { return DryRuns.value(); }
  std::uint64_t memoHits() const { return MemoHits.value(); }
  /// @}

  const CostModelOptions &options() const { return Options; }

private:
  CostModelOptions Options;

  /// Calibrated ms/node; stored as nanos-per-node in a u64 so the
  /// hot-path read stays a relaxed atomic load (atomic<double> is not
  /// lock-free everywhere).
  std::atomic<std::uint64_t> NanosPerNodeQ16{0};
  obs::InstanceCounter DryRuns{obs::qosInstruments().ProfileDryRuns};
  obs::InstanceCounter MemoHits{obs::qosInstruments().ProfileMemoHits};

  struct MemoEntry {
    DifficultyProfile Profile;
    std::list<std::uint64_t>::iterator Recency;
  };
  mutable Mutex MemoMu{"qos.costmodel"};
  std::unordered_map<std::uint64_t, MemoEntry> Memo MUTK_GUARDED_BY(MemoMu);
  /// LRU order, most recent at the front.
  std::list<std::uint64_t> Recency MUTK_GUARDED_BY(MemoMu);
};

} // namespace mutk::qos

#endif // MUTK_QOS_COSTMODEL_H

#ifndef ONEX_CORE_GROUPING_UTIL_H_
#define ONEX_CORE_GROUPING_UTIL_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "onex/core/group_store.h"
#include "onex/core/onex_base.h"

namespace onex::internal {

/// What the leader-clustering scan's bound reads of one series: the means
/// of its two halves ([0, n/2) and [n/2, n)), and its mean absolute value,
/// which scales the rounding margin.
struct SeriesMean {
  double head = 0.0;
  double tail = 0.0;
  double scale = 0.0;
};

SeriesMean MeanOf(std::span<const double> values);

/// The centroid means of `groups`, index-aligned with them: the dense
/// per-class array NearestGroup scans beside the builders.
std::vector<SeriesMean> CentroidMeans(const std::vector<GroupBuilder>& groups);

/// Index of the nearest group centroid under length-normalized ED, early
/// abandoned at `radius` (only hits within the radius matter). Returns
/// (index, distance); index == groups.size() when nothing is within radius.
/// Ties go to the later index. `means[g]` must be MeanOf(groups[g]'s
/// centroid). A candidate is skipped without a distance evaluation when the
/// half-means bound on its distance to the query, less a rounding margin,
/// exceeds the best distance so far; every other candidate goes through the
/// kernel in index order, so the answer is bit-for-bit the one of an
/// unpruned scan (DESIGN.md §5). Counts each candidate into `scan`. The one
/// clustering scan of the offline build, its repair rounds and the
/// incremental appender.
std::pair<std::size_t, double> NearestGroup(
    const std::vector<GroupBuilder>& groups, std::span<const SeriesMean> means,
    std::span<const double> values, double radius, ScanCounters* scan);

/// The leader rule for one subsequence: joins the nearest group within
/// `radius` (moving its centroid to the running mean when
/// `update_centroid`) or founds a new group. Keeps `means` index-aligned
/// with `groups`.
void InsertLeader(std::vector<GroupBuilder>* groups,
                  std::vector<SeriesMean>* means, const SubseqRef& ref,
                  std::span<const double> values, double radius,
                  bool update_centroid, ScanCounters* scan);

/// Leader-clusters every admissible length-`len` subsequence of `ds`
/// (policy-aware, including the kRunningMeanRepair repair rounds) and
/// returns the finished builders. The one clustering pipeline behind the
/// offline build (OnexBase::Build) and the drift-triggered regroup of a
/// single length class (incremental.h), so both produce identical groupings
/// for identical inputs. `repaired` accumulates members the repair pass
/// moved, `scan` the clustering work. Thread-safe: touches only its own
/// outputs.
std::vector<GroupBuilder> BuildGroupsForLength(const Dataset& ds,
                                               std::size_t len,
                                               const BaseBuildOptions& options,
                                               std::size_t* repaired,
                                               ScanCounters* scan);

}  // namespace onex::internal

#endif  // ONEX_CORE_GROUPING_UTIL_H_

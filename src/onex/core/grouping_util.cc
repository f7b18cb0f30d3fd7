#include "onex/core/grouping_util.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "onex/distance/euclidean.h"

namespace onex::internal {

SeriesMean MeanOf(std::span<const double> values) {
  const std::size_t half = values.size() / 2;
  double head = 0.0;
  double tail = 0.0;
  double abs_sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < half ? head : tail) += values[i];
    abs_sum += std::abs(values[i]);
  }
  return {head / static_cast<double>(half),
          tail / static_cast<double>(values.size() - half),
          abs_sum / static_cast<double>(values.size())};
}

std::vector<SeriesMean> CentroidMeans(const std::vector<GroupBuilder>& groups) {
  std::vector<SeriesMean> means;
  means.reserve(groups.size());
  for (const GroupBuilder& g : groups) means.push_back(MeanOf(g.centroid()));
  return means;
}

std::pair<std::size_t, double> NearestGroup(
    const std::vector<GroupBuilder>& groups, std::span<const SeriesMean> means,
    std::span<const double> values, double radius, ScanCounters* scan) {
  const SeriesMean q = MeanOf(values);
  const double n = static_cast<double>(values.size());
  // RMS(a-b) is at least the RMS of its half-means (Cauchy-Schwarz per
  // half): sqrt(w_head·(Δhead)² + w_tail·(Δtail)²), with w the halves'
  // shares of the points. A candidate whose bound exceeds the best distance
  // so far by more than the rounding margin cannot win, however the
  // rounding fell. The computed half-means are off by at most ~n·u times
  // the mean absolute values, and the kernel's distance by ~n·u of itself
  // (u = eps/2); 8·n·eps covers both with room to spare, and the 1e-9 floor
  // keeps a wide margin on short lengths (DESIGN.md §5).
  const std::size_t half = values.size() / 2;
  const double w_head = static_cast<double>(half) / n;
  const double w_tail = 1.0 - w_head;
  const double tol = 1e-9 + 8.0 * n * std::numeric_limits<double>::epsilon();
  const double q_slack = tol * (1.0 + q.scale);
  std::size_t best_idx = groups.size();
  double best = radius;
  std::size_t skips = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double d_head = q.head - means[g].head;
    const double d_tail = q.tail - means[g].tail;
    const double bound_sq = w_head * d_head * d_head + w_tail * d_tail * d_tail;
    const double limit = best + q_slack + tol * means[g].scale;
    if (bound_sq > limit * limit) {
      ++skips;
      continue;
    }
    // Early-abandon on the squared, unnormalized scale of the current best.
    const double cutoff_sq = best * best * n;
    const double sq = SquaredEuclideanEarlyAbandon(groups[g].centroid_span(),
                                                   values, cutoff_sq);
    if (std::isinf(sq)) continue;
    const double dist = std::sqrt(sq / n);
    if (dist <= best) {
      best = dist;
      best_idx = g;
    }
  }
  scan->bound_skips += skips;
  scan->centroid_evals += groups.size() - skips;
  return {best_idx, best};
}

void InsertLeader(std::vector<GroupBuilder>* groups,
                  std::vector<SeriesMean>* means, const SubseqRef& ref,
                  std::span<const double> values, double radius,
                  bool update_centroid, ScanCounters* scan) {
  const std::size_t idx =
      NearestGroup(*groups, *means, values, radius, scan).first;
  if (idx == groups->size()) {
    GroupBuilder g(ref.length);
    g.Add(ref, values, update_centroid);
    means->push_back(MeanOf(g.centroid()));
    groups->push_back(std::move(g));
    return;
  }
  GroupBuilder& g = (*groups)[idx];
  g.Add(ref, values, update_centroid);
  if (update_centroid) (*means)[idx] = MeanOf(g.centroid());
}

std::vector<GroupBuilder> BuildGroupsForLength(const Dataset& ds,
                                               std::size_t len,
                                               const BaseBuildOptions& options,
                                               std::size_t* repaired,
                                               ScanCounters* scan) {
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;
  std::vector<GroupBuilder> groups;
  std::vector<SeriesMean> means;
  std::size_t members = 0;
  for (std::size_t s = 0; s < ds.size(); ++s) {
    const TimeSeries& ts = ds[s];
    if (ts.length() < len) continue;
    for (std::size_t start = 0; start + len <= ts.length();
         start += options.stride) {
      InsertLeader(&groups, &means, {s, start, len}, ts.Slice(start, len),
                   radius, update_centroid, scan);
      ++members;
    }
  }
  if (members == 0) return groups;

  if (options.centroid_policy == CentroidPolicy::kRunningMeanRepair) {
    // Running-mean centroids drift, so some members may no longer sit
    // within ST/2 of their group's final centroid. Repair in bounded
    // rounds: evict violators, recompute centroids, re-insert. Because a
    // recomputed centroid can create new violators, the last pass evicts
    // into singleton groups with no recomputation, which terminates with
    // the invariant guaranteed.
    constexpr int kRepairRounds = 4;
    for (int round = 0; round < kRepairRounds; ++round) {
      const bool final_round = round == kRepairRounds - 1;
      std::vector<SubseqRef> evicted;
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        GroupBuilder& g = groups[gi];
        std::vector<SubseqRef> keep;
        keep.reserve(g.size());
        for (const SubseqRef& ref : g.members()) {
          const double d =
              NormalizedEuclidean(g.centroid_span(), ref.Resolve(ds));
          if (d <= radius) {
            keep.push_back(ref);
          } else {
            evicted.push_back(ref);
          }
        }
        if (keep.size() != g.size()) {
          g.SetMembers(std::move(keep));
          if (!final_round) {
            g.RecomputeFromMembers(ds);
            means[gi] = MeanOf(g.centroid());
          }
        }
      }
      if (evicted.empty()) break;
      *repaired += evicted.size();
      for (const SubseqRef& ref : evicted) {
        const std::span<const double> vals = ref.Resolve(ds);
        if (final_round) {
          GroupBuilder g(len);
          g.Add(ref, vals, /*update_centroid=*/false);
          means.push_back(MeanOf(g.centroid()));
          groups.push_back(std::move(g));
        } else {
          // Fixed centroid on re-insert keeps the pass from cascading.
          InsertLeader(&groups, &means, ref, vals, radius,
                       /*update_centroid=*/false, scan);
        }
      }
    }
    // Drop any group the repair emptied.
    std::erase_if(groups, [](const GroupBuilder& g) { return g.empty(); });
  }
  return groups;
}

}  // namespace onex::internal

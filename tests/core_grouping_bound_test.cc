/// Differential suite for the pruned leader-clustering scan (DESIGN.md §5).
/// internal::NearestGroup skips a candidate centroid when the half-means
/// bound on its distance to the query, less a rounding margin, exceeds the
/// best distance so far. The
/// oracle here is the unpruned scan it replaced: every centroid through the
/// early-abandoning kernel in index order under the same `dist <= best`
/// rule. The build, extend, regroup and repair pipelines are mirrored on top
/// of that oracle, and the ONEXARENA bytes (EncodeCheckpoint) of both sides
/// must be identical after every step.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "onex/common/random.h"
#include "onex/core/group_store.h"
#include "onex/core/grouping_util.h"
#include "onex/core/incremental.h"
#include "onex/core/onex_base.h"
#include "onex/distance/euclidean.h"
#include "onex/engine/dataset_registry.h"
#include "onex/engine/wal.h"
#include "onex/gen/generators.h"
#include "onex/ts/normalization.h"

namespace onex {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the unpruned scan and the pipelines built on it.
// ---------------------------------------------------------------------------

/// Every centroid through the kernel, in index order, later index on ties.
/// Adds the number of candidates it visits to `candidates`.
std::pair<std::size_t, double> BruteNearest(
    const std::vector<GroupBuilder>& groups, std::span<const double> values,
    double radius, std::size_t* candidates) {
  *candidates += groups.size();
  std::size_t best_idx = groups.size();
  double best = radius;
  const double n = static_cast<double>(values.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
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
  return {best_idx, best};
}

void BruteInsert(std::vector<GroupBuilder>* groups, const SubseqRef& ref,
                 std::span<const double> vals, double radius,
                 bool update_centroid, std::size_t* candidates) {
  const std::size_t idx =
      BruteNearest(*groups, vals, radius, candidates).first;
  if (idx == groups->size()) {
    GroupBuilder g(ref.length);
    g.Add(ref, vals, update_centroid);
    groups->push_back(std::move(g));
  } else {
    (*groups)[idx].Add(ref, vals, update_centroid);
  }
}

/// internal::BuildGroupsForLength over the oracle scan.
std::vector<GroupBuilder> BruteGroupsForLength(const Dataset& ds,
                                               std::size_t len,
                                               const BaseBuildOptions& options,
                                               std::size_t* repaired,
                                               std::size_t* candidates) {
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;
  std::vector<GroupBuilder> groups;
  std::size_t members = 0;
  for (std::size_t s = 0; s < ds.size(); ++s) {
    if (ds[s].length() < len) continue;
    for (std::size_t start = 0; start + len <= ds[s].length();
         start += options.stride) {
      BruteInsert(&groups, {s, start, len}, ds[s].Slice(start, len), radius,
                  update_centroid, candidates);
      ++members;
    }
  }
  if (members == 0) return groups;
  if (options.centroid_policy == CentroidPolicy::kRunningMeanRepair) {
    constexpr int kRepairRounds = 4;
    for (int round = 0; round < kRepairRounds; ++round) {
      const bool final_round = round == kRepairRounds - 1;
      std::vector<SubseqRef> evicted;
      for (GroupBuilder& g : groups) {
        std::vector<SubseqRef> keep;
        for (const SubseqRef& ref : g.members()) {
          if (NormalizedEuclidean(g.centroid_span(), ref.Resolve(ds)) <=
              radius) {
            keep.push_back(ref);
          } else {
            evicted.push_back(ref);
          }
        }
        if (keep.size() != g.size()) {
          g.SetMembers(std::move(keep));
          if (!final_round) g.RecomputeFromMembers(ds);
        }
      }
      if (evicted.empty()) break;
      *repaired += evicted.size();
      for (const SubseqRef& ref : evicted) {
        const std::span<const double> vals = ref.Resolve(ds);
        if (final_round) {
          GroupBuilder g(len);
          g.Add(ref, vals, false);
          groups.push_back(std::move(g));
        } else {
          BruteInsert(&groups, ref, vals, radius, false, candidates);
        }
      }
    }
    std::erase_if(groups, [](const GroupBuilder& g) { return g.empty(); });
  }
  return groups;
}

/// OnexBase::Build over the oracle scan, assembled from packed stores the
/// way Build packs its own.
OnexBase BruteBuild(std::shared_ptr<const Dataset> ds,
                    const BaseBuildOptions& options,
                    std::size_t* candidates) {
  const std::size_t max_len =
      options.max_length == 0 ? ds->MaxLength() : options.max_length;
  std::vector<std::shared_ptr<const GroupStore>> stores;
  std::size_t repaired = 0;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    const std::vector<GroupBuilder> groups =
        BruteGroupsForLength(*ds, len, options, &repaired, candidates);
    if (groups.empty()) continue;
    stores.push_back(
        std::make_shared<const GroupStore>(GroupStore::Pack(len, groups)));
  }
  return OnexBase::FromStores(std::move(ds), options, std::move(stores),
                              repaired, nullptr)
      .value();
}

LengthClassDraft Thaw(const LengthClass& cls) {
  LengthClassDraft draft;
  draft.length = cls.length;
  for (const SimilarityGroup& g : cls.groups) {
    GroupBuilder b(cls.length);
    b.SetMembers({g.members().begin(), g.members().end()});
    b.SetCentroid(g.centroid());
    draft.groups.push_back(std::move(b));
  }
  return draft;
}

/// ExtendSeries over the oracle scan (the base only; drift is not scanned).
OnexBase BruteExtend(const OnexBase& base,
                     std::span<const SeriesExtension> extensions) {
  const Dataset& old_ds = base.dataset();
  const BaseBuildOptions& options = base.options();
  const std::vector<std::vector<double>> pending =
      MergeExtensions(old_ds.size(), extensions).value();
  auto dataset = std::make_shared<const Dataset>(ExtendTails(old_ds, pending));
  const Dataset& ds = *dataset;
  std::vector<LengthClassDraft> classes;
  for (const LengthClass& cls : base.length_classes()) {
    classes.push_back(Thaw(cls));
  }
  const std::size_t max_len = options.max_length == 0
                                  ? std::max(old_ds.MaxLength(), ds.MaxLength())
                                  : options.max_length;
  const double radius = options.st / 2.0;
  const bool update_centroid =
      options.centroid_policy != CentroidPolicy::kFixedLeader;
  std::size_t candidates = 0;
  for (std::size_t len = options.min_length; len <= max_len;
       len += options.length_step) {
    for (std::size_t s = 0; s < pending.size(); ++s) {
      if (pending[s].empty() || ds[s].length() < len) continue;
      std::size_t first = 0;
      if (old_ds[s].length() >= len) {
        const std::size_t lo = old_ds[s].length() - len + 1;
        first = (lo + options.stride - 1) / options.stride * options.stride;
      }
      for (std::size_t start = first; start + len <= ds[s].length();
           start += options.stride) {
        auto it = std::lower_bound(
            classes.begin(), classes.end(), len,
            [](const LengthClassDraft& c, std::size_t v) {
              return c.length < v;
            });
        if (it == classes.end() || it->length != len) {
          LengthClassDraft fresh;
          fresh.length = len;
          it = classes.insert(it, std::move(fresh));
        }
        const SubseqRef ref{s, start, len};
        BruteInsert(&it->groups, ref, ref.Resolve(ds), radius,
                    update_centroid, &candidates);
      }
    }
  }
  return OnexBase::Restore(std::move(dataset), options, std::move(classes),
                           base.stats().repaired_members)
      .value();
}

/// RegroupLengthClasses over the oracle scan.
OnexBase BruteRegroup(const OnexBase& base,
                      const std::set<std::size_t>& lengths) {
  std::size_t repaired = base.stats().repaired_members;
  std::size_t candidates = 0;
  std::vector<LengthClassDraft> classes;
  for (const LengthClass& cls : base.length_classes()) {
    if (lengths.contains(cls.length)) {
      LengthClassDraft draft;
      draft.length = cls.length;
      draft.groups = BruteGroupsForLength(base.dataset(), cls.length,
                                          base.options(), &repaired,
                                          &candidates);
      classes.push_back(std::move(draft));
    } else {
      classes.push_back(Thaw(cls));
    }
  }
  return OnexBase::Restore(base.shared_dataset(), base.options(),
                           std::move(classes), repaired)
      .value();
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::string ArenaBytes(const OnexBase& base) {
  PreparedDataset ds;
  ds.name = "bound";
  ds.raw = base.shared_dataset();
  ds.normalized = base.shared_dataset();
  ds.base = std::make_shared<const OnexBase>(base);
  ds.build_options = base.options();
  return EncodeCheckpoint(ds).value();
}

std::shared_ptr<const Dataset> MakeData(int kind, std::size_t num,
                                        std::size_t len, std::uint64_t seed) {
  Dataset raw;
  if (kind == 0) {
    gen::SineFamilyOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    raw = gen::MakeSineFamilies(opt);
  } else if (kind == 1) {
    gen::RandomWalkOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    raw = gen::MakeRandomWalks(opt);
  } else {
    gen::WarpedShapeOptions opt;
    opt.num_series = num;
    opt.length = len;
    opt.seed = seed;
    raw = gen::MakeWarpedShapes(opt);
  }
  return std::make_shared<const Dataset>(
      Normalize(raw, NormalizationKind::kMinMaxDataset).value());
}

/// One tick of feed points for a few series: a walk continuing from each
/// tail, shifted by `offset` (0 stays on the frozen [0,1] scale).
std::vector<SeriesExtension> Tick(const Dataset& ds, Rng* rng,
                                  double offset) {
  std::vector<SeriesExtension> exts;
  for (std::size_t s = 0; s < ds.size(); s += 2) {
    SeriesExtension ext;
    ext.series = s;
    double v = ds[s].values().back() + offset;
    const std::size_t points = 1 + rng->UniformIndex(6);
    for (std::size_t p = 0; p < points; ++p) {
      v += rng->Gaussian(0.0, 0.05 * (1.0 + std::abs(offset) * 1e-6));
      ext.points.push_back(v);
    }
    exts.push_back(std::move(ext));
  }
  return exts;
}

struct Scope {
  std::size_t num, len, min_length, max_length, length_step, stride;
};

BaseBuildOptions Options(const Scope& scope, double st,
                         CentroidPolicy policy) {
  BaseBuildOptions opt;
  opt.st = st;
  opt.min_length = scope.min_length;
  opt.max_length = scope.max_length;
  opt.length_step = scope.length_step;
  opt.stride = scope.stride;
  opt.centroid_policy = policy;
  return opt;
}

/// Build, several extend ticks and a regroup of two length classes on both
/// sides; the arenas must match byte for byte after every step.
void ExpectPipelinesMatch(std::shared_ptr<const Dataset> ds,
                          const BaseBuildOptions& opt, std::uint64_t seed,
                          double tail_offset, const std::string& label) {
  SCOPED_TRACE(label);
  std::size_t candidates = 0;
  OnexBase real = OnexBase::Build(ds, opt).value();
  OnexBase oracle = BruteBuild(ds, opt, &candidates);
  ASSERT_EQ(ArenaBytes(real), ArenaBytes(oracle)) << "after Build";
  EXPECT_EQ(real.stats().scan.centroid_evals + real.stats().scan.bound_skips,
            candidates);

  Rng rng(seed);
  for (int tick = 0; tick < 4; ++tick) {
    const std::vector<SeriesExtension> exts =
        Tick(real.dataset(), &rng, tick == 0 ? tail_offset : 0.0);
    real = ExtendSeries(real, exts).value().base;
    oracle = BruteExtend(oracle, exts);
    ASSERT_EQ(ArenaBytes(real), ArenaBytes(oracle)) << "after tick " << tick;
  }

  const std::vector<LengthClass>& classes = real.length_classes();
  const std::vector<std::size_t> lengths = {classes.front().length,
                                            classes.back().length};
  real = RegroupLengthClasses(real, lengths).value();
  oracle = BruteRegroup(oracle, {lengths.begin(), lengths.end()});
  ASSERT_EQ(ArenaBytes(real), ArenaBytes(oracle)) << "after regroup";
}

constexpr CentroidPolicy kPolicies[] = {CentroidPolicy::kFixedLeader,
                                        CentroidPolicy::kRunningMean,
                                        CentroidPolicy::kRunningMeanRepair};

std::vector<GroupBuilder> Groups(
    const std::vector<std::vector<double>>& centroids) {
  std::vector<GroupBuilder> groups;
  for (const std::vector<double>& c : centroids) {
    GroupBuilder g(c.size());
    g.Add({0, 0, c.size()}, c, false);
    groups.push_back(std::move(g));
  }
  return groups;
}

/// The pruned scan and the oracle on one query: same index, same distance
/// bits, and every candidate counted once.
void ExpectScanMatches(const std::vector<GroupBuilder>& groups,
                       std::span<const double> q, double radius) {
  std::size_t candidates = 0;
  const auto [want_idx, want_dist] =
      BruteNearest(groups, q, radius, &candidates);
  ScanCounters scan;
  const std::vector<internal::SeriesMean> means =
      internal::CentroidMeans(groups);
  const auto [idx, dist] =
      internal::NearestGroup(groups, means, q, radius, &scan);
  EXPECT_EQ(idx, want_idx);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dist),
            std::bit_cast<std::uint64_t>(want_dist));
  EXPECT_EQ(scan.centroid_evals + scan.bound_skips, candidates);
}

// ---------------------------------------------------------------------------
// Pipelines: build, extend, regroup and repair against the oracle.
// ---------------------------------------------------------------------------

TEST(GroupingBoundTest, PipelinesMatchTheUnprunedScanByteForByte) {
  const Scope scopes[] = {{8, 40, 4, 12, 1, 1}, {6, 64, 6, 18, 3, 2}};
  int runs = 0;
  for (const CentroidPolicy policy : kPolicies) {
    for (int kind = 0; kind < 3; ++kind) {
      for (const Scope& scope : scopes) {
        for (const std::uint64_t seed : {3u, 11u}) {
          for (const double st : {0.1, 0.2}) {
            const auto ds = MakeData(kind, scope.num, scope.len, seed);
            ExpectPipelinesMatch(
                ds, Options(scope, st, policy), seed * 31 + kind, 0.0,
                std::string(CentroidPolicyToString(policy)) + " kind " +
                    std::to_string(kind) + " len " +
                    std::to_string(scope.len) + " seed " +
                    std::to_string(seed) + " st " + std::to_string(st));
            if (::testing::Test::HasFatalFailure()) return;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 3 * 3 * 2 * 2 * 2);
}

TEST(GroupingBoundTest, TailsFarOutsideTheFrozenScaleMatchTheOracle) {
  // Tails around 1e6 put the half-means' rounding error far above anything
  // the [0,1] scale produces; the margin grows with the mean absolute values.
  const Scope scope{6, 40, 4, 12, 1, 1};
  for (const CentroidPolicy policy : kPolicies) {
    for (const double offset : {1e6, -1e6, 3.5e6}) {
      ExpectPipelinesMatch(MakeData(1, scope.num, scope.len, 5),
                           Options(scope, 0.2, policy), 77, offset,
                           std::string(CentroidPolicyToString(policy)) +
                               " offset " + std::to_string(offset));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(GroupingBoundTest, RepairRoundsMatchTheOracleOnDriftyData) {
  // A wide threshold on walks lets running means wander, so the repair
  // rounds evict and re-insert through the scan.
  const Scope scope{10, 48, 6, 10, 1, 1};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto ds = MakeData(1, scope.num, scope.len, seed);
    const BaseBuildOptions opt =
        Options(scope, 0.5, CentroidPolicy::kRunningMeanRepair);
    std::size_t candidates = 0;
    const OnexBase real = OnexBase::Build(ds, opt).value();
    const OnexBase oracle = BruteBuild(ds, opt, &candidates);
    EXPECT_GT(real.stats().repaired_members, 0u) << "seed " << seed;
    EXPECT_EQ(real.stats().repaired_members, oracle.stats().repaired_members);
    EXPECT_EQ(ArenaBytes(real), ArenaBytes(oracle)) << "seed " << seed;
  }
}

TEST(GroupingBoundTest, RepairReinsertSeesTheRecomputedCentroid) {
  // Constant series, one subsequence each, ST/2 = 0.5. Group A's running
  // mean ends at 0.31 and evicts -0.2; its recomputed centroid is 0.4375.
  // Group B (1.4 ...) evicts 0.92, which is 0.61 from A's running mean but
  // 0.4825 from its recomputed centroid: the re-insert must join A, which
  // only happens if the bound reads the recomputed mean.
  Dataset levels("levels");
  for (const double level :
       {0.0, 0.5, -0.2, 0.55, 0.7, 1.4, 0.92, 1.6, 1.7, 1.8}) {
    levels.Add(TimeSeries("l" + std::to_string(levels.size()),
                          std::vector<double>(2, level)));
  }
  const auto ds = std::make_shared<const Dataset>(std::move(levels));
  BaseBuildOptions opt;
  opt.st = 1.0;
  opt.min_length = 2;
  opt.max_length = 2;
  opt.centroid_policy = CentroidPolicy::kRunningMeanRepair;
  std::size_t candidates = 0;
  const OnexBase real = OnexBase::Build(ds, opt).value();
  EXPECT_EQ(ArenaBytes(real), ArenaBytes(BruteBuild(ds, opt, &candidates)));
  EXPECT_EQ(real.stats().repaired_members, 2u);
  EXPECT_EQ(real.TotalGroups(), 3u);
}

TEST(GroupingBoundTest, CountersAccountForEveryCandidateScanned) {
  const auto ds = MakeData(1, 12, 64, 9);
  BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = 8;
  opt.max_length = 24;
  for (const CentroidPolicy policy : kPolicies) {
    opt.centroid_policy = policy;
    std::size_t candidates = 0;
    BruteBuild(ds, opt, &candidates);
    for (const std::size_t threads : {1u, 3u}) {
      opt.threads = threads;
      const ScanCounters scan = OnexBase::Build(ds, opt).value().stats().scan;
      EXPECT_EQ(scan.centroid_evals + scan.bound_skips, candidates);
      // Walks spread their half-means: the bound must actually prune.
      EXPECT_GT(scan.bound_skips, scan.centroid_evals);
    }
    opt.threads = 1;
  }
}

// ---------------------------------------------------------------------------
// Adversarial scans.
// ---------------------------------------------------------------------------

TEST(GroupingBoundTest, MemberAtExactlyHalfStIsATie) {
  // A constant offset makes the distance equal the half-means bound: the
  // bound is tight, and the offset 0.25 over four points computes exactly,
  // so the distance equals the radius and `dist <= best` must accept it.
  const std::vector<double> c = {0.5, 0.75, 0.25, 1.0};
  const std::vector<double> q = {0.75, 1.0, 0.5, 1.25};
  const std::vector<GroupBuilder> groups = Groups({c});
  ExpectScanMatches(groups, q, 0.25);
  ScanCounters scan;
  const auto means = internal::CentroidMeans(groups);
  const auto [idx, dist] = internal::NearestGroup(groups, means, q, 0.25, &scan);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(dist, 0.25);
  // A hair smaller radius rejects it, and the bound proves that alone.
  ExpectScanMatches(groups, q, std::nextafter(0.25, 0.0));
}

TEST(GroupingBoundTest, EqualDistancesGoToTheLaterIndex) {
  const std::vector<double> q = {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  std::vector<double> up = q, down = q, far = q;
  for (double& v : up) v += 0.125;
  for (double& v : down) v -= 0.125;
  for (double& v : far) v += 0.375;
  for (const double radius : {0.125, 0.2, 1.0}) {
    const std::vector<GroupBuilder> groups = Groups({far, up, down, far});
    ExpectScanMatches(groups, q, radius);
    ScanCounters scan;
    const auto means = internal::CentroidMeans(groups);
    EXPECT_EQ(internal::NearestGroup(groups, means, q, radius, &scan).first,
              2u);
  }
}

TEST(GroupingBoundTest, ConstantSeriesMatchTheOracle) {
  std::vector<std::vector<double>> centroids;
  for (const double level : {0.0, 0.1, 0.2, 0.3, 0.1, 1e6, -1e6, 0.0}) {
    centroids.push_back(std::vector<double>(16, level));
  }
  const std::vector<GroupBuilder> groups = Groups(centroids);
  for (const double level : {0.0, 0.05, 0.1, 0.15, 0.3, 1e6, -1e6}) {
    const std::vector<double> q(16, level);
    for (const double radius : {0.0, 0.05, 0.1, 1.0}) {
      ExpectScanMatches(groups, q, radius);
    }
  }
  // A constant dataset builds one group per length on both sides.
  Dataset flat("flat");
  for (int s = 0; s < 4; ++s) {
    flat.Add(TimeSeries("s" + std::to_string(s), std::vector<double>(20, 0.5)));
  }
  const auto ds = std::make_shared<const Dataset>(std::move(flat));
  BaseBuildOptions opt;
  opt.min_length = 4;
  opt.max_length = 8;
  std::size_t candidates = 0;
  const OnexBase real = OnexBase::Build(ds, opt).value();
  EXPECT_EQ(ArenaBytes(real), ArenaBytes(BruteBuild(ds, opt, &candidates)));
  EXPECT_EQ(real.TotalGroups(), 5u);
}

TEST(GroupingBoundTest, HalfwiseConstantOffsetsAtTheRadiusAreNeverSkipped) {
  // The bound is tight where the query is the centroid plus one constant
  // offset per half. Set the radius to the kernel's own distance for the
  // pair, so the oracle accepts on `<=`: rounding of the half-means must
  // never tip the pruned scan into a skip, at any scale of values.
  Rng rng(2024);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const double scale = std::pow(10.0, rng.UniformInt(-3, 7));
    const std::size_t n = 2 + rng.UniformIndex(64);
    std::vector<double> c(n);
    for (double& v : c) v = rng.Uniform(-scale, scale);
    const double head = rng.Uniform(-1.0, 1.0) * scale * 1e-3;
    const double tail = trial % 2 == 0 ? head : rng.Uniform(-1.0, 1.0) * scale * 1e-3;
    std::vector<double> q(n);
    for (std::size_t i = 0; i < n; ++i) q[i] = c[i] + (i < n / 2 ? head : tail);
    std::vector<double> decoy(n);
    for (double& v : decoy) v = rng.Uniform(-scale, scale);
    const std::vector<GroupBuilder> groups = Groups({decoy, c, decoy});
    const double radius =
        std::sqrt(SquaredEuclidean(c, q) / static_cast<double>(n));
    std::size_t candidates = 0;
    if (BruteNearest(groups, q, radius, &candidates).first == 1) ++accepted;
    ExpectScanMatches(groups, q, radius);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, 2000);
}

TEST(GroupingBoundTest, RandomScansMatchTheOracle) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.UniformIndex(40);
    std::vector<std::vector<double>> centroids(1 + rng.UniformIndex(60));
    for (auto& c : centroids) {
      const double level = rng.Uniform(0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        c.push_back(level + rng.Gaussian(0.0, 0.05));
      }
    }
    const std::vector<GroupBuilder> groups = Groups(centroids);
    for (int k = 0; k < 10; ++k) {
      std::vector<double> q = centroids[rng.UniformIndex(centroids.size())];
      for (double& v : q) v += rng.Gaussian(0.0, 0.05);
      ExpectScanMatches(groups, q, rng.Uniform(0.0, 0.3));
    }
  }
}

}  // namespace
}  // namespace onex

/// E1 — Fig 1 / "Data Loading into ONEX": offline preprocessing cost and the
/// compaction the ONEX base achieves (groups << subsequences), across
/// dataset cardinality and similarity threshold.
///
/// With --json <path> it also times the build of the two servebench corpus
/// shapes a transparent rebuild re-runs (fleet-feed 20x128 with lengths
/// 8..32, dashboard 40x256 with lengths 8..64; one sine, walk and shapes
/// dataset each), over kReps repetitions, and writes median/min/max/IQR
/// of the build time with the leader-clustering scan counters (DESIGN.md
/// §5) to <path>. --rev and --build-type label the record;
/// scripts/bench.sh fills them in.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "onex/core/onex_base.h"
#include "onex/distance/kernels.h"
#include "onex/gen/generators.h"
#include "onex/json/json.h"
#include "onex/ts/normalization.h"

namespace {

std::shared_ptr<const onex::Dataset> MakeData(std::size_t n, std::size_t len,
                                              std::uint64_t seed) {
  onex::gen::RandomWalkOptions opt;
  opt.num_series = n;
  opt.length = len;
  opt.seed = seed;
  auto norm = onex::Normalize(onex::gen::MakeRandomWalks(opt),
                              onex::NormalizationKind::kMinMaxDataset);
  return std::make_shared<const onex::Dataset>(std::move(norm).value());
}

onex::BaseBuildOptions Scope(double st) {
  onex::BaseBuildOptions opt;
  opt.st = st;
  opt.min_length = 8;
  opt.length_step = 4;
  opt.stride = 2;
  return opt;
}

/// A servebench corpus shape: `series` series of `length` points per
/// dataset, built with PREPARE's defaults (running mean, stride 1, every
/// length in [min_length, max_length]) at ST 0.2.
struct Shape {
  const char* name;
  std::size_t series;
  std::size_t length;
  std::size_t min_length;
  std::size_t max_length;
};

std::shared_ptr<const onex::Dataset> MakeKind(int kind, const Shape& shape,
                                              std::uint64_t seed) {
  onex::Dataset raw;
  if (kind == 0) {
    onex::gen::SineFamilyOptions opt;
    opt.num_series = shape.series;
    opt.length = shape.length;
    opt.seed = seed;
    raw = onex::gen::MakeSineFamilies(opt);
  } else if (kind == 1) {
    onex::gen::RandomWalkOptions opt;
    opt.num_series = shape.series;
    opt.length = shape.length;
    opt.seed = seed;
    raw = onex::gen::MakeRandomWalks(opt);
  } else {
    onex::gen::WarpedShapeOptions opt;
    opt.num_series = shape.series;
    opt.length = shape.length;
    opt.seed = seed;
    raw = onex::gen::MakeWarpedShapes(opt);
  }
  auto norm =
      onex::Normalize(raw, onex::NormalizationKind::kMinMaxDataset).value();
  return std::make_shared<const onex::Dataset>(std::move(norm));
}

onex::json::Value Spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  onex::json::Value out = onex::json::Value::MakeObject();
  out.Set("median", quantile(0.5));
  out.Set("min", v.front());
  out.Set("max", v.back());
  out.Set("iqr", quantile(0.75) - quantile(0.25));
  return out;
}

/// Repetitions of each servebench shape's build in the --json record.
constexpr int kReps = 9;

/// Times kReps serial builds of one sine, walk and shapes dataset of
/// `shape` and returns its JSON record; the base statistics are
/// deterministic, so they are taken from the last repetition.
onex::json::Value RunShape(const Shape& shape) {
  std::vector<std::shared_ptr<const onex::Dataset>> corpus;
  for (int kind = 0; kind < 3; ++kind) {
    corpus.push_back(MakeKind(kind, shape, 7000 + kind));
  }
  onex::BaseBuildOptions opt;
  opt.st = 0.2;
  opt.min_length = shape.min_length;
  opt.max_length = shape.max_length;
  std::vector<double> times;
  std::size_t subsequences = 0, groups = 0, evals = 0, skips = 0;
  for (int r = 0; r < kReps; ++r) {
    subsequences = groups = evals = skips = 0;
    double ms = 0.0;
    for (const auto& ds : corpus) {
      auto base = onex::OnexBase::Build(ds, opt);
      if (!base.ok()) std::exit(1);
      ms += base->stats().build_seconds * 1e3;
      subsequences += base->stats().num_subsequences;
      groups += base->stats().num_groups;
      evals += base->stats().scan.centroid_evals;
      skips += base->stats().scan.bound_skips;
    }
    times.push_back(ms);
  }
  onex::json::Value build_ms = Spread(times);
  std::printf("%-10s  %zux%zu len %zu..%zu  build_ms median %.2f  groups %zu"
              "  evals %zu  skipped %zu\n",
              shape.name, shape.series, shape.length, shape.min_length,
              shape.max_length, build_ms["median"].as_number(), groups, evals,
              skips);
  onex::json::Value row = onex::json::Value::MakeObject();
  row.Set("shape", shape.name);
  row.Set("series", shape.series);
  row.Set("length", shape.length);
  row.Set("min_length", shape.min_length);
  row.Set("max_length", shape.max_length);
  row.Set("st", opt.st);
  row.Set("policy", onex::CentroidPolicyToString(opt.centroid_policy));
  row.Set("datasets", "sine, walk, shapes (seeds 7000..7002)");
  row.Set("build_ms", std::move(build_ms));
  row.Set("subsequences", subsequences);
  row.Set("groups", groups);
  row.Set("centroid_evals", evals);
  row.Set("bound_skips", skips);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using onex::bench::Fmt;
  using onex::bench::FmtZu;

  std::string json_path, rev = "unknown", build_type = "unknown";
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    if (flag == "--json") {
      json_path = argv[a + 1];
    } else if (flag == "--rev") {
      rev = argv[a + 1];
    } else if (flag == "--build-type") {
      build_type = argv[a + 1];
    }
  }

  onex::bench::Banner(
      "E1 construction", "Fig 1 + 'Data Loading into ONEX'",
      "preprocessing encodes similarity into a compact base: groups are a "
      "small fraction of the subsequence space, and build cost scales with "
      "data size and tightens with larger ST");

  std::printf("\n-- compaction vs similarity threshold (N=40, L=60) --\n");
  {
    onex::bench::Table table({"ST", "subsequences", "groups", "compaction",
                              "build_ms"});
    auto ds = MakeData(40, 60, 1);
    for (const double st : {0.05, 0.1, 0.2, 0.4}) {
      auto base = onex::OnexBase::Build(ds, Scope(st));
      if (!base.ok()) return 1;
      table.AddRow({Fmt("%.2f", st), FmtZu(base->TotalMembers()),
                    FmtZu(base->TotalGroups()),
                    Fmt("%.4f", base->stats().CompactionRatio()),
                    Fmt("%.1f", base->stats().build_seconds * 1e3)});
    }
    table.Print();
  }

  std::printf("\n-- scaling with cardinality (L=60, ST=0.2) --\n");
  {
    onex::bench::Table table(
        {"series", "subsequences", "groups", "compaction", "build_ms"});
    for (const std::size_t n : {20u, 40u, 80u, 160u}) {
      auto ds = MakeData(n, 60, 2);
      auto base = onex::OnexBase::Build(ds, Scope(0.2));
      if (!base.ok()) return 1;
      table.AddRow({FmtZu(n), FmtZu(base->TotalMembers()),
                    FmtZu(base->TotalGroups()),
                    Fmt("%.4f", base->stats().CompactionRatio()),
                    Fmt("%.1f", base->stats().build_seconds * 1e3)});
    }
    table.Print();
  }

  std::printf("\n-- scaling with series length (N=40, ST=0.2) --\n");
  {
    onex::bench::Table table(
        {"length", "subsequences", "groups", "compaction", "build_ms"});
    for (const std::size_t len : {30u, 60u, 120u}) {
      auto ds = MakeData(40, len, 3);
      auto base = onex::OnexBase::Build(ds, Scope(0.2));
      if (!base.ok()) return 1;
      table.AddRow({FmtZu(len), FmtZu(base->TotalMembers()),
                    FmtZu(base->TotalGroups()),
                    Fmt("%.4f", base->stats().CompactionRatio()),
                    Fmt("%.1f", base->stats().build_seconds * 1e3)});
    }
    table.Print();
  }

  std::printf(
      "\nshape check: compaction < 1 everywhere, improves (shrinks) as ST "
      "grows, and build time grows with N and L — the paper's offline cost "
      "profile.\n");

  if (json_path.empty()) return 0;
  std::printf("\n-- servebench corpus shapes (%d repetitions) --\n", kReps);
  onex::json::Value shapes = onex::json::Value::MakeArray();
  for (const Shape& shape : {Shape{"fleet-feed", 20, 128, 8, 32},
                             Shape{"dashboard", 40, 256, 8, 64}}) {
    shapes.Append(RunShape(shape));
  }
  onex::json::Value host = onex::json::Value::MakeObject();
  host.Set("cores",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  host.Set("build_type", build_type);
  host.Set("compiler", __VERSION__);
  host.Set("kernel", onex::ActiveKernel().name);
  onex::json::Value doc = onex::json::Value::MakeObject();
  doc.Set("bench", "e1_construction");
  doc.Set("revision", rev);
  doc.Set("host", std::move(host));
  doc.Set("repetitions", static_cast<std::size_t>(kReps));
  doc.Set("threads", static_cast<std::size_t>(1));
  doc.Set("shapes", std::move(shapes));
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << doc.Dump() << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

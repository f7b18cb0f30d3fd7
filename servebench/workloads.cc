// The three workloads. Each is a pure function of the seed: the data the
// server is told to generate, the request stream, and the probe stream the
// checks and the traced layer probes draw from. README.md gives the reason
// each workload exists and which layers it loads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace servebench {
namespace {

/// splitmix64: a cheap, well-mixed stream, so a request is a pure function
/// of (seed, stream, index) without carrying generator state.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull ^
               (index + 1) * 0x94D049BB133111EBull) {
    Next();
  }
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::size_t Between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(Next() % (hi - lo + 1));
  }
  double Normal() {
    const double u1 = std::max(Uniform(), 1e-300);
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t state_;
};

std::string Fmt(const char* fmt, std::size_t a, std::size_t b, std::size_t c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// q=<series>:<start>:<len> with len in [min_len, max_len] inside a series
/// of `series_len` points.
std::string QueryRef(Rng* rng, std::size_t num, std::size_t series_len,
                     std::size_t min_len, std::size_t max_len) {
  const std::size_t len = rng->Between(min_len, max_len);
  return Fmt("%zu:%zu:%zu", rng->Between(0, num - 1),
             rng->Between(0, series_len - len), len);
}

/// Shape of a dataset family: how queries into it are drawn.
struct DataShape {
  std::size_t num = 0;
  std::size_t len = 0;
  std::size_t min_q = 0;
  std::size_t max_q = 0;
};

Request Read(Op op, const std::string& dataset, const DataShape& shape,
             Rng* rng, std::size_t k, std::size_t batch) {
  Request r;
  r.op = op;
  r.dataset = dataset;
  auto ref = [&] {
    return QueryRef(rng, shape.num, shape.len, shape.min_q, shape.max_q);
  };
  switch (op) {
    case Op::kMatch:
      r.text = "MATCH " + dataset + " q=" + ref();
      break;
    case Op::kKnn:
      r.text = "KNN " + dataset + " k=" + std::to_string(k) + " q=" + ref();
      break;
    case Op::kBatch: {
      r.text = "BATCH " + dataset + " q=";
      for (std::size_t i = 0; i < batch; ++i) r.text += (i ? ";" : "") + ref();
      break;
    }
    case Op::kCatalog:
      r.text = "CATALOG " + dataset + " points=8";
      break;
    case Op::kOverview:
      r.text = "OVERVIEW " + dataset + " top=3";
      break;
    case Op::kExtend:
      break;
  }
  return r;
}

/// Picks an op from cumulative weights.
Op Pick(Rng* rng, const std::vector<std::pair<Op, double>>& mix) {
  double total = 0.0;
  for (const auto& [op, w] : mix) total += w;
  double u = rng->Uniform() * total;
  for (const auto& [op, w] : mix) {
    if (u < w) return op;
    u -= w;
  }
  return mix.back().first;
}

/// Jittered periodic schedule: request i of a connection is due at
/// (i + u_i) / rate with u_i uniform in [0, 1). Arrivals stay independent
/// of replies (open loop) and desynchronised across connections, while the
/// count per run is fixed, which keeps run-to-run spread low.
double DueAt(Rng* rng, std::size_t index, double rate_per_conn) {
  return (static_cast<double>(index) + rng->Uniform()) / rate_per_conn;
}

/// The generated corpus is fixed; --seed picks everything else (queries,
/// targets, arrival jitter, EXTEND points, which replies are checked). A
/// corpus drawn per seed made the per-dataset cost mix, and with it every
/// latency median, swing by about 15% between seeds.
constexpr std::uint64_t kCorpusSeed = 7;

constexpr std::uint64_t kLoadStream = 1;
constexpr std::uint64_t kProbeStream = 2;
constexpr std::uint64_t kSampleSalt = 0x5A17;

/// Each (connection, phase) pair draws its own stream, so the warm-up and
/// the measured phases of one run send different requests.
std::uint64_t LoadStream(std::size_t conn, std::size_t phase) {
  return kLoadStream + 16 * (conn + 16 * phase);
}

bool Sampled(std::uint64_t seed, std::uint64_t stream, std::size_t index,
             std::uint64_t every) {
  return Rng(seed ^ kSampleSalt, stream, index).Next() % every == 0;
}

const char* const kKinds[3] = {"sine", "walk", "shapes"};

std::string Name(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%02zu", prefix, i);
  return buf;
}

// --- dashboard --------------------------------------------------------------
// Linked-view queries against a resident dashboard. Open loop at a rate that
// keeps a 4-core host well under half busy: at 220/s a slow spell on the host
// tipped the queue over and medians moved 20-40% between runs. 88/s still
// gives every run over 1000 MATCH replies, so match_p99_ms has ten beyond it.
void MakeDashboard(Workload* w) {
  const DataShape shape{40, 256, 8, 64};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string name = Name("db", i);
    w->datasets.push_back(name);
    w->build_commands.push_back(
        "GEN " + name + " " + kKinds[i % 3] + " num=40 len=256 seed=" +
        std::to_string(kCorpusSeed * 1000 + i));
    w->build_commands.push_back("PREPARE " + name +
                                " st=0.2 minlen=8 maxlen=64");
  }
  const std::vector<std::pair<Op, double>> mix = {
      {Op::kMatch, 0.5}, {Op::kKnn, 0.3}, {Op::kBatch, 0.2}};
  w->plan.open_loop = true;
  w->plan.connections = 4;
  w->plan.offered_rps = 88.0;
  const std::uint64_t seed = w->seed;
  const std::vector<std::string> names = w->datasets;
  const double per_conn = w->plan.offered_rps / 4.0;
  auto gen = [=](Rng* rng) {
    const Op op = Pick(rng, mix);
    return Read(op, names[rng->Between(0, names.size() - 1)], shape, rng, 5, 8);
  };
  w->plan.next = [=](std::size_t conn, std::size_t index, std::size_t phase) {
    Rng rng(seed, LoadStream(conn, phase), index);
    const double due = DueAt(&rng, index, per_conn);
    Request r = gen(&rng);
    r.due_s = due;
    r.sample = Sampled(seed, LoadStream(conn, phase), index, 32);
    return r;
  };
  w->probe = [=](std::size_t index) {
    Rng rng(seed, kProbeStream, index);
    return gen(&rng);
  };
}

// --- chatty -----------------------------------------------------------------
// Pipelined clients issuing cheap requests against two tiny datasets: the
// engine's share of each request is small, so serving costs dominate.
void MakeChatty(Workload* w) {
  const DataShape shape{8, 32, 8, 8};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string name = Name("ch", i);
    w->datasets.push_back(name);
    w->build_commands.push_back(
        "GEN " + name + " " + kKinds[i % 2] + " num=8 len=32 seed=" +
        std::to_string(kCorpusSeed * 1000 + i));
    w->build_commands.push_back("PREPARE " + name +
                                " st=0.2 minlen=4 maxlen=8");
  }
  const std::vector<std::pair<Op, double>> mix = {{Op::kMatch, 0.4},
                                                  {Op::kKnn, 0.3},
                                                  {Op::kCatalog, 0.15},
                                                  {Op::kOverview, 0.15}};
  w->plan.open_loop = false;
  w->plan.connections = 4;
  w->plan.window = 32;
  const std::uint64_t seed = w->seed;
  const std::vector<std::string> names = w->datasets;
  auto gen = [=](Rng* rng) {
    const Op op = Pick(rng, mix);
    return Read(op, names[rng->Between(0, names.size() - 1)], shape, rng, 3, 1);
  };
  w->plan.next = [=](std::size_t conn, std::size_t index, std::size_t phase) {
    Rng rng(seed, LoadStream(conn, phase), index);
    Request r = gen(&rng);
    r.sample = Sampled(seed, LoadStream(conn, phase), index, 512);
    return r;
  };
  w->probe = [=](std::size_t index) {
    Rng rng(seed, kProbeStream, index);
    return gen(&rng);
  };
}

// --- fleet-feed -------------------------------------------------------------
// Live feeds tick into a durable fleet whose prepared bytes exceed the LRU
// budget: EXTENDs onto 4 live datasets beside MATCHes across all 16.
struct FeedState {
  /// Per live dataset, per series: the walk's current value and step size.
  std::vector<std::vector<double>> last;
  std::vector<std::vector<double>> step;
};

void MakeFleetFeed(Workload* w) {
  const DataShape shape{20, 128, 8, 32};
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string name = Name("ff", i);
    w->datasets.push_back(name);
    const char* kind = i < 4 ? "walk" : kKinds[i % 3];
    w->build_commands.push_back(
        "GEN " + name + " " + kind + " num=20 len=128 seed=" +
        std::to_string(kCorpusSeed * 1000 + i));
    w->build_commands.push_back("PREPARE " + name +
                                " st=0.2 minlen=8 maxlen=32");
    if (i < 4) w->live.push_back(name);
  }
  w->restart = true;
  w->budget_fraction = 0.1;
  w->plan.open_loop = true;
  w->plan.connections = 4;
  // Connection 0 is the feed collector: every EXTEND rides it, so the
  // writes to each series apply in send order. Connections 1-3 are
  // analysts issuing reads; EXTEND is a pipeline barrier on its own
  // connection, and keeping it off the analysts' connections means a read
  // waits for a write only where the engine makes it (slot lock, rebuild).
  constexpr double kExtendRate = 50.0;
  constexpr double kMatchPerConn = 50.0;
  w->plan.offered_rps = kExtendRate + 3 * kMatchPerConn;
  const std::uint64_t seed = w->seed;
  const std::vector<std::string> names = w->datasets;
  const std::vector<std::string> live = w->live;
  auto state = std::make_shared<FeedState>();
  w->plan.next = [=](std::size_t conn, std::size_t index, std::size_t phase) {
    Rng rng(seed, LoadStream(conn, phase), index);
    Request r;
    if (conn == 0) {
      const double due = DueAt(&rng, index, kExtendRate);
      const std::size_t d = rng.Between(0, live.size() - 1);
      r.op = Op::kExtend;
      r.dataset = live[d];
      r.series = rng.Between(0, shape.num - 1);
      r.text = "EXTEND " + r.dataset + " series=" + std::to_string(r.series);
      // Only the collector's thread calls this branch, in index order, so
      // the walk state needs no lock.
      double& x = state->last[d][r.series];
      const double step = state->step[d][r.series];
      for (int p = 0; p < 4; ++p) {
        x += step * rng.Normal();
        r.values.push_back(x);
      }
      r.due_s = due;
      return r;
    }
    const double due = DueAt(&rng, index, kMatchPerConn);
    r = Read(Op::kMatch, names[rng.Between(0, names.size() - 1)], shape, &rng,
             1, 1);
    r.due_s = due;
    r.sample = Sampled(seed, LoadStream(conn, phase), index, 16);
    return r;
  };
  w->probe = [=](std::size_t index) {
    Rng rng(seed, kProbeStream, index);
    return Read(Op::kMatch, names[rng.Between(0, names.size() - 1)], shape,
                &rng, 1, 1);
  };
  // BindEngine fills the walk state from the recovered data.
  w->bind = [state, live](const onex::Engine& engine) {
    state->last.assign(live.size(), {});
    state->step.assign(live.size(), {});
    for (std::size_t d = 0; d < live.size(); ++d) {
      auto snap = engine.Get(live[d]);
      if (!snap.ok()) continue;
      for (const auto& ts : (*snap)->raw->series()) {
        const auto& v = ts.values();
        double sum_sq = 0.0;
        for (std::size_t i = 1; i < v.size(); ++i) {
          sum_sq += (v[i] - v[i - 1]) * (v[i] - v[i - 1]);
        }
        state->last[d].push_back(v.empty() ? 0.0 : v.back());
        state->step[d].push_back(
            v.size() > 1 ? std::sqrt(sum_sq / static_cast<double>(v.size() - 1))
                         : 1.0);
      }
    }
  };
}

}  // namespace

const char* OpName(Op op) {
  static const char* const kNames[kNumOps] = {"match", "knn", "batch",
                                              "extend", "catalog", "overview"};
  return kNames[static_cast<int>(op)];
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out) {
  out->name = name;
  out->seed = seed;
  if (name == "dashboard") {
    MakeDashboard(out);
  } else if (name == "chatty") {
    MakeChatty(out);
  } else if (name == "fleet-feed") {
    MakeFleetFeed(out);
  } else {
    return false;
  }
  return true;
}

void BindEngine(Workload* workload, const onex::Engine& engine) {
  if (workload->bind) workload->bind(engine);
}

}  // namespace servebench

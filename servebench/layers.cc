// Traced layer probes: spans around direct calls into each layer's public
// functions, made from the benchmark's own code on the live engine's
// quiesced state. Nothing inside src/ is instrumented.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "onex/core/query_processor.h"
#include "onex/distance/dtw.h"
#include "onex/distance/kernels.h"
#include "onex/net/frame.h"
#include "onex/net/protocol.h"

namespace servebench {
namespace {

using onex::json::Value;

/// Parses "s:start:len" (the q= grammar the workloads generate).
bool ParseRef(const std::string& ref, onex::QuerySpec* spec) {
  std::size_t a = 0, b = 0, c = 0;
  if (std::sscanf(ref.c_str(), "%zu:%zu:%zu", &a, &b, &c) != 3) return false;
  spec->series = a;
  spec->start = b;
  spec->length = c;
  return true;
}

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The wire defaults of MATCH/KNN (window=-1, topgroups=1, threads=1).
onex::QueryOptions WireQueryOptions() { return onex::QueryOptions{}; }

}  // namespace

void ProbeReadLayers(const Workload& w, onex::Engine* engine,
                     std::size_t count, Tracer* tracer, Metrics* out) {
  std::vector<double> exec_self_us, exec_match_ms, core_match_ms, core_knn_ms,
      engine_self_match_ms, response_bytes, dtw_us;
  double groups_total = 0, groups_pruned = 0, members_refined = 0,
         core_queries = 0;
  double dtw_evals = 0, pruned = 0, stats_queries = 0;
  constexpr std::uint64_t kProbeBase = 50000;

  for (std::size_t i = 0; i < count; ++i) {
    const Request req = w.probe(kProbeBase + i);
    const std::uint64_t id = kProbeBase + i;
    auto cmd = onex::net::ParseCommandLine(req.text);
    if (!cmd.ok()) continue;
    cmd->payload = req.values;
    // Warm-up execution: pages in or rebuilds a cold slot and fills caches,
    // so the timed calls below compare like with like.
    onex::net::Session session;
    (void)onex::net::ExecuteCommand(engine, &session, *cmd);

    Scope root(tracer, "probe.request", id);
    onex::net::Frame rf;
    rf.type = onex::net::FrameType::kRequest;
    rf.request_id = id;
    rf.text = req.text;
    rf.values = req.values;
    std::string wire;
    {
      Scope s(tracer, "frame.encode", id, root.id());
      wire = onex::net::EncodeFrame(rf);
    }
    {
      Scope s(tracer, "frame.decode", id, root.id());
      (void)onex::net::DecodeFrame(wire);
    }
    {
      Scope s(tracer, "protocol.parse", id, root.id());
      cmd = onex::net::ParseCommandLine(req.text);
    }
    cmd->payload = req.values;
    Value v;
    std::vector<double> values;
    onex::net::ExecContext ctx;
    ctx.out_values = &values;
    const auto e0 = Clock::now();
    {
      Scope s(tracer, "protocol.execute", id, root.id());
      v = onex::net::ExecuteCommand(engine, &session, *cmd, ctx);
    }
    const double exec_us = Us(e0, Clock::now());
    std::string body;
    {
      Scope s(tracer, "protocol.format", id, root.id());
      body = onex::net::FormatResponse(v);
    }
    response_bytes.push_back(static_cast<double>(body.size()));
    onex::net::Frame resp;
    resp.type = onex::net::FrameType::kResponse;
    resp.request_id = id;
    resp.text = body;
    resp.values = values;
    {
      Scope s(tracer, "frame.encode", id, root.id());
      wire = onex::net::EncodeFrame(resp);
    }
    {
      Scope s(tracer, "frame.decode", id, root.id());
      (void)onex::net::DecodeFrame(wire, onex::net::ResponseFrameLimits());
    }

    const Value& stats = v["stats"];
    if (stats.is_object()) {
      const double kim = stats["pruned_kim"].as_number();
      const double keogh = stats["pruned_keogh"].as_number();
      const double evals = stats["dtw_evals"].as_number();
      dtw_evals += evals;
      pruned += kim + keogh;
      stats_queries += 1;
    }

    // The engine call the executor makes for this verb, and for MATCH/KNN
    // the QueryProcessor call the engine makes, on the pinned snapshot.
    const auto qit = cmd->options.find("q");
    onex::QuerySpec spec;
    const bool query = (req.op == Op::kMatch || req.op == Op::kKnn) &&
                       qit != cmd->options.end() && ParseRef(qit->second, &spec);
    double engine_us = -1.0;
    if (query) {
      const std::size_t k =
          req.op == Op::kKnn ? std::stoul(cmd->options.at("k")) : 1;
      const auto t0 = Clock::now();
      {
        Scope s(tracer, req.op == Op::kMatch ? "engine.match" : "engine.knn",
                id);
        if (req.op == Op::kMatch) {
          (void)engine->SimilaritySearch(req.dataset, spec, WireQueryOptions());
        } else {
          (void)engine->Knn(req.dataset, spec, k, WireQueryOptions());
        }
      }
      engine_us = Us(t0, Clock::now());
      auto snap = engine->registry().GetPrepared(req.dataset);
      if (snap.ok() && (*snap)->prepared()) {
        auto qvals = engine->ResolveQuery(**snap, spec);
        if (qvals.ok()) {
          onex::QueryProcessor qp((*snap)->base.get());
          onex::QueryStats qs;
          // Engine::SimilaritySearch is KnnQuery with k = 1.
          const auto c0 = Clock::now();
          {
            Scope s(tracer, req.op == Op::kMatch ? "core.match" : "core.knn", id);
            (void)qp.KnnQuery(*qvals, k, WireQueryOptions(), &qs);
          }
          const double core_us = Us(c0, Clock::now());
          (req.op == Op::kMatch ? core_match_ms : core_knn_ms)
              .push_back(core_us / 1e3);
          if (req.op == Op::kMatch) {
            engine_self_match_ms.push_back((engine_us - core_us) / 1e3);
          }
          groups_total += static_cast<double>(qs.groups_total);
          groups_pruned += static_cast<double>(qs.groups_pruned_lb);
          members_refined += static_cast<double>(qs.member_dtw_evaluations +
                                                 qs.members_pruned_lb);
          core_queries += 1;

          // distance: the active kernel's DTW of the query against
          // same-length subsequences of the normalized data.
          const auto& series = (*snap)->normalized->series();
          const std::size_t n = qvals->size();
          const int window = onex::EffectiveWindow(n, n, onex::kNoWindow);
          const onex::DistanceKernel& kernel = onex::ActiveKernel();
          onex::DtwWorkspace& ws = onex::ThreadLocalDtwWorkspace();
          constexpr std::size_t kCalls = 16;
          double sink = 0.0;
          const auto d0 = Clock::now();
          {
            Scope s(tracer, "distance.dtw", id);
            for (std::size_t j = 0; j < kCalls; ++j) {
              const auto& vals = series[(spec.series + j) % series.size()].values();
              if (vals.size() < n) continue;
              const std::size_t start = (spec.start + 7 * j) % (vals.size() - n + 1);
              sink += kernel.dtw_ea_sq(qvals->data(), n, vals.data() + start, n,
                                       std::numeric_limits<double>::infinity(),
                                       window, &ws);
            }
          }
          dtw_us.push_back(Us(d0, Clock::now()) / kCalls);
          if (!std::isfinite(sink)) std::abort();
        }
      }
    } else if (req.op == Op::kBatch) {
      std::vector<onex::QuerySpec> specs;
      std::string refs = qit != cmd->options.end() ? qit->second : "";
      for (std::size_t pos = 0; pos <= refs.size();) {
        const std::size_t end = std::min(refs.find(';', pos), refs.size());
        onex::QuerySpec s;
        if (ParseRef(refs.substr(pos, end - pos), &s)) specs.push_back(s);
        pos = end + 1;
      }
      const auto t0 = Clock::now();
      {
        Scope s(tracer, "engine.batch", id);
        (void)engine->SimilaritySearchBatch(req.dataset, specs,
                                            WireQueryOptions());
      }
      engine_us = Us(t0, Clock::now());
    } else if (req.op == Op::kCatalog) {
      const auto t0 = Clock::now();
      {
        Scope s(tracer, "engine.catalog", id);
        (void)engine->Catalog(req.dataset, 8);
      }
      engine_us = Us(t0, Clock::now());
    } else if (req.op == Op::kOverview) {
      onex::OverviewOptions opt;
      opt.top_n = 3;
      const auto t0 = Clock::now();
      {
        Scope s(tracer, "engine.overview", id);
        (void)engine->Overview(req.dataset, opt);
      }
      engine_us = Us(t0, Clock::now());
    }
    if (engine_us >= 0.0) exec_self_us.push_back(exec_us - engine_us);
    if (req.op == Op::kMatch) exec_match_ms.push_back(exec_us / 1e3);
  }

  // task_pool: 8 serial SimilaritySearch calls against one
  // SimilaritySearchBatch of the same 8 queries.
  std::vector<double> speedups;
  std::size_t next = 0;
  for (int set = 0; set < 8; ++set) {
    std::string dataset;
    std::vector<onex::QuerySpec> specs;
    while (specs.size() < 8 && next < 100000) {
      const Request req = w.probe(kProbeBase + count + next++);
      auto cmd = onex::net::ParseCommandLine(req.text);
      if (!cmd.ok()) continue;
      const auto qit = cmd->options.find("q");
      onex::QuerySpec spec;
      if (qit == cmd->options.end() || !ParseRef(qit->second, &spec)) continue;
      if (dataset.empty()) dataset = req.dataset;
      specs.push_back(spec);
    }
    if (specs.size() < 8) break;
    (void)engine->SimilaritySearchBatch(dataset, specs, WireQueryOptions());
    const std::uint64_t id = 90000 + static_cast<std::uint64_t>(set);
    const auto s0 = Clock::now();
    {
      Scope s(tracer, "task_pool.serial8", id);
      for (const auto& spec : specs) {
        (void)engine->SimilaritySearch(dataset, spec, WireQueryOptions());
      }
    }
    const auto s1 = Clock::now();
    {
      Scope s(tracer, "task_pool.batch8", id);
      (void)engine->SimilaritySearchBatch(dataset, specs, WireQueryOptions());
    }
    const auto s2 = Clock::now();
    speedups.push_back(Us(s0, s1) / std::max(1e-3, Us(s1, s2)));
  }

  auto& m = *out;
  m["distance.dtw_evals_per_query"] =
      stats_queries > 0 ? dtw_evals / stats_queries : 0.0;
  m["distance.prune_frac"] =
      pruned + dtw_evals > 0 ? pruned / (pruned + dtw_evals) : 0.0;
  m["distance.dtw_us"] = Mean(dtw_us);
  m["core.match_ms"] = Percentile(core_match_ms, 0.5);
  m["core.knn_ms"] = Percentile(core_knn_ms, 0.5);
  m["core.groups_pruned_frac"] =
      groups_total > 0 ? groups_pruned / groups_total : 0.0;
  m["core.members_refined_per_query"] =
      core_queries > 0 ? members_refined / core_queries : 0.0;
  m["engine.match_self_ms"] = Percentile(engine_self_match_ms, 0.5);
  m["task_pool.batch_speedup"] = Percentile(speedups, 0.5);
  m["protocol.parse_us"] = Percentile(tracer->Durations("protocol.parse"), 0.5);
  m["protocol.exec_self_us"] = Percentile(exec_self_us, 0.5);
  m["protocol.exec_match_ms"] = Percentile(exec_match_ms, 0.5);
  m["protocol.format_us"] = Percentile(tracer->Durations("protocol.format"), 0.5);
  m["protocol.response_bytes"] = Mean(response_bytes);
  m["frame.encode_us"] = Percentile(tracer->Durations("frame.encode"), 0.5);
  m["frame.decode_us"] = Percentile(tracer->Durations("frame.decode"), 0.5);
}

void ProbePrepare(const Workload& w, onex::Engine* engine, Tracer* tracer,
                  Metrics* out) {
  onex::Engine side;
  std::vector<double> ms;
  std::uint64_t id = 95000;
  for (const std::string& name : w.datasets) {
    auto snap = engine->registry().GetPrepared(name);
    if (!snap.ok() || !(*snap)->prepared()) continue;
    if (!side.LoadDataset(name, *(*snap)->raw).ok()) continue;
    const auto t0 = Clock::now();
    onex::Status s;
    {
      Scope span(tracer, "engine.prepare", id++);
      s = side.Prepare(name, (*snap)->build_options, (*snap)->norm_kind);
    }
    if (s.ok()) ms.push_back(Us(t0, Clock::now()) / 1e3);
  }
  (*out)["engine.prepare_ms"] = Percentile(ms, 0.5);
}

void ProbeWriteLayers(const Workload& w, onex::Engine* engine,
                      const std::string& data_dir, Tracer* tracer,
                      Metrics* out) {
  const std::string target = w.live.empty() ? w.datasets.front() : w.live.front();
  const std::filesystem::path wal = std::filesystem::path(data_dir) / target / "wal";
  auto snap = engine->Get(target);
  if (!snap.ok()) return;
  const std::size_t num = (*snap)->raw->size();
  std::vector<double> last;
  for (const auto& ts : (*snap)->raw->series()) last.push_back(ts.values().back());

  std::vector<double> extend_ms, checkpoint_ms, bytes_per_record;
  std::uint64_t id = 97000;
  std::uint64_t k = 0;
  auto extend = [&] {
    const std::size_t s = k % num;
    std::vector<double> pts;
    for (int p = 0; p < 4; ++p) {
      // A deterministic small walk off the series' last value.
      last[s] += 0.01 * std::sin(static_cast<double>(w.seed + 4 * k + p));
      pts.push_back(last[s]);
    }
    ++k;
    const auto t0 = Clock::now();
    bool ok = false;
    {
      Scope span(tracer, "engine.extend", id++);
      ok = engine->ExtendSeries(target, s, std::move(pts)).ok();
    }
    if (ok) extend_ms.push_back(Us(t0, Clock::now()) / 1e3);
  };
  auto checkpoint = [&] {
    const auto t0 = Clock::now();
    bool ok = false;
    {
      Scope span(tracer, "wal.checkpoint", id++);
      ok = engine->registry().Checkpoint(target).ok();
    }
    if (ok) checkpoint_ms.push_back(Us(t0, Clock::now()) / 1e3);
  };

  // One extend makes the slot resident (a mapped base is promoted by the
  // write), so the checkpoints below never hit the not-resident refusal.
  extend();
  extend_ms.clear();
  checkpoint();
  constexpr int kRounds = 4;
  constexpr int kPerRound = 25;
  for (int r = 0; r < kRounds; ++r) {
    std::error_code ec;
    const auto size0 = std::filesystem::file_size(wal, ec);
    for (int i = 0; i < kPerRound; ++i) extend();
    const auto size1 = std::filesystem::file_size(wal, ec);
    if (!ec && size1 > size0) {
      bytes_per_record.push_back(static_cast<double>(size1 - size0) / kPerRound);
    }
    checkpoint();
  }
  (*out)["engine.extend_p50_ms"] = Percentile(extend_ms, 0.5);
  (*out)["engine.extend_p90_ms"] = Percentile(extend_ms, 0.9);
  (*out)["wal.checkpoint_ms"] = Percentile(checkpoint_ms, 0.5);
  (*out)["wal.bytes_per_record"] = Mean(bytes_per_record);
}

}  // namespace servebench

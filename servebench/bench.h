#ifndef ONEX_SERVEBENCH_BENCH_H_
#define ONEX_SERVEBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/reactor.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `xs`; 0 for an empty sample.
double Percentile(std::vector<double> xs, double p);
double Mean(const std::vector<double>& xs);

/// The request kinds the workloads send. Index order is the order the
/// record reports them in.
enum class Op { kMatch = 0, kKnn, kBatch, kExtend, kCatalog, kOverview };
inline constexpr int kNumOps = 6;
const char* OpName(Op op);

/// One generated request: the command line the server receives, plus the
/// ONEXB float64 payload (EXTEND points ride there, not in the text).
struct Request {
  Op op = Op::kMatch;
  std::string dataset;
  std::string text;
  std::vector<double> values;
  std::size_t series = 0;  ///< EXTEND target series.
  double due_s = 0.0;      ///< Open loop: send time, seconds from load start.
  bool sample = false;     ///< Keep the reply for the answer check.
};

/// What happened to one request. Times are seconds from load start; a
/// negative recv_s means no reply arrived. Kept small: a closed-loop run
/// records hundreds of thousands of these inside the measured process.
struct Outcome {
  double due_s = 0.0;
  double send_s = -1.0;
  double recv_s = -1.0;
  Op op = Op::kMatch;
  bool ok = false;
  /// Slot tier read from the registry just before a traced MATCH was sent
  /// (-1 when not traced): 0 resident, 1 mapped, 2 evicted.
  std::int8_t tier = -1;
};

/// A request the checks need after the run (sampled reads and every
/// EXTEND), with its reply.
struct Kept {
  std::size_t index = 0;  ///< Position in the connection's outcomes.
  Request request;
  std::string body;
  std::vector<double> values;
};

/// A fixed-rate (open loop) or fixed-window (closed loop) traffic plan.
struct LoadPlan {
  bool open_loop = true;
  double offered_rps = 0.0;   ///< Open loop: total schedule rate.
  std::size_t window = 0;     ///< Closed loop: requests in flight per conn.
  std::size_t connections = 1;
  /// Request `index` of connection `conn` in load phase `phase` (warm-up,
  /// measured, traced). For the open loop the due times it returns are
  /// nondecreasing per connection; the generator stops at the first request
  /// due at or after the phase length. Deterministic in (seed, conn, index,
  /// phase); called for one connection from one thread, in index order.
  std::function<Request(std::size_t conn, std::size_t index,
                        std::size_t phase)>
      next;
};

/// One connection's share of a load run, in send order.
struct ConnLoad {
  std::vector<Outcome> outcomes;
  std::vector<Kept> kept;  ///< Ascending by index.
};

/// What a load run produced.
struct LoadResult {
  Clock::time_point start;  ///< Time zero of the outcomes' times.
  double seconds = 0.0;
  std::vector<ConnLoad> conns;
  /// Connections that failed to open or broke. Each counts as one failed
  /// request on top of the requests it left unanswered or unsent.
  std::size_t transport_errors = 0;
  /// Open loop: requests due inside the run that were never sent, because
  /// the connection stayed at its in-flight cap or failed. They count as
  /// failed.
  std::size_t unsent = 0;
  /// CPU seconds the generator's own threads spent, so the server's share
  /// of the process's CPU time can be told apart.
  double generator_cpu_s = 0.0;
};

/// A workload: the set-up commands, the traffic, and the knobs the record
/// reports. Everything is a pure function of the seed.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<std::string> datasets;
  /// Commands that build the data in the first engine (GEN, PREPARE).
  std::vector<std::string> build_commands;
  /// Restart after the build: stop, and recover from the data dir into a
  /// fresh engine with `budget_fraction` of the prepared bytes as the LRU
  /// budget.
  bool restart = false;
  double budget_fraction = 0.0;
  /// Datasets live EXTENDs write to (empty for read-only workloads).
  std::vector<std::string> live;
  LoadPlan plan;
  /// Seeded stream of read requests outside the timed load: the quiesced
  /// answer check and the traced layer probes draw from it.
  std::function<Request(std::size_t index)> probe;
  /// Reads the set-up data the request stream continues from (fleet-feed's
  /// EXTEND walks start at each series' last value). May be empty.
  std::function<void(const onex::Engine&)> bind;
};

/// Builds a workload by name; false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

/// Runs the workload's `bind` hook against the set-up engine, before load.
void BindEngine(Workload* workload, const onex::Engine& engine);

/// Drives phase `phase` of `plan` against the server at `port` for
/// `seconds`; `plan.connections` connections, one thread each. When
/// `engine` is set (traced runs), the target slot's tier is read before
/// each MATCH.
LoadResult RunLoad(const LoadPlan& plan, std::size_t phase, std::uint16_t port,
                   double seconds, const onex::Engine* engine);

/// CPU seconds consumed so far by the calling thread, or by every thread
/// of the process.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// Bytes of the per-request records (Outcome) every RunLoad so far has
/// kept. They live in the measured process, so rss_mb subtracts them: a run
/// that completes more requests must not read as using more memory.
std::size_t OutcomeBytes();

/// Removes volatile fields (elapsed_ms, build_seconds) so two executions of
/// one command compare equal, and returns the canonical dump.
std::string ScrubbedBody(onex::json::Value body);

// --- Tracing ---------------------------------------------------------------

/// In-memory span log: name, start, end, parent span and request id. Spans
/// are recorded around calls into each layer from the benchmark's own code
/// and written out (JSON lines) when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
    double us() const { return end_us - start_us; }
  };

  Tracer() : origin_(Clock::now()) {}

  std::int64_t Begin(const std::string& name, std::uint64_t request,
                     std::int64_t parent = -1);
  void End(std::int64_t id);
  /// Adds a finished span measured elsewhere (client-side request spans).
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::uint64_t request,
           std::int64_t parent = -1);

  /// Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  bool Write(const std::string& path) const;

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t request,
        std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

// --- Layer probes (traced runs) --------------------------------------------

/// Per-layer metrics measured by calling each layer's public functions
/// directly on the live engine's quiesced state. Values keyed by metric
/// name; see README.md for the definitions.
using Metrics = std::map<std::string, double>;

/// distance, core, engine (reads), task_pool and protocol/frame probes over
/// `count` requests drawn from the workload's probe stream.
void ProbeReadLayers(const Workload& workload, onex::Engine* engine,
                     std::size_t count, Tracer* tracer, Metrics* out);

/// engine.prepare_ms: each dataset's raw copy prepared with the same
/// recipe on a side engine.
void ProbePrepare(const Workload& workload, onex::Engine* engine,
                  Tracer* tracer, Metrics* out);

/// Write-path probes on a recovered durable engine: direct ExtendSeries
/// calls (engine.extend_*), WAL growth per record, and timed checkpoints.
void ProbeWriteLayers(const Workload& workload, onex::Engine* engine,
                      const std::string& data_dir, Tracer* tracer,
                      Metrics* out);

/// Bytes of every regular file under `dir`.
std::uint64_t DirBytes(const std::string& dir);

}  // namespace servebench

#endif  // ONEX_SERVEBENCH_BENCH_H_

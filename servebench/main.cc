// servebench: one command that sets up a workload on a real ReactorServer,
// drives it over ONEXB connections, checks the answers and the durability of
// every acknowledged write, and prints the metrics. See README.md.
//
//   servebench --workload dashboard|chatty|fleet-feed --seed N --seconds S
//              --trace 0|1 --work-dir DIR [--git-rev R] [--src-digest D]
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it is the run
// record (seed, provenance, every figure by name with its unit), which is
// also written under DIR/records/. Traced runs write their spans under
// DIR/trace/.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "onex/distance/kernels.h"
#include "onex/net/client.h"
#include "onex/net/protocol.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using onex::json::Value;
using onex::net::OnexClient;
using onex::net::WireResponse;

/// Durability policy of every workload: the strict one, so writes pay for
/// the fsync a deployment with a data dir pays.
constexpr std::uint64_t kCheckpointEvery = 64;
constexpr bool kFsync = true;
/// Set-ups per run; setup_s is their median. Beyond the first three the
/// timing child keeps setting up until it has spent kSetupBudgetS, so a
/// set-up of milliseconds (chatty) is timed dozens of times and one slow
/// thread start does not move the median.
constexpr int kSetupReps = 3;
constexpr int kMaxSetupReps = 64;
constexpr double kSetupBudgetS = 2.0;
/// Uncounted traffic between set-up and the measured phase.
constexpr double kWarmupS = 2.0;
/// A reply within this many milliseconds of its due time counts as good.
constexpr double kInteractiveLimitMs = 100.0;
/// An open-loop run whose generator sent its p99 request later than this
/// after its due time measured the generator, not the server: its latency
/// figures are marked invalid. The scored metrics (server CPU time, memory,
/// set-up time, bytes stored) do not depend on send times and still count.
constexpr double kLateLimitMs = 20.0;
/// Probe-stream requests sent over the wire again on the quiesced state.
constexpr std::size_t kQuiescedChecks = 64;
/// Probe-stream requests compared across the stop/recover boundary.
constexpr std::size_t kRecoveryChecks = 24;
constexpr std::size_t kRecoveryProbeBase = 100000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string work_dir;
  std::string git_rev = "none";
  std::string src_digest = "none";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 == 0) return false;  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--git-rev") a->git_rev = v;
    else if (k == "--src-digest") a->src_digest = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 && !a->work_dir.empty() &&
         (a->trace == 0 || a->trace == 1);
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::exit(2);
}

/// Resident set size now, from /proc/self/statm.
double RssMb() {
  std::ifstream f("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  f >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// Samples RssMb(), less the load generator's per-request records, every
/// 50 ms on its own thread until destroyed.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Run(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  std::vector<double> samples() {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const double mb =
          RssMb() - static_cast<double>(OutcomeBytes()) / (1 << 20);
      lock.lock();
      samples_.push_back(mb);
      cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
    }
  }
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// The host's CPU time counters (/proc/stat, first line): the total, and
/// the time the hypervisor gave this machine's CPUs to someone else.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};
CpuTimes ReadCpuTimes() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTimes t;
  double v = 0.0;
  for (int i = 0; i < 10 && (f >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Peak resident set size of the process so far (VmHWM).
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// A running server over its engine, and the data dir it journals into.
struct Live {
  std::unique_ptr<onex::Engine> engine;
  std::unique_ptr<onex::net::ReactorServer> server;
  std::string data_dir;
  std::size_t budget = 0;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

/// A synchronous ONEXB connection for set-up, METRICS and the checks (the
/// load itself goes through RunLoad's scheduled sends).
onex::Result<OnexClient> ConnectBinary(std::uint16_t port) {
  auto client = OnexClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  const onex::Status upgraded = client->UpgradeBinary();
  if (!upgraded.ok()) return upgraded;
  return client;
}

/// One call; a transport failure reads as an ok:false body.
WireResponse Call(OnexClient* client, const std::string& text,
                  const std::vector<double>& values = {}) {
  auto reply = client->CallWire({text, values});
  if (reply.ok()) return std::move(*reply);
  WireResponse failed;
  failed.body = Value::MakeObject();
  failed.body.Set("ok", false);
  failed.body.Set("transport_error", reply.status().ToString());
  return failed;
}

bool Ok(const WireResponse& r) { return r.body["ok"].as_bool(); }

bool StartServer(Live* live) {
  live->engine = std::make_unique<onex::Engine>();
  live->server = std::make_unique<onex::net::ReactorServer>(live->engine.get());
  return live->server->Start(0).ok();
}

std::string PersistCommand(const std::string& dir) {
  return "PERSIST dir=" + dir + " every=" + std::to_string(kCheckpointEvery) +
         " fsync=" + (kFsync ? "1" : "0");
}

/// Runs `commands` split across up to four connections (GEN/PREPARE pairs
/// of one dataset stay on one connection, in order).
bool RunParallel(std::uint16_t port, const std::vector<std::string>& commands,
                 std::string* error) {
  constexpr std::size_t kConns = 4;
  std::vector<std::vector<std::string>> parts(kConns);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    parts[(i / 2) % kConns].push_back(commands[i]);
  }
  std::vector<std::string> errors(kConns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectBinary(port);
      if (!client.ok()) {
        errors[c] = "connect failed: " + client.status().ToString();
        return;
      }
      for (const std::string& cmd : parts[c]) {
        WireResponse r = Call(&*client, cmd);
        if (!Ok(r)) {
          errors[c] = cmd + " -> " + r.body.Dump();
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }
  return true;
}

/// Load, prepare, persist; for restart workloads also stop and recover
/// into a fresh engine with the LRU budget set. Everything goes over the
/// wire as commands.
bool Setup(const Workload& w, const std::string& data_dir, Live* live,
           std::string* error) {
  live->data_dir = data_dir;
  if (!StartServer(live)) {
    *error = "server start failed";
    return false;
  }
  if (!RunParallel(live->server->port(), w.build_commands, error)) return false;
  auto client = ConnectBinary(live->server->port());
  if (!client.ok()) {
    *error = "connect failed: " + client.status().ToString();
    return false;
  }
  WireResponse r = Call(&*client, PersistCommand(data_dir));
  if (!Ok(r)) {
    *error = "PERSIST -> " + r.body.Dump();
    return false;
  }
  if (!w.restart) return true;

  r = Call(&*client, "DATASETS");
  if (!Ok(r)) {
    *error = "DATASETS -> " + r.body.Dump();
    return false;
  }
  double prepared = 0.0;
  for (const Value& d : r.body["datasets"].as_array()) {
    prepared += d["bytes"].as_number();
  }
  live->budget = static_cast<std::size_t>(prepared * w.budget_fraction);
  client->Close();
  live->Stop();

  if (!StartServer(live)) {
    *error = "server restart failed";
    return false;
  }
  client = ConnectBinary(live->server->port());
  if (!client.ok()) {
    *error = "connect failed: " + client.status().ToString();
    return false;
  }
  for (const std::string& cmd :
       {"BUDGET bytes=" + std::to_string(live->budget),
        PersistCommand(data_dir)}) {
    r = Call(&*client, cmd);
    if (!Ok(r)) {
      *error = cmd + " -> " + r.body.Dump();
      return false;
    }
  }
  return true;
}

/// Runs at least `reps` complete set-ups in a forked child, more while the
/// child has spent less than kSetupBudgetS, and returns their times. Called
/// before the parent starts any thread, so the fork is safe.
std::vector<double> TimeSetupsInChild(const Workload& w,
                                      const std::string& run_dir, int reps) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    const auto start = Clock::now();
    for (int rep = 0;
         code == 0 && rep < kMaxSetupReps &&
         (rep < reps || SecondsBetween(start, Clock::now()) < kSetupBudgetS);
         ++rep) {
      const std::string dir = run_dir + "/setup" + std::to_string(rep);
      Live live;
      std::string error;
      const auto t0 = Clock::now();
      if (Setup(w, dir, &live, &error)) {
        const double s = SecondsBetween(t0, Clock::now());
        if (::write(fds[1], &s, sizeof(s)) != sizeof(s)) code = 1;
      } else {
        std::fprintf(stderr, "servebench: set-up failed: %s\n", error.c_str());
        code = 1;
      }
      live.Stop();
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::vector<double> times;
  double s = 0.0;
  while (::read(fds[0], &s, sizeof(s)) == sizeof(s)) times.push_back(s);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      times.size() < static_cast<std::size_t>(reps)) {
    Die("set-up failed in the timing child");
  }
  return times;
}

/// Milliseconds of a fixed single-threaded loop of active-kernel DTW calls,
/// the median of five. Recorded before and after the load, it shows how
/// fast the host ran, beside the latencies that depend on it.
double CalibrationMs() {
  constexpr std::size_t kLen = 64;
  std::vector<double> a(kLen), b(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    a[i] = std::sin(0.1 * static_cast<double>(i));
    b[i] = std::cos(0.07 * static_cast<double>(i));
  }
  const onex::DistanceKernel& kernel = onex::ActiveKernel();
  onex::DtwWorkspace& ws = onex::ThreadLocalDtwWorkspace();
  double sink = 0.0;
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < 5000; ++r) {
      b[r % kLen] += 1e-9;
      sink += kernel.dtw_ea_sq(a.data(), kLen, b.data(), kLen,
                               std::numeric_limits<double>::infinity(),
                               static_cast<int>(kLen), &ws);
    }
    ms.push_back(1e3 * SecondsBetween(t0, Clock::now()));
  }
  if (!std::isfinite(sink)) Die("calibration loop diverged");
  return Percentile(ms, 0.5);
}

struct DurabilityTotals {
  double records = 0.0;
  double checkpoints = 0.0;
};

DurabilityTotals ReadDurability(const Workload& w, const onex::Engine& e) {
  DurabilityTotals t;
  for (const std::string& name : w.datasets) {
    auto d = e.registry().Durability(name);
    if (!d.ok()) continue;
    t.records += static_cast<double>(d->last_seq);
    t.checkpoints += static_cast<double>(d->checkpoints_completed);
  }
  return t;
}

/// Waits (up to 10 s) until no regroup is in flight and no resident slot
/// has enough unfolded records to trigger a background checkpoint, so
/// back-to-back wire and in-process executions see one snapshot. An evicted
/// slot is never checkpointed until a query brings it back, so it is not
/// waited for.
void Quiesce(const onex::Engine& e) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    bool busy = false;
    for (const auto& info : e.registry().Describe()) {
      if (info.regrouping ||
          (info.tier == "resident" && info.wal_dirty >= kCheckpointEvery)) {
        busy = true;
      }
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// In-process execution of one request, as the wire would carry it.
WireResponse InProcess(onex::Engine* engine, const Request& req) {
  WireResponse out;
  auto cmd = onex::net::ParseCommandLine(req.text);
  if (!cmd.ok()) return out;
  cmd->payload = req.values;
  onex::net::Session session;
  onex::net::ExecContext ctx;
  ctx.out_values = &out.values;
  out.body = onex::net::ExecuteCommand(engine, &session, *cmd, ctx);
  return out;
}

/// Bit for bit, elapsed_ms and build_seconds scrubbed; only ok answers
/// count as the same.
bool SameAnswer(const WireResponse& a, const WireResponse& b) {
  return Ok(a) && Ok(b) && ScrubbedBody(a.body) == ScrubbedBody(b.body) &&
         a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

struct Check {
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  std::string first;
  void Add(bool same, const std::string& what) {
    ++compared;
    if (!same) {
      if (mismatched == 0) first = what;
      ++mismatched;
    }
  }
};

/// Per-op latency samples of one load run.
struct LoadStats {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t good = 0;
  std::vector<double> all_ms;
  std::vector<double> op_ms[kNumOps];
  std::vector<double> rtt_ms[kNumOps];  ///< Send to reply.
  std::vector<double> late_ms;
  std::vector<double> by_tier_ms[3];
  double seconds = 0.0;
};

LoadStats Summarize(const LoadPlan& plan, const LoadResult& res) {
  LoadStats s;
  s.seconds = res.seconds;
  s.attempted = res.unsent + res.transport_errors;
  for (const ConnLoad& conn : res.conns) {
    for (const Outcome& o : conn.outcomes) {
      const Op op = o.op;
      ++s.attempted;
      if (o.send_s >= 0.0) s.late_ms.push_back(1e3 * (o.send_s - o.due_s));
      if (o.recv_s < 0.0 || !o.ok) continue;
      ++s.ok;
      // Open loop: from the due time, so a stall also charges the requests
      // queued behind it. Closed loop: from the send.
      const double ms =
          1e3 * (o.recv_s - (plan.open_loop ? o.due_s : o.send_s));
      if (ms <= kInteractiveLimitMs) ++s.good;
      s.all_ms.push_back(ms);
      s.op_ms[static_cast<int>(op)].push_back(ms);
      s.rtt_ms[static_cast<int>(op)].push_back(1e3 * (o.recv_s - o.send_s));
      if (o.tier >= 0) s.by_tier_ms[o.tier].push_back(ms);
    }
  }
  return s;
}

void Put(Value* obj, const std::string& name, double value, const char* unit) {
  Value m = Value::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  obj->Set(name, std::move(m));
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Die("usage: servebench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    Die("unknown workload '" + args.workload +
        "' (dashboard, chatty, fleet-feed)");
  }
  // One generator thread per connection, no more than the host's cores; a
  // smaller host would otherwise offer less load than the workload names.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (w.plan.connections > nproc) {
    Die(w.name + " needs " + std::to_string(w.plan.connections) +
        " connections and this host has " + std::to_string(nproc) + " cores");
  }
  const std::string run_dir =
      (fs::path(args.work_dir) /
       (w.name + "-s" + std::to_string(args.seed) + "-" +
        std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) Die("cannot create " + run_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      fs::remove_all(dir, e);
    }
  } cleanup{run_dir};

  Value record = Value::MakeObject();
  Value extra = Value::MakeObject();  // figures outside the metric lists
  Metrics layer;
  Tracer tracer;

  // --- Set-up, several times. The extra ones run in a child process, so
  // the heap they free never fragments the process that serves the load
  // (that left tens of MB of unreturnable pages, different in every run).
  std::vector<double> setup_s = TimeSetupsInChild(w, run_dir, kSetupReps - 1);
  Live live;
  {
    std::string error;
    const auto t0 = Clock::now();
    if (!Setup(w, run_dir + "/data", &live, &error)) {
      Die("set-up failed: " + error);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  onex::Engine* engine = live.engine.get();
  BindEngine(&w, *engine);

  // Live-series images before any EXTEND, for the durability check.
  std::map<std::string, std::vector<std::vector<double>>> initial;
  for (const std::string& name : w.live) {
    auto snap = engine->Get(name);
    if (!snap.ok()) Die("missing live dataset " + name);
    for (const auto& ts : (*snap)->raw->series()) {
      initial[name].push_back(ts.values());
    }
  }
  const DurabilityTotals before = ReadDurability(w, *engine);

  // --- Load. Traced runs split the time: an untraced half for the
  // overhead baseline, then a traced half. ---------------------------------
  const double calib_before_ms = CalibrationMs();
  const std::uint16_t port = live.server->port();
  // A warm-up phase first, uncounted: caches fill, cold slots page in and
  // the tier settles before anything is timed.
  LoadResult warmup = RunLoad(w.plan, 0, port, kWarmupS, nullptr);
  // Freed heap the allocator still caches differs from run to run by tens
  // of MB (which thread's arena held what); hand it back so rss_mb is live
  // memory plus what the measured load allocates.
  ::malloc_trim(0);
  LoadResult untraced;
  LoadResult res;
  std::vector<double> rss_samples;
  // The server's CPU time during the scored load: the process's, less the
  // generator threads' own. It counts the server's own work, not the waits
  // that the host's other guests add to every latency.
  double server_cpu_s = 0.0;
  auto scored = [&](std::size_t phase, double seconds,
                    const onex::Engine* traced) {
    const double cpu0 = ProcessCpuSeconds();
    LoadResult r = RunLoad(w.plan, phase, port, seconds, traced);
    server_cpu_s = ProcessCpuSeconds() - cpu0 - r.generator_cpu_s;
    return r;
  };
  const CpuTimes cpu_before = ReadCpuTimes();
  if (args.trace == 1) {
    untraced = RunLoad(w.plan, 1, port, args.seconds / 2.0, nullptr);
    res = scored(2, args.seconds / 2.0, engine);
  } else {
    RssSampler rss;
    res = scored(1, args.seconds, nullptr);
    rss_samples = rss.samples();
  }
  const double peak_rss_mb = PeakRssMb();
  const CpuTimes cpu_after = ReadCpuTimes();
  const double steal_frac =
      cpu_after.total > cpu_before.total
          ? (cpu_after.steal - cpu_before.steal) /
                (cpu_after.total - cpu_before.total)
          : 0.0;
  const double calib_after_ms = CalibrationMs();
  const LoadStats st = Summarize(w.plan, res);
  const double late_p99 = Percentile(st.late_ms, 0.99);
  const double server_cpu_us_per_req =
      1e6 * server_cpu_s / static_cast<double>(std::max<std::size_t>(st.ok, 1));

  auto client = ConnectBinary(port);
  if (!client.ok()) Die("connect failed: " + client.status().ToString());
  const WireResponse server_metrics = Call(&*client, "METRICS");
  const double server_match_p50 =
      server_metrics.body["verbs"]["MATCH"]["p50_ms"].as_number();
  const double server_match_p99 =
      server_metrics.body["verbs"]["MATCH"]["p99_ms"].as_number();
  Quiesce(*engine);
  const DurabilityTotals after = ReadDurability(w, *engine);

  // --- Answer check 1: sampled load replies of read-only workloads, whose
  // snapshot never changed, against in-process execution. -----------------
  Check answers;
  if (w.live.empty()) {
    for (const ConnLoad& conn : res.conns) {
      for (const Kept& k : conn.kept) {
        if (!k.request.sample || conn.outcomes[k.index].recv_s < 0.0) continue;
        WireResponse wire;
        auto body = onex::json::Parse(k.body);
        if (body.ok()) wire.body = std::move(*body);
        wire.values = k.values;
        answers.Add(SameAnswer(wire, InProcess(engine, k.request)),
                    k.request.text);
      }
    }
  }
  // From here on the state must hold still. Lift the LRU budget and bring
  // every slot back: a transparent rebuild is journaled, and a checkpoint
  // that the records trigger swaps the live base for the checkpoint's
  // canonical image, which can answer differently in the last ulp. With
  // every slot prepared and quiesced, nothing below writes the journal.
  engine->registry().SetPreparedBudget(0);
  for (const std::string& name : w.datasets) {
    (void)engine->registry().GetPrepared(name);
  }
  // Fold the journal of every resident slot no feed writes into a
  // checkpoint arena, so check 3 can demote it. The slot adopts the arena's
  // canonical image here, before check 2 records its answers.
  auto is_live = [&](const std::string& name) {
    return std::find(w.live.begin(), w.live.end(), name) != w.live.end();
  };
  Check mapped;
  for (const std::string& name : w.datasets) {
    const auto tier = engine->registry().Tier(name);
    if (is_live(name) || !tier.ok() || *tier != "resident") continue;
    const auto ckpt = engine->registry().Checkpoint(name);
    mapped.Add(ckpt.ok(), "checkpoint " + name + ": " + ckpt.status().ToString());
  }
  Quiesce(*engine);

  // --- Answer check 2: probe requests on the quiesced state, each over
  // the wire and in-process back to back. ----------------------------------
  std::vector<WireResponse> quiesced;
  for (std::size_t i = 0; i < kQuiescedChecks; ++i) {
    const Request req = w.probe(i);
    quiesced.push_back(Call(&*client, req.text, req.values));
    answers.Add(SameAnswer(quiesced.back(), InProcess(engine, req)), req.text);
  }

  // --- Traced layer probes on the quiesced live engine. --------------------
  if (args.trace == 1) {
    ProbeReadLayers(w, engine, 96, &tracer, &layer);
    ProbePrepare(w, engine, &tracer, &layer);
    // Client-side request spans of the traced half.
    auto at = [&](double s) {
      return res.start +
             std::chrono::nanoseconds(static_cast<long long>(s * 1e9));
    };
    for (std::size_t c = 0; c < res.conns.size(); ++c) {
      const auto& outcomes = res.conns[c].outcomes;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& o = outcomes[i];
        if (o.recv_s < 0.0) continue;
        tracer.Add(std::string("client.") + OpName(o.op), at(o.send_s),
                   at(o.recv_s), (c << 32) | i);
      }
    }
    std::size_t regroups = 0;
    for (const std::string& name : w.datasets) {
      auto m = engine->registry().Maintenance(name);
      if (m.ok()) regroups += m->regroups_completed;
    }
    layer["registry.regroups"] = static_cast<double>(regroups);
    const double n_tier = static_cast<double>(st.by_tier_ms[0].size() +
                                              st.by_tier_ms[1].size() +
                                              st.by_tier_ms[2].size());
    const char* tiers[3] = {"resident", "mapped", "evicted"};
    for (int t = 0; t < 3; ++t) {
      layer[std::string("registry.tier_") + tiers[t] + "_frac"] =
          n_tier > 0 ? static_cast<double>(st.by_tier_ms[t].size()) / n_tier
                     : 0.0;
      layer[std::string("registry.match_ms.") + tiers[t]] =
          Percentile(st.by_tier_ms[t], 0.5);
    }
    layer["wal.records"] = after.records - before.records;
    layer["wal.checkpoints"] = after.checkpoints - before.checkpoints;
    const double match_rtt_p50 =
        Percentile(st.rtt_ms[static_cast<int>(Op::kMatch)], 0.5);
    layer["reactor.server_ms"] = server_match_p50;
    layer["reactor.self_ms"] = server_match_p50 - layer["protocol.exec_match_ms"];
    layer["net.wire_ms"] = match_rtt_p50 - server_match_p50;
    layer["loadgen.late_p99_ms"] = late_p99;
    const double base_p50 =
        Percentile(Summarize(w.plan, untraced).op_ms[0], 0.5);
    layer["trace.overhead_frac"] =
        base_p50 > 0.0 ? Percentile(st.op_ms[0], 0.5) / base_p50 - 1.0 : 0.0;
  }

  // --- Answer check 3: the mapped tier. Every slot no feed writes is
  // clean and checkpointed, so it can be demoted to its mmap'd arena;
  // reading a mapped slot writes no journal record. The check-2 probes on
  // those slots go over the wire again and must equal both the in-process
  // answer and the check-2 answer served before the demotion. -------------
  for (const std::string& name : w.datasets) {
    if (is_live(name)) continue;
    const onex::Status demoted = engine->registry().Demote(name);
    mapped.Add(demoted.ok(), "demote " + name + ": " + demoted.ToString());
  }
  for (std::size_t i = 0; i < kQuiescedChecks; ++i) {
    const Request req = w.probe(i);
    if (is_live(req.dataset)) continue;
    const WireResponse wire = Call(&*client, req.text, req.values);
    mapped.Add(SameAnswer(wire, InProcess(engine, req)) &&
                   SameAnswer(wire, quiesced[i]),
               "mapped: " + req.text);
  }
  for (const std::string& name : w.datasets) {
    if (is_live(name)) continue;
    const auto tier = engine->registry().Tier(name);
    mapped.Add(tier.ok() && *tier == "mapped", "still mapped: " + name);
  }

  // Answers before the stop, for comparison after recovery; the slots
  // check 3 demoted answer from their mapped arenas here.
  std::vector<WireResponse> pre_stop;
  for (std::size_t i = 0; i < kRecoveryChecks; ++i) {
    pre_stop.push_back(InProcess(engine, w.probe(kRecoveryProbeBase + i)));
  }

  // --- Stop, measure the data dir, recover a fresh engine. -----------------
  const std::string data_dir = live.data_dir;
  client->Close();
  live.Stop();
  engine = nullptr;
  const double dir_bytes = static_cast<double>(DirBytes(data_dir));

  onex::DurabilityOptions dopt;
  dopt.dir = data_dir;
  dopt.checkpoint_every = kCheckpointEvery;
  dopt.fsync = kFsync;
  // A restart as the server does it, mapped tier on, timed.
  double recover_ms = 0.0;
  {
    onex::Engine restarted;
    const auto r0 = Clock::now();
    const onex::Status rs = restarted.EnableDurability(dopt);
    recover_ms = 1e3 * SecondsBetween(r0, Clock::now());
    if (!rs.ok()) Die("recovery failed: " + rs.ToString());
  }
  layer["engine.recover_ms"] = recover_ms;
  // The engine the checks read recovers with the mapped tier off, so every
  // slot comes back resident: the slots that answered mapped before the
  // stop now answer from a materialized base.
  onex::DatasetRegistryOptions resident_only;
  resident_only.mapped_tier = false;
  onex::Engine recovered(resident_only);
  {
    const onex::Status rs = recovered.EnableDurability(dopt);
    if (!rs.ok()) Die("recovery failed: " + rs.ToString());
  }

  // --- Durability check: every acknowledged EXTEND point is present, in
  // order, after the recovered series' pre-load prefix. --------------------
  Check durable;
  double user_bytes = 0.0;
  for (const std::string& name : w.datasets) {
    auto snap = recovered.Get(name);
    if (!snap.ok()) {
      durable.Add(false, "missing after recovery: " + name);
      continue;
    }
    for (const auto& ts : (*snap)->raw->series()) {
      user_bytes += 8.0 * static_cast<double>(ts.length());
    }
  }
  for (const auto& [name, series] : initial) {
    auto snap = recovered.Get(name);
    if (!snap.ok()) continue;
    for (std::size_t s = 0; s < series.size(); ++s) {
      std::vector<double> expect = series[s];
      bool uncertain = false;  // an unanswered EXTEND may or may not apply
      for (const LoadResult* run : {&warmup, &untraced, &res}) {
        for (const ConnLoad& conn : run->conns) {
          for (const Kept& k : conn.kept) {
            const Request& req = k.request;
            if (req.op != Op::kExtend || req.dataset != name || req.series != s) {
              continue;
            }
            const Outcome& o = conn.outcomes[k.index];
            if (o.recv_s >= 0.0 && o.ok) {
              expect.insert(expect.end(), req.values.begin(), req.values.end());
            } else if (o.recv_s < 0.0) {
              uncertain = true;
            }
          }
        }
      }
      const auto& got = (*snap)->raw->series()[s].values();
      bool same = got.size() == expect.size() &&
                  std::memcmp(got.data(), expect.data(),
                              got.size() * sizeof(double)) == 0;
      if (uncertain && !same) {
        // Every acknowledged point must still appear, in order.
        std::size_t j = 0;
        for (double x : got) {
          if (j < expect.size() && x == expect[j]) ++j;
        }
        same = j == expect.size();
      }
      durable.Add(same, name + " series " + std::to_string(s));
    }
  }
  for (std::size_t i = 0; i < kRecoveryChecks; ++i) {
    const Request req = w.probe(kRecoveryProbeBase + i);
    durable.Add(SameAnswer(pre_stop[i], InProcess(&recovered, req)),
                "after recovery: " + req.text);
  }

  if (args.trace == 1) {
    ProbeWriteLayers(w, &recovered, data_dir, &tracer, &layer);
  }

  // --- Result. -------------------------------------------------------------
  const bool correct = answers.mismatched == 0 && mapped.mismatched == 0 &&
                       durable.mismatched == 0;
  // Traced runs count both halves of the load.
  const LoadStats untraced_st = Summarize(w.plan, untraced);
  const std::size_t attempted = st.attempted + untraced_st.attempted;
  const std::size_t failed = attempted - st.ok - untraced_st.ok;
  const bool latency_valid = !w.plan.open_loop || late_p99 <= kLateLimitMs;

  Value metrics = Value::MakeObject();
  if (args.trace == 0) {
    Put(&metrics, "setup_s", Percentile(setup_s, 0.5), "s");
    Put(&metrics, "server_cpu_us_per_req", server_cpu_us_per_req, "us");
    Put(&metrics, "rss_mb", Percentile(rss_samples, 0.5), "MB");
    Put(&metrics, "stored_bytes_per_user_byte", dir_bytes / user_bytes,
        "ratio");
  } else {
    static const char* const kUnits[][2] = {
        {"distance.dtw_evals_per_query", "count"},
        {"distance.prune_frac", "fraction"},
        {"distance.dtw_us", "us"},
        {"core.match_ms", "ms"},
        {"core.knn_ms", "ms"},
        {"core.groups_pruned_frac", "fraction"},
        {"core.members_refined_per_query", "count"},
        {"engine.match_self_ms", "ms"},
        {"engine.prepare_ms", "ms"},
        {"engine.extend_p50_ms", "ms"},
        {"engine.extend_p90_ms", "ms"},
        {"engine.recover_ms", "ms"},
        {"task_pool.batch_speedup", "x"},
        {"registry.regroups", "count"},
        {"registry.tier_resident_frac", "fraction"},
        {"registry.tier_mapped_frac", "fraction"},
        {"registry.tier_evicted_frac", "fraction"},
        {"registry.match_ms.resident", "ms"},
        {"registry.match_ms.mapped", "ms"},
        {"registry.match_ms.evicted", "ms"},
        {"wal.checkpoint_ms", "ms"},
        {"wal.checkpoints", "count"},
        {"wal.records", "count"},
        {"wal.bytes_per_record", "bytes"},
        {"protocol.parse_us", "us"},
        {"protocol.exec_self_us", "us"},
        {"protocol.format_us", "us"},
        {"protocol.response_bytes", "bytes"},
        {"frame.encode_us", "us"},
        {"frame.decode_us", "us"},
        {"reactor.server_ms", "ms"},
        {"reactor.self_ms", "ms"},
        {"net.wire_ms", "ms"},
        {"loadgen.late_p99_ms", "ms"},
        {"trace.overhead_frac", "fraction"},
    };
    for (const auto& [name, unit] : kUnits) {
      const auto it = layer.find(name);
      if (it == layer.end()) Die(std::string("layer metric not measured: ") + name);
      Put(&metrics, name, it->second, unit);
    }
  }

  // Figures beside the metric lists: per-op percentiles of ops not every
  // workload sends, sample counts, and the check tallies.
  for (int op = 0; op < kNumOps; ++op) {
    const auto& xs = st.op_ms[op];
    if (xs.empty()) continue;
    const std::string n = OpName(static_cast<Op>(op));
    Put(&extra, n + "_p50_ms", Percentile(xs, 0.5), "ms");
    Put(&extra, n + "_p90_ms", Percentile(xs, 0.9), "ms");
    // A p99 needs at least ten samples beyond it.
    if (xs.size() >= 1000) Put(&extra, n + "_p99_ms", Percentile(xs, 0.99), "ms");
    Put(&extra, n + "_samples", static_cast<double>(xs.size()), "count");
  }
  Put(&extra, "req_p50_ms", Percentile(st.all_ms, 0.5), "ms");
  Put(&extra, "req_p90_ms", Percentile(st.all_ms, 0.9), "ms");
  Put(&extra, "req_p99_ms", Percentile(st.all_ms, 0.99), "ms");
  Put(&extra, "server_cpu_us_per_req", server_cpu_us_per_req, "us");
  Put(&extra, "throughput_rps", static_cast<double>(st.ok) / st.seconds,
      "1/s");
  Put(&extra, "goodput_rps", static_cast<double>(st.good) / st.seconds, "1/s");
  Put(&extra, "peak_rss_mb", peak_rss_mb, "MB");
  Put(&extra, "loadgen.late_p99_ms", late_p99, "ms");
  Put(&extra, "reactor.server_match_p50_ms", server_match_p50, "ms");
  Put(&extra, "reactor.server_match_p99_ms", server_match_p99, "ms");
  Put(&extra, "engine.recover_ms", recover_ms, "ms");
  Put(&extra, "data_dir_bytes", dir_bytes, "bytes");
  Put(&extra, "host.calib_before_ms", calib_before_ms, "ms");
  Put(&extra, "host.calib_after_ms", calib_after_ms, "ms");
  Put(&extra, "host.steal_frac", steal_frac, "fraction");
  Put(&extra, "user_bytes", user_bytes, "bytes");

  Value setups = Value::MakeArray();
  for (double s : setup_s) setups.Append(Value(s));
  Value provenance = Value::MakeObject();
  provenance.Set("nproc", static_cast<double>(nproc));
  provenance.Set("build_type", SERVEBENCH_BUILD_TYPE);
  provenance.Set("kernel", onex::ActiveKernel().name);
  provenance.Set("git_rev", args.git_rev);
  provenance.Set("src_digest", args.src_digest);
  provenance.Set("fsync", kFsync);
  provenance.Set("checkpoint_every", static_cast<double>(kCheckpointEvery));
  provenance.Set("loop", w.plan.open_loop ? "open" : "closed");
  provenance.Set("offered_rps", w.plan.offered_rps);
  provenance.Set("window", static_cast<double>(w.plan.window));
  provenance.Set("connections", static_cast<double>(res.conns.size()));
  provenance.Set("budget_bytes", static_cast<double>(live.budget));

  record.Set("workload", w.name);
  record.Set("seed", static_cast<double>(args.seed));
  record.Set("seconds", static_cast<double>(args.seconds));
  record.Set("trace", args.trace);
  record.Set("latency_valid", latency_valid);
  record.Set("provenance", std::move(provenance));
  record.Set("setup_s", std::move(setups));
  record.Set("answers_compared", static_cast<double>(answers.compared));
  record.Set("answers_mismatched", static_cast<double>(answers.mismatched));
  if (answers.mismatched > 0) record.Set("first_answer_mismatch", answers.first);
  record.Set("mapped_checked", static_cast<double>(mapped.compared));
  record.Set("mapped_mismatched", static_cast<double>(mapped.mismatched));
  if (mapped.mismatched > 0) record.Set("first_mapped_mismatch", mapped.first);
  record.Set("durability_checked", static_cast<double>(durable.compared));
  record.Set("durability_mismatched", static_cast<double>(durable.mismatched));
  if (durable.mismatched > 0) record.Set("first_durability_mismatch", durable.first);
  record.Set("transport_errors", static_cast<double>(res.transport_errors));
  record.Set("figures", std::move(extra));
  record.Set("metrics", metrics);

  const std::string tag = w.name + "-s" + std::to_string(args.seed) + "-t" +
                          std::to_string(args.trace);
  fs::create_directories(fs::path(args.work_dir) / "records", ec);
  std::ofstream(fs::path(args.work_dir) / "records" / (tag + ".json"))
      << record.Dump() << "\n";
  if (args.trace == 1) {
    fs::create_directories(fs::path(args.work_dir) / "trace", ec);
    tracer.Write((fs::path(args.work_dir) / "trace" / (tag + ".jsonl")).string());
  }
  std::printf("record %s\n", record.Dump().c_str());

  if (!latency_valid) {
    std::fprintf(stderr,
                 "servebench: latency figures invalid: generator p99 lateness "
                 "%s ms > %s ms\n",
                 Fmt(late_p99).c_str(), Fmt(kLateLimitMs).c_str());
  }
  Value result = Value::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", static_cast<double>(attempted));
  result.Set("failed", static_cast<double>(failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "servebench: answer check failed: [%s] [%s] [%s]\n",
                 answers.first.c_str(), mapped.first.c_str(),
                 durable.first.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }

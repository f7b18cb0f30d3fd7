// Load generation over ONEXB binary connections. OnexClient has no
// scheduled-send API, so the generator encodes frames with net/frame.h
// itself, keeps its own outbox, and matches replies back by request id.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "onex/net/frame.h"
#include "onex/net/socket.h"

namespace servebench {
namespace {

/// Unanswered requests get this long after the run ends before they count
/// as failed.
constexpr double kDrainGraceS = 10.0;
/// An open-loop connection stops sending (and falls behind schedule, which
/// the lateness metric then shows) once this many requests are unanswered:
/// the server stops reading a connection at its own pipeline cap (128).
constexpr std::size_t kOpenInflightCap = 128;

std::atomic<std::size_t> g_outcomes{0};

/// Connects to 127.0.0.1:`port`, upgrades to ONEXB with BIN and returns the
/// blocking fd, or -1.
int OpenBinary(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  onex::net::SetTcpNoDelay(fd);
  if (!onex::net::WriteAll(fd, "BIN\n").ok()) {
    ::close(fd);
    return -1;
  }
  // The acknowledgement is the connection's last text line.
  std::string ack;
  char c = 0;
  while (ack.size() < 4096) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) break;
    if (c == '\n') break;
    ack.push_back(c);
  }
  if (ack.find("\"ok\":true") == std::string::npos) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int TierIndex(const onex::Result<std::string>& tier) {
  if (!tier.ok()) return -1;
  if (*tier == "resident") return 0;
  if (*tier == "mapped") return 1;
  if (*tier == "evicted") return 2;
  return -1;
}

struct ConnRun {
  ConnLoad load;
  bool transport_error = false;
  std::size_t unsent = 0;
  double cpu_s = 0.0;
};

/// Open loop: how many of the connection's requests from `from` on are due
/// inside the run.
std::size_t DueFrom(const LoadPlan& plan, std::size_t conn, std::size_t phase,
                    std::size_t from, double seconds) {
  std::size_t n = 0;
  while (plan.next(conn, from + n, phase).due_s < seconds) ++n;
  return n;
}

/// One connection's generator: sends what is due (open loop) or keeps the
/// window full (closed loop), reads replies as they arrive, and stops once
/// everything sent is answered or the drain grace has passed. A connection
/// that fails to open sends nothing; its open-loop schedule counts as unsent.
void Drive(const LoadPlan& plan, std::size_t conn, std::size_t phase,
           std::uint16_t port, Clock::time_point t0, double seconds,
           const onex::Engine* engine, ConnRun* run) {
  const int fd = OpenBinary(port);
  if (fd < 0 || !onex::net::SetNonBlocking(fd).ok()) {
    run->transport_error = true;
    if (fd >= 0) ::close(fd);
    if (plan.open_loop) run->unsent = DueFrom(plan, conn, phase, 0, seconds);
    return;
  }
  auto now_s = [&] { return SecondsBetween(t0, Clock::now()); };
  while (now_s() < 0.0) std::this_thread::sleep_until(t0);

  const std::size_t cap = plan.open_loop ? kOpenInflightCap : plan.window;
  std::string outbuf;
  std::size_t out_off = 0;
  std::string inbuf;
  std::size_t in_off = 0;
  std::size_t inflight = 0;
  std::size_t next_index = 0;
  bool exhausted = false;
  bool have_pending = false;
  Request pending;
  std::vector<char> chunk(1 << 16);

  std::vector<Outcome>& outcomes = run->load.outcomes;
  std::vector<Kept>& kept = run->load.kept;
  auto send_request = [&](Request r, double due) {
    Outcome o;
    o.due_s = due;
    o.op = r.op;
    if (engine != nullptr && r.op == Op::kMatch) {
      o.tier = static_cast<std::int8_t>(
          TierIndex(engine->registry().Tier(r.dataset)));
    }
    onex::net::Frame frame;
    frame.type = onex::net::FrameType::kRequest;
    frame.request_id = outcomes.size() + 1;
    frame.text = r.text;
    frame.values = r.values;
    outbuf += onex::net::EncodeFrame(frame);
    o.send_s = now_s();
    if (r.sample || r.op == Op::kExtend) {
      Kept k;
      k.index = outcomes.size();
      k.request = std::move(r);
      kept.push_back(std::move(k));
    }
    outcomes.push_back(o);
    g_outcomes.fetch_add(1, std::memory_order_relaxed);
    ++inflight;
  };

  while (!run->transport_error) {
    double now = now_s();
    if (plan.open_loop) {
      while (!exhausted) {
        if (!have_pending) {
          pending = plan.next(conn, next_index, phase);
          if (pending.due_s >= seconds) {
            exhausted = true;
            break;
          }
          have_pending = true;
        }
        if (pending.due_s > now || inflight >= cap) break;
        const double due = pending.due_s;
        send_request(std::move(pending), due);
        have_pending = false;
        ++next_index;
      }
    } else if (now < seconds) {
      while (inflight < cap) send_request(plan.next(conn, next_index++, phase), now);
    } else {
      exhausted = true;
    }

    while (out_off < outbuf.size()) {
      const ssize_t n = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        run->transport_error = true;
        break;
      }
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }
    if (exhausted && inflight == 0 && outbuf.empty()) break;
    now = now_s();
    if (now >= seconds + kDrainGraceS) break;

    // Sleep until the next send is due, a reply arrives, or the run ends.
    double wake = seconds + kDrainGraceS;
    if (plan.open_loop && have_pending && inflight < cap) {
      wake = pending.due_s;
    } else if (!plan.open_loop && !exhausted) {
      wake = seconds;
    }
    const double wait = std::max(0.0, wake - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    pollfd pfd{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)),
               0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      run->transport_error = true;
      break;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      if (pfd.revents & (POLLERR | POLLHUP)) run->transport_error = true;
      continue;
    }

    for (;;) {
      const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (n > 0) {
        inbuf.append(chunk.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        run->transport_error = true;
      }
      break;
    }
    const double recv_at = now_s();
    for (;;) {
      auto decoded = onex::net::DecodeFrame(
          std::string_view(inbuf).substr(in_off),
          onex::net::ResponseFrameLimits());
      if (decoded.state == onex::net::FrameDecodeState::kNeedMore) break;
      if (decoded.state == onex::net::FrameDecodeState::kError) {
        run->transport_error = true;
        break;
      }
      in_off += decoded.consumed;
      const std::uint64_t id = decoded.frame.request_id;
      if (id == 0 || id > outcomes.size() || outcomes[id - 1].recv_s >= 0.0) {
        run->transport_error = true;
        break;
      }
      Outcome& o = outcomes[id - 1];
      o.recv_s = recv_at;
      o.ok = (decoded.frame.flags & onex::net::kFrameFlagError) == 0;
      const auto k = std::lower_bound(
          kept.begin(), kept.end(), id - 1,
          [](const Kept& a, std::size_t index) { return a.index < index; });
      if (k != kept.end() && k->index == id - 1) {
        k->body = std::move(decoded.frame.text);
        k->values = std::move(decoded.frame.values);
      }
      --inflight;
    }
    if (in_off > (1u << 20) || in_off == inbuf.size()) {
      inbuf.erase(0, in_off);
      in_off = 0;
    }
  }
  ::close(fd);
  if (plan.open_loop && !exhausted) {
    run->unsent = DueFrom(plan, conn, phase, next_index, seconds);
  }
}

}  // namespace

LoadResult RunLoad(const LoadPlan& plan, std::size_t phase,
                   std::uint16_t port, double seconds,
                   const onex::Engine* engine) {
  const std::size_t conns = plan.connections;
  std::vector<ConnRun> runs(conns);
  // Every connection shares one time origin a little in the future, so the
  // schedules start together once all sockets are open.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(100);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Drive(plan, c, phase, port, t0, seconds, engine, &runs[c]);
      runs[c].cpu_s = ThreadCpuSeconds();
    });
  }
  for (auto& t : threads) t.join();
  LoadResult result;
  result.start = t0;
  result.seconds = seconds;
  for (auto& r : runs) {
    if (r.transport_error) ++result.transport_errors;
    result.unsent += r.unsent;
    result.generator_cpu_s += r.cpu_s;
    result.conns.push_back(std::move(r.load));
  }
  return result;
}

namespace {
void Scrub(onex::json::Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    v->mutable_object().erase("build_seconds");
    for (auto& entry : v->mutable_object()) Scrub(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) Scrub(&entry);
  }
}

double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

std::size_t OutcomeBytes() {
  return g_outcomes.load(std::memory_order_relaxed) * sizeof(Outcome);
}

std::string ScrubbedBody(onex::json::Value body) {
  Scrub(&body);
  return body.Dump();
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

std::int64_t Tracer::Begin(const std::string& name, std::uint64_t request,
                           std::int64_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_us = Us(Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::End(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_us = Us(Clock::now());
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t request,
                 std::int64_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_us = Us(start);
  s.end_us = Us(end);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.us());
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\",\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.start_us,
                  s.end_us);
    f << "{\"name\":\"" << s.name << buf;
  }
  return static_cast<bool>(f);
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace servebench

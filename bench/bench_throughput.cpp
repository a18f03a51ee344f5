// A6 — RPC throughput on the multiplexed bus.
//
// The paper's Tables 1/2 time one call at a time; this bench measures how
// many calls per second one client core pushes through the transport, and
// what pipelining buys: the bus carries many sequence-tagged in-flight
// calls on one persistent connection, so a window of pipelined calls
// amortizes syscalls and wire round trips that a lock-step caller pays
// per call. Rows cover a small scalar signature and an array-heavy one,
// over real loopback TCP (lock-step vs pipelined window) and over the
// simulated transport (lock-step vs overlapped clients). A null-call
// ping-pong over a plain blocking TcpConnection pair is the raw-socket
// floor the bus's lock-step row is measured against. Writes
// BENCH_throughput.json next to the binary.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/percentile.hpp"
#include "bench/testbed.hpp"
#include "rpc/tcp_transport.hpp"
#include "util/clock.hpp"

namespace npss {
namespace {

using uts::Value;

constexpr std::size_t kWindow = 256;  ///< pipelined in-flight call budget

const char* kSmallSpec =
    "export inc prog(\"x\" val integer, \"y\" res integer)";
const char* kSmallImport =
    "import inc prog(\"x\" val integer, \"y\" res integer)";
const char* kArraySpec =
    "export sum prog(\"a\" val array[512] of double, \"s\" res double)";
const char* kArrayImport =
    "import sum prog(\"a\" val array[512] of double, \"s\" res double)";

std::vector<rpc::ProcedureDef> tcp_procs() {
  return {{"inc",
           [](rpc::ProcCall& c) {
             c.set("y", Value::integer(c.integer("x") + 1));
           }},
          {"sum", [](rpc::ProcCall& c) {
             const std::vector<double> a = c.reals("a");
             double s = 0.0;
             for (double v : a) s += v;
             c.set_real("s", s);
           }}};
}

struct Row {
  std::string signature;  ///< "small" | "array512"
  std::string transport;  ///< "tcp" | "sim"
  std::string mode;       ///< "lockstep" | "pipelined" | "overlapped"
  long calls = 0;
  double calls_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Row make_row(const std::string& signature, const std::string& transport,
             const std::string& mode, std::vector<double>& latencies,
             double wall_ms) {
  std::sort(latencies.begin(), latencies.end());
  Row row;
  row.signature = signature;
  row.transport = transport;
  row.mode = mode;
  row.calls = static_cast<long>(latencies.size());
  row.calls_per_sec = row.calls / (wall_ms / 1000.0);
  row.p50_us = bench::percentile(latencies, 0.50);
  row.p99_us = bench::percentile(latencies, 0.99);
  return row;
}

void print_row(const Row& row) {
  std::printf("%10s %6s %11s %10ld %14.0f %10.1f %10.1f\n",
              row.signature.c_str(), row.transport.c_str(), row.mode.c_str(),
              row.calls, row.calls_per_sec, row.p50_us, row.p99_us);
}

uts::ValueList small_args(long i) {
  return {Value::integer(i), Value::integer(0)};
}

uts::ValueList array_args() {
  std::vector<double> a(512);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  return {Value::real_array(a), Value::real(0)};
}

/// One legacy (lock-step) call per turn: issue, wait, repeat.
Row tcp_lockstep(rpc::TcpRemoteProc& proc, const std::string& signature,
                 long calls, bool small) {
  using clock_type = std::chrono::steady_clock;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(calls));
  const uts::ValueList array = array_args();
  rpc::CallOptions once = rpc::CallOptions::legacy();
  once.max_attempts = 1;  // the historical single-attempt contract
  util::Stopwatch wall;
  for (long i = 0; i < calls; ++i) {
    const auto t0 = clock_type::now();
    proc.call(small ? small_args(i) : array, once).values_or_raise();
    latencies.push_back(
        std::chrono::duration<double, std::micro>(clock_type::now() - t0)
            .count());
  }
  return make_row(signature, "tcp", "lockstep", latencies, wall.elapsed_ms());
}

/// Blocking, length-prefixed Message stream over a connected socket: the
/// raw-socket floor's one-frame-at-a-time transport.
class TcpConnection {
 public:
  /// Adopt an already-connected socket descriptor.
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() { close(); }
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connect to host:port. Throws util::CallError on failure.
  static std::unique_ptr<TcpConnection> connect(const std::string& host,
                                                int port) {
    return std::make_unique<TcpConnection>(
        rpc::bus::tcp_connect_fd(host, port));
  }

  void send(const rpc::Message& msg) {
    const util::Bytes frame = rpc::encode_message(msg);
    std::uint8_t prefix[4];
    const auto len = static_cast<std::uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
    }
    write_all(prefix, 4);
    write_all(frame.data(), frame.size());
  }

  /// Blocking receive; returns false on orderly peer close.
  bool receive(rpc::Message& msg) {
    std::uint8_t prefix[4];
    if (!read_all(prefix, 4)) return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len = (len << 8) | prefix[i];
    if (len > (64u << 20)) {
      throw util::EncodingError("tcp frame length " + std::to_string(len) +
                                " exceeds the 64 MiB sanity cap");
    }
    util::Bytes frame(len);
    if (!read_all(frame.data(), len)) return false;
    msg = rpc::decode_message(frame);
    return true;
  }

  void close() {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  void write_all(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw util::CallError("tcp send failed");
      }
    }
  }

  bool read_all(std::uint8_t* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, data + got, size - got, 0);
      if (n == 0) return false;  // orderly close
      if (n < 0) {
        if (errno == EINTR) continue;
        throw util::CallError("tcp recv failed");
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

/// The floor under the bus's lock-step rows: a null call (ping, pong)
/// over a plain blocking TcpConnection pair. One thread per end, no
/// dispatcher, no worker pool, no marshal plan.
Row tcp_raw_floor(long calls) {
  using clock_type = std::chrono::steady_clock;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listen_fd, 1) != 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    std::fprintf(stderr, "raw floor: loopback listen failed\n");
    std::exit(1);
  }
  std::thread echo([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    TcpConnection server(fd);
    rpc::Message msg;
    while (server.receive(msg)) {
      msg.kind = rpc::MessageKind::kPong;
      server.send(msg);
    }
  });
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(calls));
  auto client =
      TcpConnection::connect("127.0.0.1", ntohs(addr.sin_port));
  rpc::Message ping, pong;
  ping.kind = rpc::MessageKind::kPing;
  util::Stopwatch wall;
  for (long i = 0; i < calls; ++i) {
    ping.seq = static_cast<std::uint64_t>(i);
    const auto t0 = clock_type::now();
    client->send(ping);
    if (!client->receive(pong) || pong.seq != ping.seq) {
      std::fprintf(stderr, "raw floor: bad pong\n");
      std::exit(1);
    }
    latencies.push_back(
        std::chrono::duration<double, std::micro>(clock_type::now() - t0)
            .count());
  }
  const double wall_ms = wall.elapsed_ms();
  client->close();  // the echo thread sees the close and returns
  echo.join();
  ::close(listen_fd);
  return make_row("null", "raw", "lockstep", latencies, wall_ms);
}

/// Sliding window of kWindow pipelined calls: the oldest call is reaped
/// as each new one is issued, so the connection always carries a full
/// window of in-flight seqs.
Row tcp_pipelined(rpc::TcpRemoteProc& proc, const std::string& signature,
                  long calls, bool small) {
  using clock_type = std::chrono::steady_clock;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(calls));
  const uts::ValueList array = array_args();
  std::deque<std::pair<rpc::PendingTcpCall, clock_type::time_point>> window;
  auto reap = [&](std::pair<rpc::PendingTcpCall, clock_type::time_point>& w) {
    rpc::CallResult& result = w.first.get();
    if (!result.ok()) {
      std::fprintf(stderr, "pipelined call failed: %s\n",
                   result.status.to_string().c_str());
      std::exit(1);
    }
    latencies.push_back(
        std::chrono::duration<double, std::micro>(clock_type::now() - w.second)
            .count());
  };
  util::Stopwatch wall;
  for (long i = 0; i < calls; ++i) {
    if (window.size() >= kWindow) {
      reap(window.front());
      window.pop_front();
    }
    window.emplace_back(proc.call_async(small ? small_args(i) : array),
                        clock_type::now());
  }
  while (!window.empty()) {
    reap(window.front());
    window.pop_front();
  }
  return make_row(signature, "tcp", "pipelined", latencies, wall.elapsed_ms());
}

int run() {
  bench::print_header(
      "A6 — RPC throughput: multiplexed bus, pipelined vs lock-step");
  std::printf("%10s %6s %11s %10s %14s %10s %10s\n", "signature", "wire",
              "mode", "calls", "calls/sec", "p50 us", "p99 us");
  bench::print_rule();

  std::vector<Row> rows;

  // --- Real loopback TCP over the bus --------------------------------------
  {
    rpc::TcpProcedureHost host(std::string(kSmallSpec) + "\n" + kArraySpec,
                               tcp_procs(), "sun-sparc10");
    rpc::TcpRemoteProc inc("127.0.0.1", host.port(), "inc", kSmallImport,
                           "sun-sparc10");
    rpc::TcpRemoteProc sum("127.0.0.1", host.port(), "sum", kArrayImport,
                           "sun-sparc10");
    // Warm both signature caches (host prepared imports, client plans).
    rpc::CallOptions once = rpc::CallOptions::legacy();
    once.max_attempts = 1;
    inc.call(small_args(0), once).values_or_raise();
    sum.call(array_args(), once).values_or_raise();

    rows.push_back(tcp_raw_floor(10'000));
    print_row(rows.back());
    rows.push_back(tcp_lockstep(inc, "small", 10'000, true));
    print_row(rows.back());
    rows.push_back(tcp_pipelined(inc, "small", 100'000, true));
    print_row(rows.back());
    rows.push_back(tcp_lockstep(sum, "array512", 2'000, false));
    print_row(rows.back());
    rows.push_back(tcp_pipelined(sum, "array512", 20'000, false));
    print_row(rows.back());
  }

  // --- Simulated transport (virtual cluster) -------------------------------
  // The sim endpoint serves one call per turn, so "overlapped" means
  // independent clients (own lines) in flight together — the flow
  // executive's concurrency model — rather than seq pipelining.
  {
    sim::Cluster cluster;
    cluster.add_machine("avs", "sun-sparc10", "a");
    cluster.add_machine("m0", "ibm-rs6000", "a");
    cluster.install_image(
        "m0", "/bin/inc",
        rpc::make_procedure_image(kSmallSpec, {{"inc", [](rpc::ProcCall& c) {
                                    c.set("y",
                                          Value::integer(c.integer("x") + 1));
                                  }}}));
    rpc::SchoonerSystem schooner(cluster, "avs");

    {
      using clock_type = std::chrono::steady_clock;
      auto session = schooner.make_session("avs");
      auto client = session->open_line(
          rpc::LineOptions{}.with_name("bench-lockstep"));
      client->contact_schx("m0", "/bin/inc");
      auto inc = client->import_proc("inc", kSmallImport);
      std::vector<double> latencies;
      const long kSimCalls = 2'000;
      latencies.reserve(kSimCalls);
      const rpc::CallOptions legacy = rpc::CallOptions::legacy();
      util::Stopwatch wall;
      for (long i = 0; i < kSimCalls; ++i) {
        const auto t0 = clock_type::now();
        inc->call(small_args(i), legacy).values_or_raise();
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                clock_type::now() - t0)
                                .count());
      }
      client->quit();
      rows.push_back(
          make_row("small", "sim", "lockstep", latencies, wall.elapsed_ms()));
      print_row(rows.back());
    }
    {
      using clock_type = std::chrono::steady_clock;
      const int kClients = 4;
      const long kPerClient = 500;
      std::vector<double> latencies;
      std::mutex mu;
      util::Stopwatch wall;
      std::vector<std::thread> threads;
      for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
          auto session = schooner.make_session("avs");
          auto client = session->open_line(
              rpc::LineOptions{}.with_name("bench-ol" + std::to_string(t)));
          client->contact_schx("m0", "/bin/inc");
          auto inc = client->import_proc("inc", kSmallImport);
          std::vector<double> mine;
          mine.reserve(kPerClient);
          const rpc::CallOptions legacy = rpc::CallOptions::legacy();
          for (long i = 0; i < kPerClient; ++i) {
            const auto t0 = clock_type::now();
            inc->call(small_args(i), legacy).values_or_raise();
            mine.push_back(std::chrono::duration<double, std::micro>(
                               clock_type::now() - t0)
                               .count());
          }
          client->quit();
          std::lock_guard<std::mutex> lock(mu);
          latencies.insert(latencies.end(), mine.begin(), mine.end());
        });
      }
      for (auto& t : threads) t.join();
      rows.push_back(
          make_row("small", "sim", "overlapped", latencies, wall.elapsed_ms()));
      print_row(rows.back());
    }
  }

  double lockstep_small = 0.0, pipelined_small = 0.0;
  double lockstep_small_p50 = 0.0, raw_floor_p50 = 0.0;
  for (const Row& row : rows) {
    if (row.transport == "tcp" && row.signature == "small") {
      if (row.mode == "lockstep") {
        lockstep_small = row.calls_per_sec;
        lockstep_small_p50 = row.p50_us;
      }
      if (row.mode == "pipelined") pipelined_small = row.calls_per_sec;
    }
    if (row.transport == "raw") raw_floor_p50 = row.p50_us;
  }
  // p50 of a lock-step small call on the bus over the raw null-call
  // p50: what the bus adds on top of the socket round trip (the aim is
  // at most 1.3). Printed for tracking; not a gate.
  const double over_floor =
      raw_floor_p50 > 0.0 ? lockstep_small_p50 / raw_floor_p50 : 0.0;
  std::printf(
      "bus lock-step p50 over raw-socket floor: %.2fx (%.1f us vs %.1f us)\n",
      over_floor, lockstep_small_p50, raw_floor_p50);
  const double ratio =
      lockstep_small > 0.0 ? pipelined_small / lockstep_small : 0.0;
  const bool target_met = pipelined_small >= 100'000.0 && ratio >= 5.0;
  std::printf(
      "\npipelined/lockstep (small over TCP): %.1fx; pipelined %.0f "
      "calls/sec — target (>=100k/s and >=5x) %s\n",
      ratio, pipelined_small, target_met ? "MET" : "NOT met");

  std::FILE* f = std::fopen("BENCH_throughput.json", "w");
  if (f) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"throughput\",\n");
    std::fprintf(f, "  \"window\": %zu,\n", kWindow);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "    {\"signature\": \"%s\", \"transport\": \"%s\", "
                   "\"mode\": \"%s\", \"calls\": %ld, "
                   "\"calls_per_sec\": %.0f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}%s\n",
                   row.signature.c_str(), row.transport.c_str(),
                   row.mode.c_str(), row.calls, row.calls_per_sec, row.p50_us,
                   row.p99_us, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"pipelined_over_lockstep_small\": %.2f,\n", ratio);
    std::fprintf(f, "  \"pipelined_small_calls_per_sec\": %.0f,\n",
                 pipelined_small);
    std::fprintf(f, "  \"bus_lockstep_over_raw_floor\": %.2f,\n",
                 over_floor);
    std::fprintf(f, "  \"target_met\": %s\n", target_met ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_throughput.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace npss

int main() { return npss::run(); }

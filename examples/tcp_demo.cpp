// tcp_demo — Schooner marshaling between two real OS processes over real
// loopback TCP sockets.
//
// The virtual cluster reproduces the paper's 1993 testbed; this demo shows
// the same wire protocol and UTS marshaling stack doing actual distributed
// work today: the process forks, the child hosts the shaft procedure with
// a Cray "personality" (its values pass through 64-bit Cray words), and
// the parent calls it — across a genuine process boundary.
//
//   $ ./tcp_demo
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "rpc/tcp_transport.hpp"
#include "tess/components.hpp"

using namespace npss;
using uts::Value;

namespace {

const char* kShaftSpec = R"(
  export shaft prog(
      "ecom" val array[4] of float,
      "incom" val integer,
      "etur" val array[4] of float,
      "intur" val integer,
      "ecorr" val float,
      "xspool" val float,
      "xmyi" val float,
      "dxspl" res float)
)";

const char* kShaftImport = R"(
  import shaft prog(
      "ecom" val array[4] of float,
      "incom" val integer,
      "etur" val array[4] of float,
      "intur" val integer,
      "ecorr" val float,
      "xspool" val float,
      "xmyi" val float,
      "dxspl" res float)
)";

int child_main(int port_pipe) {
  rpc::TcpProcedureHost host(
      kShaftSpec,
      {{"shaft",
        [](rpc::ProcCall& call) {
          std::vector<double> ecom = call.reals("ecom");
          std::vector<double> etur = call.reals("etur");
          call.set_real(
              "dxspl",
              tess::shaft(ecom.data(),
                          static_cast<int>(call.integer("incom")),
                          etur.data(),
                          static_cast<int>(call.integer("intur")),
                          call.real("ecorr"), call.real("xspool"),
                          call.real("xmyi")));
        }}},
      "cray-ymp");
  const int port = host.port();
  if (write(port_pipe, &port, sizeof port) != sizeof port) return 1;
  close(port_pipe);
  // Serve until the parent is done (parent closes its connection, then
  // kills us via the pipe trick below: we just sleep-poll on ppid).
  while (getppid() != 1) usleep(50 * 1000);
  return 0;
}

}  // namespace

int main() {
  int pipefd[2];
  if (pipe(pipefd) != 0) return 1;
  pid_t child = fork();
  if (child < 0) return 1;
  if (child == 0) {
    close(pipefd[0]);
    return child_main(pipefd[1]);
  }
  close(pipefd[1]);
  int port = 0;
  if (read(pipefd[0], &port, sizeof port) != sizeof port) return 1;
  close(pipefd[0]);
  std::printf("child process %d hosts the shaft procedure (Cray "
              "personality) on 127.0.0.1:%d\n",
              child, port);

  rpc::TcpRemoteProc shaft("127.0.0.1", port, "shaft", kShaftImport,
                           "sun-sparc10");
  // On the real transport the fault-tolerant surface counts *wall-clock*
  // microseconds: a 2 s deadline over 3 attempts, each retry reconnecting
  // the socket. The shaft derivative is pure, so timeouts are retryable.
  rpc::CallOptions opts;
  opts.deadline_us = 2'000'000;
  opts.max_attempts = 3;
  opts.idempotent = true;
  const double ecom[4] = {10.0e6, 100.0, 1.0e5, 0.85};
  const double etur[4] = {10.8e6, 100.0, 1.08e5, 0.89};
  rpc::CallResult result = shaft.call(
      {Value::real_array({ecom[0], ecom[1], ecom[2], ecom[3]}),
       Value::integer(1),
       Value::real_array({etur[0], etur[1], etur[2], etur[3]}),
       Value::integer(1), Value::real(0.99), Value::real(10400.0),
       Value::real(40.0), Value::real(0)},
      opts);
  if (!result.ok()) {
    std::printf("call failed: %s\n", result.status.to_string().c_str());
    return 1;
  }
  std::printf("call completed in %d attempt(s) within the deadline\n",
              result.attempt_count());
  uts::ValueList out = std::move(result.values);
  const double local = tess::shaft(ecom, 1, etur, 1, 0.99, 10400.0, 40.0);
  std::printf("dxspl over the wire: %.6f rpm/s (local: %.6f, rel dev "
              "%.2e — the UTS float wire)\n",
              out[7].as_real(), local,
              std::abs(out[7].as_real() / local - 1.0));

  // The timing loop makes one attempt per call with no deadline — the
  // historical contract — so the per-call figure stays comparable across
  // versions.
  rpc::CallOptions once = rpc::CallOptions::legacy();
  once.max_attempts = 1;
  const int reps = 1000;
  util::Stopwatch watch;
  for (int i = 0; i < reps; ++i) {
    shaft
        .call({Value::real_array({ecom[0], ecom[1], ecom[2], ecom[3]}),
               Value::integer(1),
               Value::real_array({etur[0], etur[1], etur[2], etur[3]}),
               Value::integer(1), Value::real(0.99), Value::real(10400.0),
               Value::real(40.0), Value::real(0)},
              once)
        .values_or_raise();
  }
  std::printf("%d cross-process calls: %.1f us each over loopback TCP\n",
              reps, watch.elapsed_ms() * 1000.0 / reps);

  // Same calls, pipelined: issue the whole batch with call_async before
  // reading any reply. All of them ride the one pooled connection as
  // sequence-tagged in-flight frames, so the per-call cost drops from a
  // full round trip to a share of the coalesced writes.
  std::vector<rpc::PendingCall> pending;
  pending.reserve(reps);
  util::Stopwatch pipelined_watch;
  for (int i = 0; i < reps; ++i) {
    pending.push_back(shaft.call_async(
        {Value::real_array({ecom[0], ecom[1], ecom[2], ecom[3]}),
         Value::integer(1),
         Value::real_array({etur[0], etur[1], etur[2], etur[3]}),
         Value::integer(1), Value::real(0.99), Value::real(10400.0),
         Value::real(40.0), Value::real(0)}));
  }
  for (rpc::PendingCall& call : pending) {
    if (!call.get().ok()) {
      std::printf("pipelined call failed: %s\n",
                  call.get().status.to_string().c_str());
      return 1;
    }
  }
  std::printf("%d pipelined calls: %.1f us each amortized (one connection, "
              "seq-matched replies)\n",
              reps, pipelined_watch.elapsed_ms() * 1000.0 / reps);

  kill(child, SIGTERM);
  waitpid(child, nullptr, 0);
  std::printf("child reaped; demo complete\n");
  return 0;
}

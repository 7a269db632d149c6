// xplace_serve: the resident placement daemon (DESIGN.md §11).
//
// Listens on a Unix-domain socket and serves the JSON-lines protocol over a
// PlacementServer: bounded priority queue, N concurrent placement jobs, a
// server-wide worker-thread budget, streamed per-iteration progress, and
// cooperative cancellation. Pair with xplace_client, or speak the protocol
// directly:
//
//   ./xplace_serve --socket /tmp/xplace.sock --jobs 2 &
//   echo '{"cmd":"submit","demo_cells":2000,"max_iters":150}' |
//     nc -U /tmp/xplace.sock
//
// Flags:
//   --socket PATH       listen socket (default /tmp/xplace.sock)
//   --jobs N            concurrent job slots (default 2)
//   --queue N           queued-job admission bound (default 64)
//   --job-threads N     worker threads per job when the submit does not say
//                       (default 1 — the bitwise-reproducible serial backend)
//   --thread-budget N   server-wide worker-thread cap (default jobs*job-threads)
//   --results N         terminal job records retained (default 256)
//   --spill DIR         periodic XPCK checkpoint spill per job into DIR
//   --spill-every N     iterations between spills (default 200)
//   --state-dir DIR     crash-safe operation (DESIGN.md §13): durable job
//                       journal + XPCK spills under DIR; on start the daemon
//                       replays the journal, re-enqueues queued jobs and
//                       resumes interrupted ones from their last snapshot
//   --journal-max-bytes N  journal disk budget before admission sheds
//                       (default 64 MiB)
//   --retries N         supervised retry budget for diverged/alloc-failed
//                       jobs (default 2)
//   --retry-backoff-s S base exponential backoff before a retry (default 0.5)
//   --design-capacity N resident parsed designs in the content-addressed
//                       design store before LRU eviction (default 16);
//                       evicted designs lazily re-parse on next use
//   --design-bytes N    resident-bytes bound for the design store
//                       (default 1 GiB)
//   --portfolio-poll-s S  racer sampling period for portfolio early-kill
//                       (default 0.25; <= 0 disables the racer — members
//                       still run to completion and a winner is selected)
//   --kill-min-iter N   grace iterations before a member can be judged a
//                       laggard (default 100)
//   --kill-margin R     laggard HPWL ratio vs the leader (default 1.15)
//   --kill-slack S      laggard overflow gap vs the leader (default 0.05)
//   --no-kill           default portfolios to racing without early-kill
//   --simd BACKEND      SIMD kernel table (auto|avx2|scalar|off)
//   --trace-out PATH    enable the span tracer and write a Chrome trace of
//                       every served job on exit; each job renders as its own
//                       process track named after its id/label (DESIGN.md §12)
//
// The daemon exits after a client `shutdown` request completes (drain or
// cancel — see the protocol).
#include <cstdio>

#include "server/server.h"
#include "server/uds.h"
#include "telemetry/export.h"
#include "telemetry/trace.h"
#include "util/arg_parser.h"
#include "util/backend_resolve.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace xplace;
  ArgParser args(argc, argv);
  if (!args.ok()) {
    for (const std::string& e : args.errors()) XP_ERROR("%s", e.c_str());
    return 2;
  }

  // SIMD resolution is process-wide and first-call-wins: do it once here so
  // every job this daemon runs uses the same kernel table.
  if (!resolve_backend_flags(args.get("simd"), 0).ok) return 1;

  server::ServerConfig cfg;
  cfg.max_concurrency =
      static_cast<std::size_t>(args.get_int("jobs", 2));
  cfg.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 64));
  cfg.default_job_threads =
      static_cast<int>(args.get_int("job-threads", 1));
  cfg.thread_budget =
      static_cast<std::size_t>(args.get_int("thread-budget", 0));
  cfg.result_capacity =
      static_cast<std::size_t>(args.get_int("results", 256));
  cfg.spill_dir = args.get("spill");
  cfg.spill_period = static_cast<int>(args.get_int("spill-every", 200));
  cfg.state_dir = args.get("state-dir");
  cfg.journal_max_bytes = static_cast<std::size_t>(
      args.get_int("journal-max-bytes", 64ll << 20));
  cfg.max_retries = static_cast<int>(args.get_int("retries", 2));
  cfg.retry_backoff_s = args.get_double("retry-backoff-s", 0.5);
  cfg.design_capacity =
      static_cast<std::size_t>(args.get_int("design-capacity", 16));
  cfg.design_max_bytes = static_cast<std::size_t>(
      args.get_int("design-bytes", 1ll << 30));
  cfg.portfolio_poll_s = args.get_double("portfolio-poll-s", 0.25);
  cfg.portfolio_policy.min_iter =
      static_cast<int>(args.get_int("kill-min-iter", 100));
  cfg.portfolio_policy.hpwl_margin = args.get_double("kill-margin", 1.15);
  cfg.portfolio_policy.overflow_slack = args.get_double("kill-slack", 0.05);
  cfg.portfolio_policy.no_kill = args.get_bool("no-kill", false);

  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) telemetry::Tracer::global().enable();

  server::PlacementServer srv(cfg);
  const std::string socket_path = args.get("socket", "/tmp/xplace.sock");
  if (!server::serve(srv, socket_path)) return 1;

  if (!trace_out.empty()) {
    // serve() returns only after shutdown drained the workers, so the ring
    // is quiesced and the snapshot is exact. The label table maps each job's
    // trace id to its "job <id> (<label>)" track name.
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    std::string error;
    if (telemetry::write_text_file(
            trace_out,
            telemetry::to_chrome_trace(tracer.snapshot(), "xplace_serve",
                                       tracer.trace_labels()),
            &error)) {
      XP_INFO("wrote trace to %s (%llu spans recorded, %llu dropped)",
              trace_out.c_str(),
              static_cast<unsigned long long>(tracer.total_recorded()),
              static_cast<unsigned long long>(tracer.dropped()));
    } else {
      XP_ERROR("trace write failed: %s", error.c_str());
      return 1;
    }
  }
  return 0;
}

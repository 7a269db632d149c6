// xplace_client: command-line client for the xplace_serve daemon.
//
// Speaks the JSON-lines protocol over the daemon's Unix socket and prints
// the raw response lines, so output is pipeable into jq. Exit code 0 iff
// the final response line says ok.
//
//   xplace_client submit --demo-cells 2000 --max-iters 200 --label run1
//   xplace_client submit --aux adaptec1.aux --priority 5 --deadline-s 600
//   xplace_client status --id 1
//   xplace_client result --id 1 --wait --timeout-s 600
//   xplace_client events --id 1 --follow
//   xplace_client cancel --id 1
//   xplace_client stats
//   xplace_client metrics                      # Prometheus text exposition
//   xplace_client watch [--interval-s 2] [--count N]
//   xplace_client shutdown [--no-drain]
//
// Design-store + batch-sweep verbs (DESIGN.md §14):
//
//   xplace_client upload --aux adaptec1.aux        # parse once, get the hash
//   xplace_client upload --demo-cells 4000
//   xplace_client designs                          # list the store
//   xplace_client evict --design a1b2c3...
//   xplace_client sweep --design a1b2c3... --max-iters 500 --seeds 1,2,3
//   xplace_client sweep --demo-cells 4000 --seeds 1,2 --densities 0.7,0.9
//   xplace_client batch-status --id 3
//   xplace_client batch-result --id 3 --wait --timeout-s 600
//   xplace_client batch-cancel --id 3              # stop spending on a sweep
//
// Portfolio-racing verbs (DESIGN.md §14). A portfolio is a raced batch:
// its id is its batch id, so batch-status/-result/-cancel work on it too.
//
//   xplace_client portfolio --design a1b2c3... --k 4 --seed 1 --deadline-s 300
//   xplace_client portfolio-status --id 3
//   xplace_client portfolio-result --id 3 --wait --timeout-s 600
//
// `portfolio` launches K perturbed restarts of one design (distinct seeds,
// noise-injected anchors, varied γ/λ schedules — a deterministic plan from
// (K, --seed)) raced under --deadline-s; the daemon's racer early-kills
// strict laggards unless --no-kill. Racer overrides: --kill-min-iter N,
// --kill-margin R, --kill-slack S. `portfolio-result` reports the aggregate
// plus the winner's full job object (lowest HPWL; ties go to the lower id).
//
// `sweep` fans one design (uploaded hash, --aux, or --demo-cells — parsed at
// most once server-side) across the cross-product-free union of the sweep
// axes: one config per entry of --seeds, --densities (target density), and
// --lambdas (λ init factor), each starting from the base flags. Listing a
// value twice submits it twice — with dedup (default on; --no-dedup) the
// repeat is served by the first job instead of re-running.
//
// `metrics` prints the daemon's Prometheus exposition (the scrape surface of
// DESIGN.md §12) as plain text. `watch` is a live dashboard: it polls
// stats+metrics over one connection and redraws queue depth, running jobs,
// SLO counters, and the latency percentile table every interval.
//
// Common flags: --socket PATH (default /tmp/xplace.sock).
//   --connect-retries N / --connect-backoff-s S: every connect (including
//   reconnects mid-stream) retries with bounded exponential backoff — a
//   daemon restarting under --state-dir is a normal event, not an error
//   (defaults: 5 retries from 0.2s).
// Submit flags: --aux PATH | --demo-cells N [--demo-seed S], --max-iters N,
//   --grid N, --threads N (per-job workers; 0 = server default), --gp-only,
//   --priority P, --deadline-s T, --label NAME.
// Events flags: --id N, --from SEQ, --timeout-s T (--follow = a whole-run
//   budget of 3600s; on a dropped connection --follow reconnects and resumes
//   from the last streamed seq instead of dying mid-run).
// Result flags: --id N, --wait, --timeout-s T (per request),
//   --wait-timeout-s T (overall bound across reconnects; exit 3 when the job
//   is still not terminal — e.g. it was shed, or the daemon restarted
//   without it). The same --wait-timeout-s bound (and exit 3) applies to
//   batch-result --wait and portfolio-result --wait.
// Watch flags: --interval-s T (default 2), --count N (polls; 0 = forever),
//   --no-clear (append screens instead of redrawing in place).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "server/json.h"
#include "server/protocol.h"
#include "server/uds.h"
#include "util/arg_parser.h"
#include "util/logging.h"

namespace {

using namespace xplace;
using namespace xplace::server;

/// Read-side line cap for metrics-bearing responses: the whole Prometheus
/// exposition arrives as one line, which can exceed the 64 KiB protocol
/// default on a daemon with many per-job metric families.
constexpr std::size_t kMetricsLineCap = 4u << 20;

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Connect with bounded exponential backoff: `retries` extra attempts after
/// the first, doubling from `base_s` (capped at 10s). Returns an invalid
/// stream when every attempt failed.
UdsStream connect_with_backoff(const std::string& path, long retries,
                               double base_s) {
  double backoff = std::max(0.05, base_s);
  for (long attempt = 0;; ++attempt) {
    UdsStream stream = UdsStream::connect(path);
    if (stream.valid() || attempt >= retries) return stream;
    std::fprintf(stderr,
                 "connect to %s failed (attempt %ld/%ld); retrying in %.1fs\n",
                 path.c_str(), attempt + 1, retries, backoff);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(backoff * 2.0, 10.0);
  }
}

bool is_terminal_state(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed" ||
         state == "shed";
}

int usage() {
  std::fprintf(
      stderr,
      "usage: xplace_client [--socket PATH] "
      "submit|status|cancel|result|events|stats|metrics|watch|shutdown|"
      "upload|designs|evict|sweep|batch-status|batch-result|batch-cancel|"
      "portfolio|portfolio-status|portfolio-result [flags]\n"
      "(see the header comment of examples/xplace_client.cpp)\n");
  return 2;
}

/// The client's short aliases; every other verb is its protocol wire name.
bool command_from_name(const std::string& name, Command* out) {
  if (name == "upload") *out = Command::kUploadDesign;
  else if (name == "designs") *out = Command::kListDesigns;
  else if (name == "evict") *out = Command::kEvictDesign;
  else if (name == "sweep") *out = Command::kSubmitBatch;
  else if (name == "portfolio") *out = Command::kSubmitPortfolio;
  else return command_from_string(name, out);
  return true;
}

/// "1,2,3" → {"1","2","3"} (empty pieces skipped).
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// True when `line` is a final `{"ok":...}` response (vs a streamed
/// `{"event":...}` line); sets *ok from it.
bool is_final_response(const std::string& line, bool* ok) {
  json::Value v;
  std::string error;
  if (!json::parse(line, &v, &error) || !v.is_object() || !v.has("ok")) {
    return false;
  }
  *ok = v.get_bool("ok", false);
  return true;
}

/// Sends one request and parses its single response line into *out.
/// False on transport failure, an oversized line, or {"ok":false}.
bool round_trip(UdsStream& stream, const Request& req, json::Value* out) {
  if (!stream.write_line(build_request(req))) return false;
  std::string line;
  bool oversized = false;
  if (!stream.read_line(&line, &oversized) || oversized) return false;
  std::string error;
  if (!json::parse(line, out, &error) || !out->is_object()) return false;
  return out->get_bool("ok", false);
}

/// Non-#-comment line count of a Prometheus exposition = series scraped.
std::size_t count_series(const std::string& text) {
  std::size_t n = 0;
  bool at_line_start = true;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (at_line_start && text[i] != '#' && text[i] != '\n') ++n;
    at_line_start = text[i] == '\n';
    if (!at_line_start) {
      const std::size_t nl = text.find('\n', i);
      if (nl == std::string::npos) break;
      i = nl;
      at_line_start = true;
    }
  }
  return n;
}

void print_latency_row(const json::Value& lat, const char* key,
                       const char* name) {
  const json::Value* row = lat.find(key);
  if (row == nullptr || !row->is_object()) return;
  std::printf("  %-11s %9.3fs %9.3fs %9.3fs %8.0f\n", name,
              row->get_number("p50", 0.0), row->get_number("p95", 0.0),
              row->get_number("p99", 0.0), row->get_number("count", 0.0));
}

/// Live dashboard: polls stats + metrics over one connection and redraws.
int run_watch(UdsStream& stream, const std::string& socket_path,
              double interval_s, long count, bool clear) {
  stream.set_max_line(kMetricsLineCap);
  Request stats_req;
  stats_req.cmd = Command::kStats;
  Request metrics_req;
  metrics_req.cmd = Command::kMetrics;
  for (long poll = 0; count <= 0 || poll < count; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.1, interval_s)));
    }
    json::Value stats, metrics;
    if (!round_trip(stream, stats_req, &stats) ||
        !round_trip(stream, metrics_req, &metrics)) {
      std::fprintf(stderr, "watch: daemon went away\n");
      return 1;
    }
    if (clear) std::printf("\033[2J\033[H");  // clear screen, home cursor
    std::printf("xplace_serve @ %s   poll %ld%s, every %.1fs\n\n",
                socket_path.c_str(), poll + 1,
                count > 0 ? ("/" + std::to_string(count)).c_str() : "",
                interval_s);
    std::printf("queue    %.0f / %.0f queued    %.0f running (max %.0f)    "
                "threads %.0f / %.0f    accepting %s\n",
                stats.get_number("queued", 0.0),
                stats.get_number("queue_capacity", 0.0),
                stats.get_number("running", 0.0),
                stats.get_number("max_concurrency", 0.0),
                stats.get_number("threads_leased", 0.0),
                stats.get_number("thread_budget", 0.0),
                stats.get_bool("accepting", false) ? "yes" : "no");
    std::printf("jobs     %.0f submitted   %.0f done   %.0f cancelled   "
                "%.0f failed   %.0f rejected\n",
                stats.get_number("submitted", 0.0),
                stats.get_number("completed", 0.0),
                stats.get_number("cancelled", 0.0),
                stats.get_number("failed", 0.0),
                stats.get_number("rejected", 0.0));
    std::printf("SLO      %.0f deadline missed   %.0f events dropped\n\n",
                stats.get_number("deadline_missed", 0.0),
                stats.get_number("events_dropped", 0.0));
    const json::Value* lat = stats.find("latency");
    if (lat != nullptr && lat->is_object()) {
      std::printf("  %-11s %10s %10s %10s %8s\n", "latency", "p50", "p95",
                  "p99", "count");
      print_latency_row(*lat, "queue_wait_s", "queue wait");
      print_latency_row(*lat, "run_s", "run");
      print_latency_row(*lat, "e2e_s", "e2e");
    }
    std::printf("\nmetrics  %zu series from `metrics` scrape\n",
                count_series(metrics.get_string("metrics")));
    std::fflush(stdout);
  }
  return 0;
}

/// `events` with restart resilience: streams lines, tracking the last event
/// seq; when --follow and the connection drops mid-stream (daemon restart,
/// EPIPE/ECONNRESET), reconnects with backoff and resumes from seq+1. A
/// daemon answering "unknown or evicted job id" after its restart ends the
/// follow with that error printed (exit 1), not a transport crash.
int run_events(Request req, const std::string& socket_path, bool follow,
               long retries, double backoff_s) {
  UdsStream stream = connect_with_backoff(socket_path, retries, backoff_s);
  if (!stream.valid()) {
    XP_ERROR("cannot connect to %s (is xplace_serve running?)",
             socket_path.c_str());
    return 1;
  }
  while (true) {
    bool got_final = false;
    bool ok = false;
    if (stream.write_line(build_request(req))) {
      std::string line;
      bool oversized = false;
      while (stream.read_line(&line, &oversized)) {
        if (oversized) continue;
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        json::Value v;
        std::string error;
        if (json::parse(line, &v, &error)) {
          if (const json::Value* ev = v.find("event");
              ev != nullptr && ev->is_object()) {
            req.from_seq =
                static_cast<std::uint64_t>(ev->get_number("seq", 0.0)) + 1;
          }
        }
        if (is_final_response(line, &ok)) {
          got_final = true;
          break;
        }
      }
    }
    if (got_final) return ok ? 0 : 1;
    if (!follow) {
      XP_ERROR("connection closed before a response arrived");
      return 1;
    }
    std::fprintf(stderr,
                 "events: stream interrupted; resuming from seq %llu\n",
                 static_cast<unsigned long long>(req.from_seq));
    stream = connect_with_backoff(socket_path, retries, backoff_s);
    if (!stream.valid()) {
      XP_ERROR("daemon did not come back on %s", socket_path.c_str());
      return 1;
    }
  }
}

/// Terminal check for the three waitable responses: a job line carries its
/// "state" at top level; batch/portfolio lines carry an "all_terminal" flag
/// on their (shared) batch object.
bool response_settled(Command cmd, const json::Value& v) {
  switch (cmd) {
    case Command::kResult:
      return is_terminal_state(v.get_string("state"));
    case Command::kBatchResult:
    case Command::kPortfolioResult: {
      const json::Value* b =
          v.find(cmd == Command::kBatchResult ? "batch" : "portfolio");
      return b != nullptr && b->is_object() &&
             b->get_bool("all_terminal", false);
    }
    default:
      return true;
  }
}

/// `result|batch-result|portfolio-result --wait` with an overall bound:
/// re-issues bounded waits (surviving daemon restarts in between) until the
/// target is terminal, the daemon reports it unknown (exit 1), or
/// --wait-timeout-s elapses (exit 3). One implementation so the three wait
/// verbs honor the bound identically.
int run_bounded_wait(const Request& req, const std::string& socket_path,
                     double wait_timeout_s, long retries, double backoff_s) {
  const double deadline =
      wait_timeout_s > 0 ? steady_now() + wait_timeout_s : 0.0;
  UdsStream stream = connect_with_backoff(socket_path, retries, backoff_s);
  if (!stream.valid()) {
    XP_ERROR("cannot connect to %s (is xplace_serve running?)",
             socket_path.c_str());
    return 1;
  }
  while (true) {
    Request r = req;
    if (deadline > 0) {
      const double remaining = deadline - steady_now();
      if (remaining <= 0) {
        std::fprintf(stderr,
                     "%s: id %llu not terminal within %.1fs wait bound\n",
                     to_string(req.cmd),
                     static_cast<unsigned long long>(req.id), wait_timeout_s);
        return 3;
      }
      r.timeout_s = std::min(r.timeout_s, remaining);
    }
    std::string line;
    bool oversized = false;
    if (!stream.write_line(build_request(r)) ||
        !stream.read_line(&line, &oversized)) {
      stream = connect_with_backoff(socket_path, retries, backoff_s);
      if (!stream.valid()) {
        XP_ERROR("daemon did not come back on %s", socket_path.c_str());
        return 1;
      }
      continue;
    }
    if (oversized) continue;
    json::Value v;
    std::string error;
    if (!json::parse(line, &v, &error) || !v.is_object() ||
        !v.get_bool("ok", false)) {
      std::printf("%s\n", line.c_str());
      return 1;  // unknown/evicted id, or a malformed daemon reply
    }
    if (response_settled(req.cmd, v)) {
      std::printf("%s\n", line.c_str());
      return 0;
    }
    // Not terminal yet (the server-side wait timed out): keep waiting until
    // the overall bound says stop.
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positional().empty()) return usage();

  const std::string verb = args.positional()[0];
  const long connect_retries = args.get_int("connect-retries", 5);
  const double connect_backoff_s = args.get_double("connect-backoff-s", 0.2);
  if (verb == "watch") {
    const std::string socket_path = args.get("socket", "/tmp/xplace.sock");
    UdsStream stream =
        connect_with_backoff(socket_path, connect_retries, connect_backoff_s);
    if (!stream.valid()) {
      XP_ERROR("cannot connect to %s (is xplace_serve running?)",
               socket_path.c_str());
      return 1;
    }
    return run_watch(stream, socket_path, args.get_double("interval-s", 2.0),
                     args.get_int("count", 0),
                     !args.get_bool("no-clear", false));
  }

  Request req;
  if (!command_from_name(verb, &req.cmd)) return usage();
  req.id = static_cast<std::uint64_t>(args.get_int("id", 0));
  req.from_seq = static_cast<std::uint64_t>(args.get_int("from", 0));
  req.wait = args.get_bool("wait", false);
  req.timeout_s = args.get_double(
      "timeout-s", args.get_bool("follow", false) ? 3600.0 : 60.0);
  req.drain = !args.get_bool("no-drain", false);
  if (req.cmd == Command::kSubmit || req.cmd == Command::kUploadDesign ||
      req.cmd == Command::kSubmitBatch ||
      req.cmd == Command::kSubmitPortfolio) {
    JobSpec& s = req.spec;
    s.aux = args.get("aux");
    s.demo_cells = args.get_int("demo-cells", 0);
    s.demo_seed = static_cast<std::uint64_t>(args.get_int("demo-seed", 11));
    const std::string design_hex = args.get("design");
    if (!design_hex.empty() && !hex_to_hash(design_hex, &s.design_hash)) {
      std::fprintf(stderr, "--design must be a 64-bit hex content hash\n");
      return 2;
    }
    s.max_iters = static_cast<int>(args.get_int("max-iters", 1500));
    s.grid = static_cast<int>(args.get_int("grid", 128));
    s.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
    s.target_density = args.get_double("target-density", 0.0);
    s.lambda_init = args.get_double("lambda-init", 0.0);
    s.threads = static_cast<int>(args.get_int("threads", 0));
    s.full_flow = !args.get_bool("gp-only", false);
    s.priority = static_cast<int>(args.get_int("priority", 0));
    s.deadline_s = args.get_double("deadline-s", 0.0);
    s.label = args.get("label");
    s.dedup = req.cmd == Command::kSubmitBatch
                  ? !args.get_bool("no-dedup", false)
                  : args.get_bool("dedup", false);
    if (s.aux.empty() && s.demo_cells <= 0 && s.design_hash == 0) {
      std::fprintf(stderr,
                   "%s needs --aux PATH, --demo-cells N%s\n", verb.c_str(),
                   req.cmd == Command::kUploadDesign ? ""
                                                    : ", or --design HASH");
      return 2;
    }
  }
  if (req.cmd == Command::kEvictDesign) {
    const std::string design_hex = args.get("design");
    if (design_hex.empty() ||
        !hex_to_hash(design_hex, &req.spec.design_hash)) {
      std::fprintf(stderr, "evict needs --design HASH (64-bit hex)\n");
      return 2;
    }
  }
  if (req.cmd == Command::kSubmitBatch) {
    // One config per sweep-axis entry, each starting from the base flags.
    for (const std::string& v : split_list(args.get("seeds"))) {
      JobSpec c = req.spec;
      c.seed = static_cast<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
      req.configs.push_back(std::move(c));
    }
    for (const std::string& v : split_list(args.get("densities"))) {
      JobSpec c = req.spec;
      c.target_density = std::strtod(v.c_str(), nullptr);
      req.configs.push_back(std::move(c));
    }
    for (const std::string& v : split_list(args.get("lambdas"))) {
      JobSpec c = req.spec;
      c.lambda_init = std::strtod(v.c_str(), nullptr);
      req.configs.push_back(std::move(c));
    }
    if (req.configs.empty()) {
      std::fprintf(stderr,
                   "sweep needs at least one axis: --seeds, --densities, "
                   "or --lambdas (comma lists)\n");
      return 2;
    }
  }
  if (req.cmd == Command::kSubmitPortfolio) {
    req.k = static_cast<int>(args.get_int("k", 0));
    if (req.k < 2) {
      std::fprintf(stderr, "portfolio needs --k N (members, >= 2)\n");
      return 2;
    }
    req.kill_min_iter = static_cast<int>(args.get_int("kill-min-iter", -1));
    req.kill_margin = args.get_double("kill-margin", 0.0);
    if (args.has("kill-slack")) {
      req.kill_slack = args.get_double("kill-slack", 0.0);
    }
    req.no_kill = args.get_bool("no-kill", false);
  }

  const std::string socket_path = args.get("socket", "/tmp/xplace.sock");
  if (req.cmd == Command::kEvents) {
    return run_events(req, socket_path, args.get_bool("follow", false),
                      connect_retries, connect_backoff_s);
  }
  const double wait_timeout_s = args.get_double("wait-timeout-s", 0.0);
  if ((req.cmd == Command::kResult || req.cmd == Command::kBatchResult ||
       req.cmd == Command::kPortfolioResult) &&
      req.wait && wait_timeout_s > 0) {
    return run_bounded_wait(req, socket_path, wait_timeout_s, connect_retries,
                            connect_backoff_s);
  }
  UdsStream stream =
      connect_with_backoff(socket_path, connect_retries, connect_backoff_s);
  if (!stream.valid()) {
    XP_ERROR("cannot connect to %s (is xplace_serve running?)",
             socket_path.c_str());
    return 1;
  }
  if (req.cmd == Command::kMetrics) {
    // Decode the exposition text out of the JSON envelope so the output is
    // directly consumable by Prometheus-style tooling.
    stream.set_max_line(kMetricsLineCap);
    json::Value resp;
    if (!round_trip(stream, req, &resp)) {
      XP_ERROR("metrics request failed");
      return 1;
    }
    std::fputs(resp.get_string("metrics").c_str(), stdout);
    return 0;
  }
  if (!stream.write_line(build_request(req))) {
    XP_ERROR("write failed");
    return 1;
  }

  // One response line per command; `events` streams event lines first and
  // closes with the final ok line.
  std::string line;
  bool oversized = false;
  bool ok = false;
  while (stream.read_line(&line, &oversized)) {
    if (oversized) continue;
    std::printf("%s\n", line.c_str());
    if (is_final_response(line, &ok)) return ok ? 0 : 1;
  }
  XP_ERROR("connection closed before a response arrived");
  return 1;
}

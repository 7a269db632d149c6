// The served sweep (serve_sweep): one client, closed loop. Each round starts
// a fresh in-process PlacementServer (2 slots x 1 thread per job), uploads
// one small design, submits one batch of sweep configs and waits for it. A
// fresh server per round makes every round pay the same parse and admission
// path; on a shared server later rounds would be served from the dedup cache.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "server/server.h"
#include "util/logging.h"

namespace perfbench {
namespace {

namespace server = xplace::server;

constexpr std::size_t kDistinctConfigs = 11;
constexpr double kDensities[] = {0.85, 0.90, 0.95, 1.00};
// Pooled (2-thread) jobs on this small design ran slower than serial ones,
// and their per-iteration time varied too much between runs to bound.
constexpr int kJobThreads = 1;
// upload_design samples per round: the round's own upload plus fresh
// servers' uploads of the same files before it.
constexpr int kUploadReps = 3;

struct Round {
  std::vector<double> upload_s;
  double submit_ms = 0, e2e_s = 0, jobs_per_s = 0;
  std::vector<server::JobRecord> jobs;  ///< distinct jobs (dedup shares one)
  /// The best member (lowest final HPWL): its final, GP HPWL and overflow.
  double best_dp_hpwl = 0, best_gp_hpwl = 0, best_gp_overflow = 0;
  double member0_dp_hpwl = 0;
  double design_parses = 0, dedup_hits = 0, rejected = 0;
};

/// 11 distinct configs (seed, target density) plus a repeat of the first,
/// which the server's dedup serves from the first one's job.
std::vector<server::JobSpec> sweep_configs(std::uint64_t seed) {
  std::vector<server::JobSpec> configs;
  for (std::size_t i = 0; i < kDistinctConfigs; ++i) {
    server::JobSpec c;
    c.seed = 1 + seed * 16 + i;
    c.target_density = kDensities[i % 4];
    c.dedup = true;
    configs.push_back(c);
  }
  configs.push_back(configs.front());
  return configs;
}

server::ServerConfig server_config() {
  server::ServerConfig sc;
  sc.max_concurrency = 2;
  sc.default_job_threads = kJobThreads;
  sc.portfolio_poll_s = 0.0;  // no portfolios here: no racer thread
  return sc;
}

Round run_round(const std::string& aux,
                const std::vector<server::JobSpec>& configs, Spans* spans,
                std::uint64_t round_id, Report& report) {
  Round r;
  Spans::Scope round_span(spans, "serve.round", round_id);
  server::JobSpec source;
  source.aux = aux;
  const auto upload = [&](server::PlacementServer& srv) {
    Spans::Scope s(spans, "server.upload_design", round_id);
    const double t0 = now_s();
    server::PlacementServer::UploadOutcome up = srv.upload_design(source);
    r.upload_s.push_back(now_s() - t0);
    return up;
  };
  for (int i = 1; i < kUploadReps; ++i) {
    server::PlacementServer fresh(server_config());
    upload(fresh);
  }
  server::PlacementServer srv(server_config());
  // Job timestamps are in log::elapsed_seconds(); spans use now_s().
  const double clock_offset = now_s() - xplace::log::elapsed_seconds();
  const server::PlacementServer::UploadOutcome up = upload(srv);
  if (!up.ok) {
    report.gate(false, "upload_design: " + up.error);
    return r;
  }

  server::JobSpec base;
  base.design_hash = up.hash;
  base.label = "sweep";
  const double submitted = xplace::log::elapsed_seconds();
  const double t0 = now_s();
  server::PlacementServer::BatchSubmitOutcome bo;
  {
    Spans::Scope s(spans, "server.submit_batch", round_id);
    bo = srv.submit_batch(base, configs);
  }
  r.submit_ms = (now_s() - t0) * 1e3;
  if (!bo.ok) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      report.gate(false, "submit_batch: " + bo.error);
    }
    return r;
  }

  Spans::Scope wait_span(spans, "server.batch_wait", round_id);
  srv.batch_wait(bo.batch_id, 150.0);
  double last_finished = submitted;
  for (std::size_t i = 0; i < bo.jobs.size(); ++i) {
    const std::optional<server::JobRecord> rec = srv.status(bo.jobs[i].id);
    const bool ok = rec && rec->state == server::JobState::kDone &&
                    rec->legalized &&
                    rec->stop_reason == core::StopReason::kConverged &&
                    std::isfinite(rec->dp_hpwl) && rec->dp_hpwl > 0.0;
    report.gate(ok, "sweep member " + std::to_string(i) + ": " +
                        (rec ? std::string(server::to_string(rec->state)) +
                                   ", GP " +
                                   core::to_string(rec->stop_reason) +
                                   (rec->legalized ? "" : ", not legalized")
                             : std::string("no record")));
    if (!rec) continue;
    if (i == 0) r.member0_dp_hpwl = rec->dp_hpwl;
    if (bo.jobs[i].deduped) continue;
    last_finished = std::max(last_finished, rec->finished_s);
    r.jobs.push_back(*rec);
  }
  r.e2e_s = last_finished - submitted;
  r.jobs_per_s = static_cast<double>(configs.size()) / r.e2e_s;
  for (const server::JobRecord& j : r.jobs) {
    if (j.state != server::JobState::kDone) continue;
    if (r.best_dp_hpwl == 0.0 || j.dp_hpwl < r.best_dp_hpwl) {
      r.best_dp_hpwl = j.dp_hpwl;
      r.best_gp_hpwl = j.hpwl;
      r.best_gp_overflow = j.overflow;
    }
    if (spans != nullptr) {
      // Job ids restart with each server: one track per (round, job).
      const std::uint64_t track = round_id * 1000 + j.id;
      spans->add("server.job.queue", track, j.submitted_s + clock_offset,
                 j.started_s + clock_offset);
      spans->add("server.job.run", track, j.started_s + clock_offset,
                 j.finished_s + clock_offset);
    }
  }
  const server::PlacementServer::Stats st = srv.stats();
  r.design_parses = static_cast<double>(st.design_parses);
  r.dedup_hits = static_cast<double>(st.dedup_hits);
  r.rejected = static_cast<double>(st.rejected);
  return r;
}

void round_loop(const std::string& aux,
                const std::vector<server::JobSpec>& configs, Spans* spans,
                double start_s, double until_s, std::vector<Round>& rounds,
                std::uint64_t& round_id, Report& report) {
  double last_s = 0.0;
  do {
    const double t0 = now_s();
    rounds.push_back(run_round(aux, configs, spans, ++round_id, report));
    last_s = now_s() - t0;
    const Round& r = rounds.back();
    std::vector<double> iters, ms_per_iter;
    for (const server::JobRecord& j : r.jobs) {
      iters.push_back(j.iterations);
      ms_per_iter.push_back(j.gp_seconds * 1e3 / std::max(1, j.iterations));
    }
    std::fprintf(stderr,
                 "perfbench: round %llu: %zu jobs run, submit-to-last %.3f s, "
                 "median %.0f GP iters at %.3f ms, best HPWL %.17g\n",
                 static_cast<unsigned long long>(round_id), r.jobs.size(),
                 r.e2e_s, median(iters), median(ms_per_iter), r.best_dp_hpwl);
  } while (now_s() - start_s + last_s <= until_s);
}

template <typename Fn>
double med_rounds(const std::vector<Round>& rounds, Fn fn) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(fn(r));
  return median(std::move(v));
}

template <typename Fn>
double med_jobs(const std::vector<Round>& rounds, Fn fn) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    for (const server::JobRecord& j : r.jobs) v.push_back(fn(j));
  }
  return median(std::move(v));
}

}  // namespace

void run_serve_workload(const Options& opt, Report& report, Spans* spans) {
  // pci_bridge32_a at 1/10 scale: ~3k movable cells.
  const std::string aux =
      write_suite_design("pci_bridge32_a", 10.0, opt.seed, opt.work_dir);
  const std::vector<server::JobSpec> configs = sweep_configs(opt.seed);

  const double start_s = now_s();
  std::uint64_t round_id = 0;
  std::vector<Round> untraced, traced;
  round_loop(aux, configs, nullptr, start_s,
             spans != nullptr ? opt.seconds / 2 : opt.seconds, untraced,
             round_id, report);
  if (spans != nullptr) {
    round_loop(aux, configs, spans, start_s, opt.seconds, traced, round_id,
               report);
  }

  // Reference check: member 0 re-placed directly in process, with the same
  // design, seed, target density and thread count as the served job, must
  // reproduce its final HPWL bit for bit, in every round.
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = configs.front().grid;
  cfg.max_iters = configs.front().max_iters;
  cfg.threads = kJobThreads;
  cfg.seed = configs.front().seed;
  cfg.target_density = configs.front().target_density;
  const FlowRun ref = place_flow(aux, cfg, spans, 0, spans != nullptr);
  bool same = ref.gate_failure().empty();
  for (const std::vector<Round>* rounds : {&untraced, &traced}) {
    for (const Round& r : *rounds) same = same && r.member0_dp_hpwl == ref.hpwl;
  }
  report.gate(same, "served member 0 HPWL differs from the direct flow");

  if (spans == nullptr) {
    std::vector<double> upload;
    for (const Round& r : untraced) {
      upload.insert(upload.end(), r.upload_s.begin(), r.upload_s.end());
    }
    report.set("setup_s", median(std::move(upload)), "s");
    report.set("flow_s", med_jobs(untraced, [](const server::JobRecord& j) {
                 return j.finished_s - j.started_s;
               }),
               "s");
    report.set("hpwl", untraced.front().best_dp_hpwl, "dbu");
    report.set("jobs_per_s", med_rounds(untraced, [](const Round& r) {
                 return r.jobs_per_s;
               }),
               "1/s");
    report.set("job_e2e_p50_s",
               med_jobs(untraced, [](const server::JobRecord& j) {
                 return j.finished_s - j.submitted_s;
               }),
               "s");
    return;
  }

  // Per-layer: the ops/fft/lg/dp replays and launch counts come from the
  // solo reference flow (a served job's launch count is a process-global
  // delta that concurrent jobs contaminate); GP totals come from the served
  // jobs' own records.
  report_flow_layers({ref}, report);
  report_gp_totals(
      report,
      med_jobs(traced, [](const server::JobRecord& j) { return j.gp_seconds; }),
      med_jobs(traced,
               [](const server::JobRecord& j) { return double(j.iterations); }),
      ref.gp_replay);
  report.set("core.gp_hpwl", traced.front().best_gp_hpwl, "dbu");
  report.set("core.gp_overflow", traced.front().best_gp_overflow, "ratio");
  report.set("server.submit_ms",
             med_rounds(traced, [](const Round& r) { return r.submit_ms; }),
             "ms");
  report.set("server.queue_wait_p50_s",
             med_jobs(traced, [](const server::JobRecord& j) {
               return j.started_s - j.submitted_s;
             }),
             "s");
  report.set("server.run_p50_s",
             med_jobs(traced, [](const server::JobRecord& j) {
               return j.finished_s - j.started_s;
             }),
             "s");
  report.set("server.design_parses",
             med_rounds(traced, [](const Round& r) { return r.design_parses; }),
             "count");
  report.set("server.dedup_hits",
             med_rounds(traced, [](const Round& r) { return r.dedup_hits; }),
             "count");
  report.set("server.rejected",
             med_rounds(traced, [](const Round& r) { return r.rejected; }),
             "count");
  report.set("trace.overhead_s",
             med_rounds(traced, [](const Round& r) { return r.e2e_s; }) -
                 med_rounds(untraced, [](const Round& r) { return r.e2e_s; }),
             "s");
}

}  // namespace perfbench

// The full-flow workloads (flow_1t, flow_4t) and the instrumented flow that
// the served sweep's reference check reuses.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/gradient_engine.h"
#include "core/optimizer.h"
#include "dp/global_swap.h"
#include "dp/ism.h"
#include "dp/local_reorder.h"
#include "io/bookshelf.h"
#include "lg/abacus.h"
#include "lg/checker.h"
#include "ops/density.h"
#include "ops/electrostatics.h"
#include "ops/parallel.h"
#include "ops/wirelength.h"
#include "util/execution.h"

namespace perfbench {
namespace {

namespace db = xplace::db;
namespace ops = xplace::ops;
using xplace::ExecutionContext;
using xplace::ThreadPool;

// Calls per replayed kernel; the median of these is reported.
constexpr int kReplayReps = 21;
// Dedicated parse + placer-construction repetitions before the flows (each
// flow adds one more setup sample).
constexpr int kSetupReps = 5;

GpReplay replay_gp(const db::Database& gp_db, const core::PlacerConfig& cfg,
                   const ExecutionContext& exec) {
  GpReplay r;
  core::GradientEngine engine(gp_db, cfg, &exec);
  ThreadPool* pool = exec.parallel() ? exec.pool() : nullptr;
  const ops::NetlistView& view = engine.view();
  const ops::DensityGrid& grid = engine.grid();
  const std::size_t n_total = gp_db.num_cells_total();
  const std::size_t n_phys = gp_db.num_physical();
  const std::size_t n_mov = gp_db.num_movable();
  const std::size_t n_fill = n_total - n_phys;
  std::vector<float> x(n_total), y(n_total), gx(n_total, 0.0f),
      gy(n_total, 0.0f);
  for (std::size_t c = 0; c < n_total; ++c) {
    x[c] = static_cast<float>(gp_db.x(c));
    y[c] = static_cast<float>(gp_db.y(c));
  }
  // The scheduler's smoothing at the stop overflow (core/config.h formula),
  // i.e. the gamma of the last GP iterations.
  const float gamma = static_cast<float>(
      cfg.gamma_base_factor * grid.bin_w() *
      std::pow(10.0, (cfg.stop_overflow - 0.1) * 20.0 / 9.0 - 1.0));
  const float lambda = 1e-4f;
  // An iteration past the operator-skipping window, so every call runs the
  // whole density pipeline.
  const int iter = cfg.max_iters;

  r.grad_ms = median_ms(kReplayReps, [&] {
    engine.compute(x.data(), y.data(), gamma, lambda, iter, 0.5, gx.data(),
                   gy.data());
  });
  r.wa_ms = median_ms(kReplayReps, [&] {
    if (pool != nullptr) {
      ops::fused_wl_grad_hpwl_mt(view, x.data(), y.data(), gamma, gx.data(),
                                 gy.data(), *pool);
    } else {
      ops::fused_wl_grad_hpwl(view, x.data(), y.data(), gamma, gx.data(),
                              gy.data());
    }
  });

  std::vector<double> map_phys(grid.num_bins()), map_fill(grid.num_bins()),
      map_total(grid.num_bins());
  const auto scatter = [&](const char* name, std::size_t begin,
                           std::size_t end, double* map) {
    if (pool != nullptr) {
      ops::accumulate_range_mt(grid, name, x.data(), y.data(), begin, end, map,
                               true, *pool);
    } else {
      grid.accumulate_range(name, x.data(), y.data(), begin, end, map, true);
    }
  };
  r.scatter_ms = median_ms(kReplayReps, [&] {
    scatter("density.map_physical", 0, n_phys, map_phys.data());
  });
  r.scatter_filler_ms = median_ms(kReplayReps, [&] {
    scatter("density.map_filler", n_phys, n_total, map_fill.data());
  });
  for (std::size_t b = 0; b < map_total.size(); ++b) {
    map_total[b] = map_phys[b] + map_fill[b];
  }

  ops::PoissonSolver solver(grid.m(), grid.bin_w(), grid.bin_h());
  solver.set_pool(pool);
  r.poisson_ms = median_ms(kReplayReps,
                           [&] { solver.solve(map_total.data(), false); });

  const auto gather = [&](const char* name, std::size_t begin,
                          std::size_t end) {
    if (pool != nullptr) {
      ops::gather_field_mt(grid, name, x.data(), y.data(), begin, end,
                           solver.ex().data(), solver.ey().data(), -1.0f,
                           gx.data(), gy.data(), *pool);
    } else {
      grid.gather_field(name, x.data(), y.data(), begin, end,
                        solver.ex().data(), solver.ey().data(), -1.0f,
                        gx.data(), gy.data());
    }
  };
  r.gather_ms = median_ms(kReplayReps,
                          [&] { gather("dgrad.gather_movable", 0, n_mov); });
  r.gather_filler_ms = median_ms(
      kReplayReps, [&] { gather("dgrad.gather_filler", n_phys, n_total); });

  // The optimizer remainder of an iteration: preconditioner + Nesterov step
  // on a fresh gradient (the copy back into the gradient buffers is not
  // timed).
  core::Preconditioner precond(gp_db);
  core::NesterovOptimizer optimizer(gp_db, cfg, cfg.grid_dim);
  engine.compute(x.data(), y.data(), gamma, lambda, iter, 0.5, gx.data(),
                 gy.data());
  std::vector<float> sx(gx.size()), sy(gy.size());
  std::vector<double> opt_ms;
  for (int i = 0; i <= kReplayReps; ++i) {
    sx = gx;
    sy = gy;
    const double t0 = now_s();
    precond.apply(lambda, sx.data(), sy.data(), cfg.op_reduction);
    optimizer.step(sx.data(), sy.data());
    if (i > 0) opt_ms.push_back((now_s() - t0) * 1e3);  // i == 0 warms up
  }
  r.opt_ms = median(std::move(opt_ms));

  // Computed work and compulsory bytes per call (documented in README.md).
  const double pins = static_cast<double>(view.num_pins);
  const double nets = static_cast<double>(view.num_nets);
  const double bins = static_cast<double>(grid.num_bins());
  r.pins = pins;
  r.cells_total = static_cast<double>(n_total);
  r.bins = bins;
  r.wa_bytes = pins * 36.0 + nets * 9.0;
  r.density_bytes = static_cast<double>(n_phys + n_fill) * 20.0 +
                    2.0 * bins * 8.0 +
                    static_cast<double>(n_mov + n_fill) * 36.0 + bins * 16.0;
  return r;
}

DpReplay replay_dp(const db::Database& lg_db, const ExecutionContext& exec) {
  DpReplay r;
  const dp::DetailedPlaceConfig dcfg;  // detailed_place's defaults
  const double row_h =
      lg_db.rows().empty() ? 12.0 : lg_db.rows().front().height;
  {
    db::Database d = lg_db;
    const double t0 = now_s();
    const dp::PassStats s = dp::global_swap_pass(d, dcfg.swap_radius_rows * row_h);
    r.global_swap_s = now_s() - t0;
    r.global_swap_moves = static_cast<double>(s.moves_accepted);
  }
  {
    db::Database d = lg_db;
    const double t0 = now_s();
    const dp::PassStats s = dp::ism_pass(d, dcfg.ism_max_set);
    r.ism_s = now_s() - t0;
    r.ism_moves = static_cast<double>(s.moves_accepted);
  }
  {
    db::Database d = lg_db;
    const double t0 = now_s();
    const dp::PassStats s = dp::local_reorder_pass(d, dcfg.reorder_window, &exec);
    r.local_reorder_s = now_s() - t0;
    r.local_reorder_moves = static_cast<double>(s.moves_accepted);
  }
  return r;
}

/// Runs flows until `until_s` (seconds after `start_s`) would be overrun by
/// one more flow of the last one's length; always at least one. `flows`
/// counts the run's flows so far, `first_hpwl` is the first one's HPWL
/// (0 = none yet): every later flow must reproduce it.
void flow_loop(const std::string& aux, const core::PlacerConfig& cfg,
               Spans* spans, bool replay_first, double start_s,
               double until_s, std::vector<FlowRun>& runs, std::size_t& flows,
               double& first_hpwl, Report& report) {
  double last_s = 0.0;
  do {
    const double t0 = now_s();
    FlowRun f =
        place_flow(aux, cfg, spans, ++flows, replay_first && runs.empty());
    std::string failure = f.gate_failure();
    if (first_hpwl == 0.0) first_hpwl = f.hpwl;
    if (failure.empty() && f.hpwl != first_hpwl) {
      failure = "HPWL differs between flows of one design, seed and thread "
                "count";
    }
    report.gate(failure.empty(), failure);
    std::fprintf(stderr,
                 "perfbench: flow %zu: setup %.3f s, GP %.3f s (%d iters), "
                 "LG %.3f s, DP %.3f s, HPWL %.17g\n",
                 flows, f.setup_s(), f.gp_s, f.gp.iterations, f.lg_s, f.dp_s,
                 f.hpwl);
    runs.push_back(std::move(f));
    last_s = now_s() - t0;
  } while (now_s() - start_s + last_s <= until_s);
}

}  // namespace

std::string FlowRun::gate_failure() const {
  if (!legal) return "placement is not legal";
  if (gp.stop_reason != core::StopReason::kConverged) {
    return std::string("GP stopped: ") + core::to_string(gp.stop_reason);
  }
  if (!std::isfinite(hpwl) || hpwl <= 0.0) return "final HPWL is not finite";
  return "";
}

FlowRun place_flow(const std::string& aux, const core::PlacerConfig& cfg,
                   Spans* spans, std::uint64_t trace_id, bool replay) {
  FlowRun f;
  Spans::Scope flow_span(spans, "flow", trace_id);
  double t0 = now_s();
  db::Database db = [&] {
    Spans::Scope s(spans, "io.read_bookshelf_aux", trace_id);
    return xplace::io::read_bookshelf_aux(aux);
  }();
  f.parse_s = now_s() - t0;

  t0 = now_s();
  std::unique_ptr<core::GlobalPlacer> placer = [&] {
    Spans::Scope s(spans, "core.GlobalPlacer", trace_id);
    return std::make_unique<core::GlobalPlacer>(db, cfg);
  }();
  f.init_s = now_s() - t0;
  const ExecutionContext& exec = placer->execution();

  t0 = now_s();
  {
    Spans::Scope s(spans, "core.GlobalPlacer.run", trace_id);
    f.gp = placer->run();
  }
  f.gp_s = now_s() - t0;
  std::vector<double> gp_x, gp_y;
  if (replay) {
    gp_x = db.x();
    gp_y = db.y();
  }

  t0 = now_s();
  {
    Spans::Scope s(spans, "lg.abacus_legalize", trace_id);
    f.lg = lg::abacus_legalize(db, &exec);
  }
  f.lg_s = now_s() - t0;
  std::vector<double> lg_x, lg_y;
  if (replay) {
    lg_x = db.x();
    lg_y = db.y();
  }

  t0 = now_s();
  {
    Spans::Scope s(spans, "dp.detailed_place", trace_id);
    f.dp = dp::detailed_place(db, dp::DetailedPlaceConfig{}, &exec);
  }
  f.dp_s = now_s() - t0;

  if (exec.parallel()) {
    const ThreadPool::Stats st = exec.pool()->stats();
    f.pool_busy_s = st.busy_seconds;
    f.pool_wall_s = st.wall_seconds;
    f.pool_workers = static_cast<double>(exec.pool()->size());
  }
  {
    Spans::Scope s(spans, "lg.check_legality", trace_id);
    f.legal = lg::check_legality(db).legal();
  }
  f.hpwl = db.hpwl();

  if (replay) {
    db::Database copy = db;  // carries the placer's fillers
    copy.mutable_x() = gp_x;
    copy.mutable_y() = gp_y;
    {
      Spans::Scope s(spans, "replay.gp", trace_id);
      f.gp_replay = replay_gp(copy, cfg, exec);
    }
    copy.mutable_x() = lg_x;
    copy.mutable_y() = lg_y;
    {
      Spans::Scope s(spans, "replay.dp", trace_id);
      f.dp_replay = replay_dp(copy, exec);
    }
    f.replayed = true;
  }
  return f;
}

void report_gp_totals(Report& report, double gp_s, double iters,
                      const GpReplay& rp) {
  report.set("core.gp_s", gp_s, "s");
  report.set("core.gp_iters", iters, "count");
  report.set("core.gp_ms_per_iter", gp_s * 1e3 / iters, "ms");
  // Replayed phases (WA, 2 scatters, Poisson, 2 gathers) plus the remainder
  // (the rest of one GradientEngine::compute, and one optimizer step) sum
  // to grad_ms + opt_ms; times the iteration count, over the GP wall time.
  report.set("core.gp_explained", (rp.grad_ms + rp.opt_ms) * iters / (gp_s * 1e3),
             "ratio");
}

void report_flow_layers(const std::vector<FlowRun>& runs, Report& report) {
  const auto med = [&](double (*fn)(const FlowRun&)) {
    std::vector<double> v;
    for (const FlowRun& r : runs) v.push_back(fn(r));
    return median(std::move(v));
  };
  GpReplay rp;
  DpReplay dr;
  for (const FlowRun& r : runs) {
    if (r.replayed) {
      rp = r.gp_replay;
      dr = r.dp_replay;
      break;
    }
  }
  report.set("io.parse_s", med([](const FlowRun& r) { return r.parse_s; }), "s");
  report.set("core.placer_init_s",
             med([](const FlowRun& r) { return r.init_s; }), "s");
  report_gp_totals(
      report, med([](const FlowRun& r) { return r.gp_s; }),
      med([](const FlowRun& r) { return double(r.gp.iterations); }), rp);
  report.set("core.gp_hpwl", med([](const FlowRun& r) { return r.gp.hpwl; }),
             "dbu");
  report.set("core.gp_overflow",
             med([](const FlowRun& r) { return r.gp.overflow; }), "ratio");
  report.set("tensor.launches_per_iter", med([](const FlowRun& r) {
               return double(r.gp.kernel_launches) / r.gp.iterations;
             }),
             "count/iter");
  report.set("core.grad_ms", rp.grad_ms, "ms");
  report.set("core.opt_ms", rp.opt_ms, "ms");
  report.set("ops.wa_ms", rp.wa_ms, "ms");
  report.set("ops.scatter_ms", rp.scatter_ms, "ms");
  report.set("ops.scatter_filler_ms", rp.scatter_filler_ms, "ms");
  report.set("ops.gather_ms", rp.gather_ms, "ms");
  report.set("ops.gather_filler_ms", rp.gather_filler_ms, "ms");
  report.set("fft.poisson_ms", rp.poisson_ms, "ms");
  report.set("ops.pins", rp.pins, "count");
  report.set("ops.cells_total", rp.cells_total, "count");
  report.set("ops.bins", rp.bins, "count");
  report.set("ops.wa_bytes", rp.wa_bytes, "bytes");
  report.set("ops.density_bytes", rp.density_bytes, "bytes");
  // busy / (wall x workers), with its base; all 0 on the serial backend.
  report.set("util.pool_utilization", med([](const FlowRun& r) {
               return r.pool_wall_s > 0.0
                          ? r.pool_busy_s / (r.pool_wall_s * r.pool_workers)
                          : 0.0;
             }),
             "ratio");
  report.set("util.pool_busy_s",
             med([](const FlowRun& r) { return r.pool_busy_s; }), "s");
  report.set("util.pool_wall_s",
             med([](const FlowRun& r) { return r.pool_wall_s; }), "s");
  report.set("lg.s", med([](const FlowRun& r) { return r.lg_s; }), "s");
  report.set("lg.avg_disp",
             med([](const FlowRun& r) { return r.lg.avg_displacement; }), "dbu");
  report.set("lg.failed_cells",
             med([](const FlowRun& r) { return double(r.lg.failed_cells); }),
             "count");
  report.set("dp.s", med([](const FlowRun& r) { return r.dp_s; }), "s");
  report.set("dp.moves",
             med([](const FlowRun& r) { return double(r.dp.moves_accepted); }),
             "count");
  report.set("dp.global_swap_s", dr.global_swap_s, "s");
  report.set("dp.global_swap_moves", dr.global_swap_moves, "count");
  report.set("dp.ism_s", dr.ism_s, "s");
  report.set("dp.ism_moves", dr.ism_moves, "count");
  report.set("dp.local_reorder_s", dr.local_reorder_s, "s");
  report.set("dp.local_reorder_moves", dr.local_reorder_moves, "count");
}

void run_flow_workload(const Options& opt, int threads, Report& report,
                       Spans* spans) {
  // adaptec1 at 1/10 scale: ~21k movable cells, 18% macro area.
  const std::string aux =
      write_suite_design("adaptec1", 10.0, opt.seed, opt.work_dir);
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 128;
  cfg.max_iters = 1500;
  cfg.threads = threads;
  cfg.seed = opt.seed + 1;  // > 0: derives the filler and init-noise streams

  const double start_s = now_s();
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    db::Database db = xplace::io::read_bookshelf_aux(aux);
    const double t1 = now_s();
    core::GlobalPlacer placer(db, cfg);
    setup.push_back(now_s() - t0);
    std::fprintf(stderr, "perfbench: setup %d: parse %.3f s, init %.3f s\n",
                 i + 1, t1 - t0, now_s() - t1);
  }

  std::vector<FlowRun> untraced, traced;
  std::size_t flows = 0;
  double first_hpwl = 0.0;
  flow_loop(aux, cfg, nullptr, false, start_s,
            spans != nullptr ? opt.seconds / 2 : opt.seconds, untraced, flows,
            first_hpwl, report);
  if (spans != nullptr) {
    flow_loop(aux, cfg, spans, true, start_s, opt.seconds, traced, flows,
              first_hpwl, report);
    report_flow_layers(traced, report);
    const auto flow_med = [](const std::vector<FlowRun>& v) {
      std::vector<double> s;
      for (const FlowRun& r : v) s.push_back(r.flow_s());
      return median(std::move(s));
    };
    report.set("trace.overhead_s", flow_med(traced) - flow_med(untraced), "s");
    // No server runs on this workload: its counts are zero, its times 0.
    report.set("server.submit_ms", 0.0, "ms");
    report.set("server.queue_wait_p50_s", 0.0, "s");
    report.set("server.run_p50_s", 0.0, "s");
    report.set("server.design_parses", 0.0, "count");
    report.set("server.dedup_hits", 0.0, "count");
    report.set("server.rejected", 0.0, "count");
    return;
  }

  std::vector<double> flow, job;
  for (const FlowRun& r : untraced) {
    setup.push_back(r.setup_s());
    flow.push_back(r.flow_s());
    job.push_back(r.job_s());
  }
  report.set("setup_s", median(setup), "s");
  report.set("flow_s", median(flow), "s");
  report.set("hpwl", untraced.front().hpwl, "dbu");
  // One job at a time: a job is parse + placer construction + the flow.
  report.set("jobs_per_s", 1.0 / median(job), "1/s");
  report.set("job_e2e_p50_s", median(job), "s");
}

}  // namespace perfbench

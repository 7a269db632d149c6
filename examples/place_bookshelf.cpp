// Full placement flow on a bookshelf design: parse → global place → legalize
// → detailed place → write the placed .pl (plus optional full bookshelf dump).
//
// Works on real ISPD 2005 contest files if you have them:
//   ./place_bookshelf path/to/adaptec1.aux --out /tmp/adaptec1.gp.pl
//
// Without contest files, --demo generates a synthetic design, writes it as
// bookshelf, and runs the flow on the written files — exercising the exact
// same code path a real benchmark would.
//
// Telemetry flags (see README "Profiling a run"):
//   --trace-out trace.json    record all spans (kernel launches, GP
//                             iterations, LG/DP phases) and write a Chrome
//                             trace-event file loadable in Perfetto
//   --metrics-out metrics.txt Prometheus-style dump of the metrics registry
//   --record-out gp.jsonl     per-iteration records (JSONL; .csv for CSV)
//
// Checkpoint/resume (see README "Resuming a run"):
//   --checkpoint-out ck.xpck  write a full GP checkpoint every
//                             --checkpoint-every iterations (default 100)
//   --resume ck.xpck          continue an interrupted run from a checkpoint;
//                             same seed + same flags reproduces the
//                             uninterrupted run bit-for-bit
//
// Execution backend (see README "Threads"):
//   --threads N               worker threads for the GP kernels (LG and DP
//                             run serially); 1 = the serial backend (default
//                             when XPLACE_THREADS is unset), N>1 = thread
//                             pool, -1 = all hardware threads. Omitting the
//                             flag defers to XPLACE_THREADS.
//   --simd BACKEND            SIMD kernel backend: auto (default), avx2, or
//                             scalar/off. Omitting the flag defers to
//                             XPLACE_SIMD; the selection is printed and
//                             published as the exec.simd.isa gauge.
//
// Wall-clock budget:
//   --timeout-s T             cooperative deadline over the whole flow: GP
//                             stops at the next iteration boundary, commits
//                             the guardian's best snapshot, and LG/DP are
//                             skipped — the written .pl always holds the
//                             best placement reached within the budget.
//
// Local-optima escape (see README "Escaping local optima"):
//   --kicks N                 after GP converges, run N hill-climb kicks:
//                             bounded random perturbation of the movable
//                             cells + λ/γ re-anneal, keeping a kicked result
//                             only when it improves HPWL — the final
//                             placement is never worse than the unkicked one
//   --seed S                  first-class run seed (derives the filler and
//                             init-noise streams; each perturbed restart is
//                             reproducible from this one number)
#include <cstdio>
#include <filesystem>

#include "core/placer.h"
#include "db/stats.h"
#include "dp/detailed_placer.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "lg/abacus.h"
#include "lg/checker.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tensor/dispatch.h"
#include "util/arg_parser.h"
#include "util/backend_resolve.h"
#include "util/execution.h"
#include "util/logging.h"
#include "util/stop_token.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace xplace;
  ArgParser args(argc, argv);

  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) telemetry::Tracer::global().enable();

  // Backend knobs (explicit flag wins over XPLACE_SIMD / XPLACE_THREADS);
  // shared resolution with the other CLIs and the serve daemon.
  const BackendResolution backend = resolve_backend_flags(
      args.get("simd"), static_cast<int>(args.get_int("threads", 0)));
  if (!backend.ok) return 1;

  std::string aux_path;
  if (args.get_bool("demo", false) || args.positional().empty()) {
    // Self-contained demo: synthesize, dump to bookshelf, read it back.
    const std::string dir =
        std::filesystem::temp_directory_path() / "xplace_demo";
    std::filesystem::create_directories(dir);
    io::GeneratorSpec spec;
    spec.name = "demo";
    spec.num_cells = static_cast<std::size_t>(args.get_int("cells", 4000));
    spec.num_nets = spec.num_cells + spec.num_cells / 20;
    spec.seed = 11;
    db::Database gen = io::generate(spec);
    io::write_bookshelf(gen, dir, "demo");
    aux_path = dir + "/demo.aux";
    std::printf("demo bookshelf written to %s\n", aux_path.c_str());
  } else {
    aux_path = args.positional()[0];
  }

  db::Database db = io::read_bookshelf_aux(aux_path);
  std::printf("%s\n%s\n", db::DesignStats::header().c_str(),
              db::compute_stats(db).row().c_str());

  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = static_cast<int>(args.get_int("grid", 128));
  cfg.max_iters = static_cast<int>(args.get_int("max-iters", 1500));
  cfg.checkpoint_out = args.get("checkpoint-out");
  cfg.checkpoint_period = static_cast<int>(args.get_int("checkpoint-every", 100));
  cfg.resume_path = args.get("resume");
  cfg.threads = backend.threads;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  cfg.kicks = static_cast<int>(args.get_int("kicks", 0));
  core::GlobalPlacer placer(db, cfg);
  const ExecutionContext& exec = placer.execution();
  std::printf("%s\n", backend_summary(exec).c_str());

  StopToken stop;
  const double timeout_s = args.get_double("timeout-s", 0.0);
  if (timeout_s > 0) {
    stop.set_timeout(timeout_s);
    placer.set_stop_token(&stop);
  }

  const core::GlobalPlaceResult gp = placer.run();
  std::printf("GP:  hpwl %.6g  overflow %.4f  (%d iters, %.2fs, stop: %s)\n",
              gp.hpwl, gp.overflow, gp.iterations, gp.gp_seconds,
              core::to_string(gp.stop_reason));
  // Per-phase kernel time: the numbers to compare across --threads values.
  const TimerRegistry& phases = placer.engine().phase_timers();
  std::printf(
      "GP phases: wirelength %.3fs  density %.3fs (scatter %.3fs, fft %.3fs, "
      "field %.3fs)\n",
      phases.total("gp.phase.wirelength"), phases.total("gp.phase.density"),
      phases.total("gp.phase.scatter"), phases.total("gp.phase.fft"),
      phases.total("gp.phase.field"));
  if (gp.kicks_attempted > 0) {
    std::printf("GP kicks: %d attempted, %d accepted\n", gp.kicks_attempted,
                gp.kicks_accepted);
  }
  if (gp.rollbacks > 0 || gp.diverged) {
    std::printf("GP guardian: %d sentinel trip(s), %d rollback(s)%s\n",
                gp.sentinel_trips, gp.rollbacks,
                gp.diverged ? ", stopped on divergence at best-known iterate"
                            : "");
  }

  const bool stopped = gp.stop_reason == core::StopReason::kCancelled ||
                       gp.stop_reason == core::StopReason::kDeadline;
  bool legal = true;
  if (stopped) {
    // Budget exhausted: skip LG/DP; the database holds the committed
    // best-snapshot GP positions, which we still write out below.
    std::printf("flow stopped (%s) — skipping LG/DP\n",
                core::to_string(gp.stop_reason));
  } else {
    const lg::LegalizeStats lgs = lg::abacus_legalize(db);
    std::printf("LG:  %s\n", lgs.summary().c_str());

    dp::DetailedPlaceConfig dcfg;
    dcfg.stop = timeout_s > 0 ? &stop : nullptr;
    const dp::DetailedPlaceResult dps = dp::detailed_place(db, dcfg);
    std::printf("DP:  %s\n", dps.summary().c_str());

    const lg::LegalityReport rep = lg::check_legality(db);
    std::printf("legality: %s\n", rep.summary().c_str());
    legal = rep.legal();
  }

  const std::string out = args.get("out", "/tmp/xplace_out.pl");
  io::write_pl(db, out);
  std::printf("placed .pl written to %s\n", out.c_str());

  // Telemetry exports. The dispatcher and recorder publish into the global
  // registry so one Prometheus dump carries launch counts, per-iteration
  // stats, and run-level gauges.
  if (!args.get("record-out").empty()) {
    if (placer.recorder().write(args.get("record-out"))) {
      std::printf("per-iteration records written to %s\n",
                  args.get("record-out").c_str());
    }
  }
  if (!args.get("metrics-out").empty()) {
    tensor::Dispatcher::global().publish(telemetry::Registry::global());
    std::string error;
    if (telemetry::write_text_file(
            args.get("metrics-out"),
            telemetry::to_prometheus(telemetry::Registry::global()), &error)) {
      std::printf("metrics written to %s\n", args.get("metrics-out").c_str());
    } else {
      XP_ERROR("cannot write %s: %s", args.get("metrics-out").c_str(),
               error.c_str());
    }
  }
  if (!trace_out.empty()) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    std::string error;
    if (telemetry::write_text_file(
            trace_out, telemetry::to_chrome_trace(tracer.snapshot(), "xplace " + db.design_name()),
            &error)) {
      std::printf(
          "chrome trace written to %s (%zu spans, %llu dropped) — load in "
          "ui.perfetto.dev\n",
          trace_out.c_str(), tracer.snapshot().size(),
          static_cast<unsigned long long>(tracer.dropped()));
    } else {
      XP_ERROR("cannot write %s: %s", trace_out.c_str(), error.c_str());
    }
  }
  return legal ? 0 : 1;
}

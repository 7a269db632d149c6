// Shared pieces of the flow benchmark: options, the result report, the
// in-memory span recorder, and the instrumented full flow that both the flow
// workloads and the served sweep's reference check run.
//
// Everything here drives the placer from outside, through the public entry
// point of each layer (io, core, ops, fft, lg, dp, server). Spans are
// recorded by this benchmark around those calls, never inside the program.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/placer.h"
#include "dp/detailed_placer.h"
#include "lg/tetris.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = xplace::core;
namespace dp = xplace::dp;
namespace lg = xplace::lg;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< generated Bookshelf inputs (removed at exit)
  std::string trace_path;  ///< Chrome trace-event JSON written at exit
};

/// Monotonic seconds (steady clock).
double now_s();

double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Times `fn` `reps` times after one untimed warm-up call; returns the
/// median in milliseconds.
double median_ms(int reps, const std::function<void()>& fn);

/// Metrics printed in the result line, in insertion order, plus the
/// attempted/failed counts of the correctness gate.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts one gated operation; `ok` false counts it as failed and logs
  /// `what` to stderr.
  void gate(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  /// Returns false (and writes nothing) when a metric is not finite.
  bool print_json(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// In-memory spans (name, start, end, parent, trace id), written out as a
/// Chrome trace-event file at the end of the run. A null Spans* disables
/// recording; every helper below accepts one.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name, std::uint64_t trace_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  /// A span whose interval was measured elsewhere (e.g. a served job's
  /// queue wait, from its JobRecord timestamps), parented to the innermost
  /// open scope.
  void add(const char* name, std::uint64_t trace_id, double start_s,
           double end_s);
  std::size_t size() const { return spans_.size(); }
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t trace_id;
    std::int64_t parent;  ///< index into spans_, -1 = root
    double start_s, end_s;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Per-call replay of the GP layers on the GP-output placement.
struct GpReplay {
  double grad_ms = 0, wa_ms = 0, scatter_ms = 0, scatter_filler_ms = 0,
         gather_ms = 0, gather_filler_ms = 0, poisson_ms = 0, opt_ms = 0;
  double pins = 0, cells_total = 0, bins = 0, wa_bytes = 0, density_bytes = 0;
};

/// One pass each of the DP layers, replayed from the LG output.
struct DpReplay {
  double global_swap_s = 0, ism_s = 0, local_reorder_s = 0;
  double global_swap_moves = 0, ism_moves = 0, local_reorder_moves = 0;
};

/// One full GP -> LG -> DP flow from a Bookshelf .aux, with wall times per
/// layer call and the gate inputs.
struct FlowRun {
  double parse_s = 0, init_s = 0, gp_s = 0, lg_s = 0, dp_s = 0;
  core::GlobalPlaceResult gp;
  lg::LegalizeStats lg;
  dp::DetailedPlaceResult dp;
  bool legal = false;
  double hpwl = 0;  ///< final legal HPWL
  /// ThreadPool::stats over the flow: summed worker-busy and caller-side
  /// parallel_for wall seconds (0 = serial, no pool).
  double pool_busy_s = 0, pool_wall_s = 0, pool_workers = 0;
  bool replayed = false;
  GpReplay gp_replay;
  DpReplay dp_replay;

  double setup_s() const { return parse_s + init_s; }
  double flow_s() const { return gp_s + lg_s + dp_s; }
  double job_s() const { return setup_s() + flow_s(); }
  /// The correctness gate of one flow; "" when it passes.
  std::string gate_failure() const;
};

/// Runs the flow the way examples/place_bookshelf does: every layer on the
/// ExecutionContext the placer built. With `replay`, the layer replays run
/// after the flow (outside its timings) on copies of the GP and LG outputs.
FlowRun place_flow(const std::string& aux, const core::PlacerConfig& cfg,
                   Spans* spans, std::uint64_t trace_id, bool replay);

/// Writes the per-layer metrics a traced flow provides (io, core, tensor,
/// ops, fft, util, lg, dp). `runs` are the traced flows; replays come from
/// the first one that carries them.
void report_flow_layers(const std::vector<FlowRun>& runs, Report& report);

/// core.gp_s / gp_iters / gp_ms_per_iter, and core.gp_explained on that base.
void report_gp_totals(Report& report, double gp_s, double iters,
                      const GpReplay& replay);

/// Bookshelf inputs for one workload, generated from the workload seed.
/// `design` names an io::suites entry whose structure knobs are kept; cells
/// and nets are divided by `scale`.
std::string write_suite_design(const std::string& design, double scale,
                               std::uint64_t seed, const std::string& dir);

void run_flow_workload(const Options& opt, int threads, Report& report,
                       Spans* spans);
void run_serve_workload(const Options& opt, Report& report, Spans* spans);

}  // namespace perfbench

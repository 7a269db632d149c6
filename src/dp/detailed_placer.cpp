#include "dp/detailed_placer.h"

#include <cstdio>

#include "dp/global_swap.h"
#include "dp/ism.h"
#include "dp/local_reorder.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace xplace::dp {

std::string DetailedPlaceResult::summary() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "hpwl %.6g -> %.6g (%+.3f%%), %d rounds, %zu moves, %.3fs "
                "(swap %.3fs/%zu, ism %.3fs/%zu, reorder %.3fs/%zu)",
                hpwl_before, hpwl_after,
                hpwl_before > 0 ? (hpwl_after / hpwl_before - 1.0) * 100 : 0.0,
                rounds, moves_accepted, seconds, global_swap.seconds,
                global_swap.moves, ism.seconds, ism.moves,
                local_reorder.seconds, local_reorder.moves);
  return buf;
}

DetailedPlaceResult detailed_place(db::Database& db,
                                   const DetailedPlaceConfig& cfg,
                                   const ExecutionContext*) {
  XP_TRACE_SCOPE("dp.run");
  Stopwatch watch;
  DetailedPlaceResult result;
  result.hpwl_before = db.hpwl();

  double row_h = 12.0;
  if (!db.rows().empty()) row_h = db.rows().front().height;
  const double radius = cfg.swap_radius_rows * row_h;

  // Stop poll at every pass boundary: each pass leaves the placement legal,
  // so bailing out between passes returns a legal, partially-refined result.
  bool stopped = false;
  const auto should_stop = [&]() {
    if (!stopped) {
      const StopCause cause = poll_stop(cfg.stop);
      if (cause != StopCause::kNone) {
        XP_INFO("dp stop requested (%s) — returning at pass boundary",
                to_string(cause));
        stopped = true;
      }
    }
    return stopped;
  };

  // Folds one pass's stats into the result and its kind's totals.
  const auto record = [&](const char* name, int round, const PassStats& s,
                          SubPassTotals& totals) {
    result.moves_accepted += s.moves_accepted;
    totals.moves += s.moves_accepted;
    totals.seconds += s.seconds;
    XP_DEBUG("dp round %d %s: %.6g -> %.6g (%zu moves)", round, name,
             s.hpwl_before, s.hpwl_after, s.moves_accepted);
  };
  double prev = result.hpwl_before;
  for (int round = 0; round < cfg.max_rounds && !should_stop(); ++round) {
    if (cfg.enable_global_swap) {
      record("swap", round, global_swap_pass(db, radius), result.global_swap);
    }
    if (cfg.enable_ism && !should_stop()) {
      record("ism", round, ism_pass(db, cfg.ism_max_set), result.ism);
    }
    if (cfg.enable_local_reorder && !should_stop()) {
      record("reorder", round, local_reorder_pass(db, cfg.reorder_window),
             result.local_reorder);
    }
    result.rounds = round + 1;
    const double cur = db.hpwl();
    if (prev - cur < cfg.min_improvement * prev) break;
    prev = cur;
  }

  result.hpwl_after = db.hpwl();
  result.seconds = watch.seconds();
  XP_INFO("detailed place: %s", result.summary().c_str());
  return result;
}

}  // namespace xplace::dp

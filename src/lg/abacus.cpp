#include "lg/abacus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "lg/row_map.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xplace::lg {
namespace {

/// An Abacus cluster: a maximal run of abutting cells within one segment.
/// Optimal position minimizes Σ e_i (x_i − x'_i)², giving x = q/e with
/// q = Σ e_i (x'_i − offset_i), where offset_i is the cell's offset from the
/// cluster start.
struct Cluster {
  double e = 0.0;  ///< total weight
  double q = 0.0;  ///< weighted target sum
  double w = 0.0;  ///< total width
  double x = 0.0;  ///< cluster start position
  std::vector<std::uint32_t> cells;
};

struct SegmentState {
  Segment seg;
  std::vector<Cluster> clusters;
  double used = 0.0;  ///< total cell width placed here
};

/// Appends cell to the cluster list (by value math only; `cells` bookkeeping
/// is kept so positions can be expanded later). Collapses/merges backwards
/// per the Abacus recurrence. Returns the placed x of the *new cell*.
double place_row(SegmentState& st, std::uint32_t cell, double target_lx,
                 double width, double weight, bool commit,
                 std::vector<Cluster>* scratch) {
  std::vector<Cluster>& cl = commit ? st.clusters : *scratch;
  if (!commit) cl = st.clusters;  // trial on a copy

  auto clamp_x = [&](const Cluster& c) {
    return std::clamp(c.q / c.e, st.seg.lx, st.seg.hx - c.w);
  };

  Cluster nc;
  nc.e = weight;
  nc.q = weight * target_lx;
  nc.w = width;
  if (commit) nc.cells.push_back(cell);
  nc.x = std::clamp(target_lx, st.seg.lx, st.seg.hx - width);
  cl.push_back(std::move(nc));

  // Collapse: while the last cluster overlaps its predecessor, merge.
  while (cl.size() >= 2) {
    Cluster& last = cl.back();
    last.x = clamp_x(last);
    Cluster& prev = cl[cl.size() - 2];
    if (prev.x + prev.w <= last.x + 1e-9) break;
    // Merge last into prev.
    prev.q += last.q - last.e * prev.w;
    prev.e += last.e;
    if (commit) {
      prev.cells.insert(prev.cells.end(), last.cells.begin(), last.cells.end());
    }
    prev.w += last.w;
    cl.pop_back();
    cl.back().x = clamp_x(cl.back());
  }
  cl.back().x = clamp_x(cl.back());

  // New cell sits at the end of the final cluster.
  const Cluster& tail = cl.back();
  return tail.x + tail.w - width;
}

}  // namespace

LegalizeStats abacus_legalize(db::Database& db, const ExecutionContext*) {
  XP_TRACE_SCOPE("lg.abacus");
  Stopwatch watch;
  LegalizeStats stats;
  stats.hpwl_before = db.hpwl();

  RowMap rows(db);
  std::vector<std::vector<SegmentState>> state(rows.num_rows());
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    for (const Segment& s : rows.segments(r)) {
      state[r].push_back(SegmentState{s, {}, 0.0});
    }
  }

  std::vector<std::uint32_t> order(db.num_movable());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double ax = db.x(a) - db.width(a) * 0.5;
    const double bx = db.x(b) - db.width(b) * 0.5;
    return ax < bx || (ax == bx && a < b);
  });

  const double row_h = rows.row_height();
  std::vector<Cluster> scratch;  // trial copy of a segment's clusters
  for (std::uint32_t cell : order) {
    const double w = db.width(cell);
    const double tx = db.x(cell) - w * 0.5;
    const double ty = db.y(cell);
    const std::size_t center_row = rows.nearest_row(ty);

    double best_cost = std::numeric_limits<double>::max();
    SegmentState* best_seg = nullptr;

    // Candidate rows by distance d = |r − center|, the +d row before the −d
    // one, segments in row order; the first strictly cheaper trial wins. A
    // row whose dy² alone reaches the best cost cannot win and is skipped.
    const long nrows = static_cast<long>(rows.num_rows());
    for (long d = 0; d < nrows; ++d) {
      const double dy_min = (d > 0 ? (d - 0.5) * row_h : 0.0);
      if (dy_min * dy_min >= best_cost) break;  // rows only get farther
      for (int sign = 0; sign < (d == 0 ? 1 : 2); ++sign) {
        const long r = static_cast<long>(center_row) + (sign == 0 ? d : -d);
        if (r < 0 || r >= nrows) continue;
        const double cy = rows.row_y(r) + row_h * 0.5;
        const double dy = cy - ty;
        if (dy * dy >= best_cost) continue;
        for (SegmentState& st : state[r]) {
          if (st.seg.label != db.cell_fence(cell)) continue;  // fence mismatch
          if (st.used + w > st.seg.width() + 1e-9) continue;
          const double x =
              place_row(st, cell, tx, w, 1.0, /*commit=*/false, &scratch);
          const double dx = x - tx;
          const double cost = dx * dx + dy * dy;
          if (cost < best_cost) {
            best_cost = cost;
            best_seg = &st;
          }
        }
      }
    }

    if (best_seg == nullptr) {
      ++stats.failed_cells;
      XP_WARN("abacus: no segment for cell %s", db.cell_name(cell).c_str());
      continue;
    }
    place_row(*best_seg, cell, tx, w, 1.0, /*commit=*/true, nullptr);
    best_seg->used += w;
  }

  // Expand clusters to final positions (snapped to sites).
  double total_disp = 0.0;
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const double cy = rows.row_y(r) + row_h * 0.5;
    for (SegmentState& st : state[r]) {
      for (Cluster& c : st.clusters) {
        double x = rows.snap_x(r, c.x);
        if (x < st.seg.lx - 1e-9) x += rows.row(r).site_width;
        if (x + c.w > st.seg.hx + 1e-9) x = rows.snap_x(r, st.seg.hx - c.w);
        for (std::uint32_t cell : c.cells) {
          const double w = db.width(cell);
          const double new_cx = x + w * 0.5;
          const double disp =
              std::fabs(new_cx - db.x(cell)) + std::fabs(cy - db.y(cell));
          total_disp += disp;
          stats.max_displacement = std::max(stats.max_displacement, disp);
          db.set_position(cell, new_cx, cy);
          x += w;
        }
      }
    }
  }

  stats.avg_displacement =
      db.num_movable() > 0 ? total_disp / static_cast<double>(db.num_movable()) : 0;
  stats.hpwl_after = db.hpwl();
  stats.seconds = watch.seconds();
  XP_INFO("abacus LG: %s", stats.summary().c_str());
  return stats;
}

}  // namespace xplace::lg

#include "dp/local_reorder.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "dp/hpwl_eval.h"
#include "lg/row_map.h"
#include "telemetry/trace.h"
#include "util/timer.h"

namespace xplace::dp {
namespace {

/// Builds the per-row cell lists (movable cells bucketed by nearest row,
/// sorted by x ascending within each row).
std::vector<std::vector<std::uint32_t>> group_rows(const db::Database& db,
                                                   const lg::RowMap& rows) {
  std::vector<std::vector<std::uint32_t>> per_row(rows.num_rows());
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    per_row[rows.nearest_row(db.y(c))].push_back(static_cast<std::uint32_t>(c));
  }
  for (auto& cells : per_row) {
    std::sort(cells.begin(), cells.end(),
              [&](std::uint32_t a, std::uint32_t b) { return db.x(a) < db.x(b); });
  }
  return per_row;
}

/// One row's worth of sliding-window permutation search against the position
/// array `x` (indexed by cell id; mutated in place for accepted moves). `y`
/// supplies the fixed vertical coordinates. Returns accepted-move count.
std::size_t reorder_row(const db::Database& db, const lg::RowMap& rows,
                        std::size_t row, std::vector<std::uint32_t>& cells,
                        int window, HpwlEval& eval, double* x,
                        const double* y) {
  if (static_cast<int>(cells.size()) < window) return 0;
  const auto& segs = rows.segments(row);
  auto segment_of = [&](double pos) -> int {
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (pos >= segs[s].lx - 1e-9 && pos <= segs[s].hx + 1e-9)
        return static_cast<int>(s);
    }
    return -1;
  };

  std::size_t accepted = 0;
  std::vector<std::uint32_t> win(window);
  std::vector<int> perm(window), best_perm(window);
  std::vector<double> save_x(window);

  for (std::size_t start = 0; start + window <= cells.size(); ++start) {
    for (int k = 0; k < window; ++k) {
      win[k] = cells[start + k];
      save_x[k] = x[win[k]];
    }
    // Window cells must lie in one segment: repacking may not cross a
    // blockage.
    const double left = x[win[0]] - db.width(win[0]) * 0.5;
    const double right =
        x[win[window - 1]] + db.width(win[window - 1]) * 0.5;
    if (segment_of(left) < 0 || segment_of(left) != segment_of(right)) continue;
    double total_w = 0.0;
    for (int k = 0; k < window; ++k) total_w += db.width(win[k]);
    if (total_w > right - left + 1e-9) continue;  // shouldn't happen (legal)

    const double before = eval.cells_net_hpwl_at(win.data(), win.size(), x, y);
    std::iota(perm.begin(), perm.end(), 0);
    double best_delta = -1e-9;
    bool found = false;
    // Try all permutations except identity.
    std::vector<int> p(perm);
    while (std::next_permutation(p.begin(), p.end())) {
      double pos = left;
      for (int k = 0; k < window; ++k) {
        const std::uint32_t cell = win[p[k]];
        x[cell] = pos + db.width(cell) * 0.5;
        pos += db.width(cell);
      }
      const double after = eval.cells_net_hpwl_at(win.data(), win.size(), x, y);
      const double delta = after - before;
      if (delta < best_delta) {
        best_delta = delta;
        best_perm = p;
        found = true;
      }
    }
    if (found) {
      double pos = left;
      for (int k = 0; k < window; ++k) {
        const std::uint32_t cell = win[best_perm[k]];
        x[cell] = pos + db.width(cell) * 0.5;
        pos += db.width(cell);
      }
      // Keep the per-row x order consistent with positions.
      std::sort(cells.begin() + start, cells.begin() + start + window,
                [&](std::uint32_t a, std::uint32_t b) { return x[a] < x[b]; });
      ++accepted;
    } else {
      for (int k = 0; k < window; ++k) x[win[k]] = save_x[k];
    }
  }
  return accepted;
}

}  // namespace

PassStats local_reorder_pass(db::Database& db, int window,
                             const ExecutionContext*) {
  XP_TRACE_SCOPE("dp.local_reorder");
  Stopwatch watch;
  PassStats stats;
  stats.hpwl_before = db.hpwl();

  lg::RowMap rows(db);
  std::vector<std::vector<std::uint32_t>> per_row = group_rows(db, rows);

  // Live position arrays (pins may reference fixed cells too): rows run in
  // order, each committing its accepts to the database before the next.
  const std::size_t n_all = db.num_cells_total();
  std::vector<double> sx(n_all), sy(n_all);
  for (std::size_t c = 0; c < n_all; ++c) {
    sx[c] = db.x(c);
    sy[c] = db.y(c);
  }
  HpwlEval eval(db);
  for (std::size_t row = 0; row < per_row.size(); ++row) {
    stats.moves_accepted += reorder_row(db, rows, row, per_row[row], window,
                                        eval, sx.data(), sy.data());
    for (std::uint32_t cell : per_row[row]) {
      db.set_position(cell, sx[cell], sy[cell]);
    }
  }
  stats.hpwl_after = db.hpwl();
  stats.seconds = watch.seconds();
  return stats;
}

}  // namespace xplace::dp

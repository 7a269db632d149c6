#include <gtest/gtest.h>

#include <cmath>

#include "core/placer.h"
#include "dp/detailed_placer.h"
#include "dp/global_swap.h"
#include "dp/hpwl_eval.h"
#include "dp/hungarian.h"
#include "dp/ism.h"
#include "dp/local_reorder.h"
#include "io/generator.h"
#include "lg/abacus.h"
#include "lg/checker.h"
#include "lg/row_map.h"
#include "lg/tetris.h"
#include "util/rng.h"

namespace xplace {
namespace {

db::Database placed_design(std::size_t cells = 800, std::uint64_t seed = 3) {
  io::GeneratorSpec spec;
  spec.name = "lg_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + 40;
  spec.num_macros = 3;
  spec.num_io_pads = 12;
  spec.seed = seed;
  db::Database db = io::generate(spec);
  core::PlacerConfig cfg;
  cfg.grid_dim = 64;
  cfg.max_iters = 600;
  core::GlobalPlacer placer(db, cfg);
  placer.run();
  return db;
}

// ---------------- RowMap ----------------

TEST(RowMap, SegmentsExcludeMacros) {
  db::Database db = placed_design(300, 7);
  lg::RowMap rows(db);
  EXPECT_GT(rows.num_rows(), 4u);
  // Every segment must be macro-free.
  for (std::size_t f = db.num_movable(); f < db.num_physical(); ++f) {
    const RectD m = db.cell_rect(f);
    if (m.area() < 4.0) continue;  // pads
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      const double ry = rows.row_y(r);
      if (m.ly >= ry + rows.row_height() - 1e-9 || m.hy <= ry + 1e-9) continue;
      for (const lg::Segment& s : rows.segments(r)) {
        EXPECT_TRUE(s.hx <= m.lx + 1e-6 || s.lx >= m.hx - 1e-6)
            << "segment [" << s.lx << "," << s.hx << ") intersects macro";
      }
    }
  }
}

TEST(RowMap, NearestRowRoundTrips) {
  db::Database db = placed_design(300, 7);
  lg::RowMap rows(db);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const double cy = rows.row_y(r) + rows.row_height() * 0.5;
    EXPECT_EQ(rows.nearest_row(cy), r);
  }
  EXPECT_EQ(rows.nearest_row(-1e9), 0u);
  EXPECT_EQ(rows.nearest_row(1e9), rows.num_rows() - 1);
}

// ---------------- legalizers ----------------

TEST(Tetris, ProducesLegalPlacement) {
  db::Database db = placed_design();
  const lg::LegalizeStats stats = lg::tetris_legalize(db);
  EXPECT_EQ(stats.failed_cells, 0u);
  const lg::LegalityReport rep = lg::check_legality(db);
  EXPECT_TRUE(rep.legal()) << rep.summary()
                           << (rep.samples.empty() ? "" : "\n" + rep.samples[0]);
}

TEST(Abacus, ProducesLegalPlacement) {
  db::Database db = placed_design();
  const lg::LegalizeStats stats = lg::abacus_legalize(db);
  EXPECT_EQ(stats.failed_cells, 0u);
  const lg::LegalityReport rep = lg::check_legality(db);
  EXPECT_TRUE(rep.legal()) << rep.summary()
                           << (rep.samples.empty() ? "" : "\n" + rep.samples[0]);
}

TEST(Abacus, MovesLessThanTetris) {
  db::Database db1 = placed_design(800, 13);
  db::Database db2 = placed_design(800, 13);
  const lg::LegalizeStats t = lg::tetris_legalize(db1);
  const lg::LegalizeStats a = lg::abacus_legalize(db2);
  EXPECT_LT(a.avg_displacement, t.avg_displacement * 1.05)
      << "abacus " << a.avg_displacement << " vs tetris " << t.avg_displacement;
  // Abacus should also not be dramatically worse on HPWL.
  EXPECT_LT(a.hpwl_after, t.hpwl_after * 1.10);
}

TEST(Legalizers, HpwlChangeIsModest) {
  db::Database db = placed_design();
  const double before = db.hpwl();
  lg::abacus_legalize(db);
  EXPECT_LT(db.hpwl(), before * 1.30) << "legalization should not destroy GP";
}

TEST(Checker, DetectsOverlap) {
  db::Database db = placed_design(200, 17);
  lg::abacus_legalize(db);
  ASSERT_TRUE(lg::check_legality(db).legal());
  // Introduce a deliberate overlap.
  db.set_position(1, db.x(0), db.y(0));
  const lg::LegalityReport rep = lg::check_legality(db);
  EXPECT_FALSE(rep.legal());
  EXPECT_GT(rep.overlaps, 0u);
}

TEST(Checker, DetectsOffRowAndOffSite) {
  db::Database db = placed_design(200, 17);
  lg::abacus_legalize(db);
  db.set_position(0, db.x(0) + 0.37, db.y(0));  // off-site
  db.set_position(2, db.x(2), db.y(2) + 3.21);  // off-row
  const lg::LegalityReport rep = lg::check_legality(db);
  EXPECT_GT(rep.off_site + rep.overlaps, 0u);
  EXPECT_GT(rep.out_of_row, 0u);
}

// ---------------- Hungarian ----------------

TEST(Hungarian, SolvesKnownInstance) {
  // cost rows: worker i → job j.
  const std::vector<double> cost = {4, 1, 3,
                                    2, 0, 5,
                                    3, 2, 2};
  const auto a = dp::hungarian(cost, 3);
  EXPECT_DOUBLE_EQ(dp::assignment_cost(cost, 3, a), 5.0);  // 1 + 2 + 2
}

TEST(Hungarian, IdentityWhenDiagonalIsBest) {
  std::vector<double> cost(16, 10.0);
  for (int i = 0; i < 4; ++i) cost[i * 4 + i] = 0.0;
  const auto a = dp::hungarian(cost, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], i);
}

TEST(Hungarian, MatchesBruteForceOnRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + trial % 5;  // up to 6
    std::vector<double> cost(static_cast<std::size_t>(n) * n);
    for (auto& c : cost) c = rng.uniform(0.0, 10.0);
    const auto a = dp::hungarian(cost, n);
    // Assignment is a permutation.
    std::vector<char> used(n, 0);
    for (int i = 0; i < n; ++i) {
      ASSERT_GE(a[i], 0);
      ASSERT_LT(a[i], n);
      ASSERT_FALSE(used[a[i]]);
      used[a[i]] = 1;
    }
    // Brute force optimum.
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    double best = 1e300;
    do {
      best = std::min(best, dp::assignment_cost(cost, n, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(dp::assignment_cost(cost, n, a), best, 1e-9) << "n=" << n;
  }
}

// ---------------- DP passes ----------------

TEST(HpwlEval, MatchesFullRecomputation) {
  db::Database db = placed_design(300, 19);
  dp::HpwlEval eval(db);
  // Moving one cell: delta via eval must match full HPWL delta.
  const std::uint32_t cell = 5;
  const double before_nets = eval.cell_net_hpwl(cell);
  const double before_full = db.hpwl();
  db.set_position(cell, db.x(cell) + 7.0, db.y(cell));
  const double after_nets = eval.cell_net_hpwl(cell);
  const double after_full = db.hpwl();
  EXPECT_NEAR(after_nets - before_nets, after_full - before_full,
              1e-6 * before_full);
}

TEST(HpwlEval, DeduplicatesSharedNets) {
  db::Database db = placed_design(300, 19);
  dp::HpwlEval eval(db);
  // Two cells on one net must count that net once.
  std::uint32_t a = 0, b = 0;
  bool found = false;
  for (std::size_t e = 0; e < db.num_nets() && !found; ++e) {
    if (db.net_degree(e) >= 2) {
      const auto p0 = db.net_pin_start(e);
      a = db.pin_cell(p0);
      b = db.pin_cell(p0 + 1);
      if (a != b && db.is_movable(a) && db.is_movable(b)) found = true;
    }
  }
  ASSERT_TRUE(found);
  std::uint32_t pair[2] = {a, b};
  const auto& nets = eval.collect_nets(pair, 2);
  std::set<std::uint32_t> unique(nets.begin(), nets.end());
  EXPECT_EQ(unique.size(), nets.size());
}

TEST(DetailedPlace, PassesNeverIncreaseHpwlAndStayLegal) {
  db::Database db = placed_design();
  lg::abacus_legalize(db);
  ASSERT_TRUE(lg::check_legality(db).legal());

  const double h0 = db.hpwl();
  const dp::PassStats swap = dp::global_swap_pass(db, 6 * 12.0);
  EXPECT_LE(swap.hpwl_after, swap.hpwl_before + 1e-6);
  EXPECT_TRUE(lg::check_legality(db).legal()) << "after global swap";

  const dp::PassStats ism = dp::ism_pass(db);
  EXPECT_LE(ism.hpwl_after, ism.hpwl_before + 1e-6);
  EXPECT_TRUE(lg::check_legality(db).legal()) << "after ISM";

  const dp::PassStats reorder = dp::local_reorder_pass(db, 3);
  EXPECT_LE(reorder.hpwl_after, reorder.hpwl_before + 1e-6);
  EXPECT_TRUE(lg::check_legality(db).legal()) << "after local reorder";

  EXPECT_LT(db.hpwl(), h0);  // the combination should find improvements
}

TEST(DetailedPlace, DriverImprovesHpwl) {
  db::Database db = placed_design();
  lg::abacus_legalize(db);
  const dp::DetailedPlaceResult res = dp::detailed_place(db);
  EXPECT_LT(res.hpwl_after, res.hpwl_before);
  EXPECT_GT(res.moves_accepted, 0u);
  EXPECT_TRUE(lg::check_legality(db).legal());
}

TEST(DetailedPlace, SubPassTotalsMatchThePasses) {
  // One round of detailed_place is one swap, one ISM and one reorder pass;
  // its per-kind totals must be exactly what those passes report alone.
  db::Database db = placed_design();
  lg::abacus_legalize(db);
  db::Database manual = db;
  dp::DetailedPlaceConfig cfg;
  cfg.max_rounds = 1;
  const dp::DetailedPlaceResult res = dp::detailed_place(db, cfg);

  const double row_h = manual.rows().front().height;
  const dp::PassStats swap =
      dp::global_swap_pass(manual, cfg.swap_radius_rows * row_h);
  const dp::PassStats ism = dp::ism_pass(manual, cfg.ism_max_set);
  const dp::PassStats reorder =
      dp::local_reorder_pass(manual, cfg.reorder_window);
  EXPECT_EQ(res.global_swap.moves, swap.moves_accepted);
  EXPECT_EQ(res.ism.moves, ism.moves_accepted);
  EXPECT_EQ(res.local_reorder.moves, reorder.moves_accepted);
  EXPECT_EQ(res.moves_accepted,
            res.global_swap.moves + res.ism.moves + res.local_reorder.moves);
  EXPECT_GT(res.global_swap.seconds, 0.0);
  EXPECT_GT(res.ism.seconds, 0.0);
  EXPECT_GT(res.local_reorder.seconds, 0.0);
  EXPECT_LE(res.global_swap.seconds + res.ism.seconds +
                res.local_reorder.seconds,
            res.seconds);
}

TEST(DetailedPlace, NoMovesOnConvergedResult) {
  db::Database db = placed_design(200, 23);
  lg::abacus_legalize(db);
  dp::detailed_place(db);
  // A second run should find almost nothing.
  const double h1 = db.hpwl();
  const dp::DetailedPlaceResult res2 = dp::detailed_place(db);
  EXPECT_LT(h1 - res2.hpwl_after, 0.01 * h1);
}

}  // namespace
}  // namespace xplace
